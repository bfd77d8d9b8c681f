//! In-memory columnar storage: tables, secondary indexes, catalog and the
//! TPC-H-style data generator used by every experiment in the paper.
//!
//! The paper evaluates HashStash on a TPC-H SF=10 database "with secondary
//! indexes on all selection attributes used in our query workloads" (§6).
//! This crate provides that substrate:
//!
//! * [`Column`] — typed columnar vectors; strings are dictionary-encoded.
//! * [`Table`] — a named schema plus columns, with row materialization.
//! * [`SortedIndex`] — an order-preserving secondary index answering range
//!   scans (the delta scans of partial/overlapping reuse hit these).
//! * [`ZoneMap`] — per-block `[min, max]` of an integer or date column,
//!   built on first use, which lets a probe skip blocks no key can hit.
//! * [`Catalog`] — name → table registry shared by planner and executor.
//! * [`tpch`] — deterministic generator for REGION, NATION, SUPPLIER,
//!   CUSTOMER (extended with the paper's `c_age`), PART, ORDERS, LINEITEM.

pub mod catalog;
pub mod column;
pub mod index;
pub mod table;
pub mod tpch;
pub mod zone;

pub use catalog::Catalog;
pub use column::{Column, ColumnBuilder, RangeKernel};
pub use index::{cross_type_order, SortedIndex};
pub use table::{Table, TableBuilder};
pub use zone::ZoneMap;
