//! Fundamental scalar and schema types shared by every HashStash crate.
//!
//! This crate is the bottom of the dependency stack. It defines:
//!
//! * [`Value`] — a self-contained scalar (integer, float, string, date),
//!   totally ordered and hashable so it can serve as a group-by or join key.
//! * [`DataType`] / [`Schema`] — column metadata used by the storage layer,
//!   the planner and the executor.
//! * [`Row`] — an owned tuple of values flowing between operators.
//! * [`date`] — proleptic-Gregorian day arithmetic so TPC-H dates can be
//!   stored as plain `i32` days and compared as integers.
//! * [`HsError`] — the crate-spanning error type.

pub mod date;
pub mod error;
pub mod ids;
pub mod row;
pub mod schema;
pub mod value;

pub use error::{HsError, Result};
pub use ids::{ColId, HtId, QueryId, TableId};
pub use row::Row;
pub use schema::{Field, Schema};
pub use value::{
    f64_order_key, fnv1a, key64_combine, key64_date, key64_float, key64_int, key64_str, DataType,
    StableHasher, Value, F64, KEY64_SEED,
};
