//! Physical operators and the morsel-parallel executor.
//!
//! The paper's prototype compiles queries to C++ and runs single-threaded
//! "in order to show the pure effects of reuse" (§6). This crate is the
//! equivalent substrate: a recursive interpreter over physical plans whose
//! pipeline breakers materialize
//! [`hashstash_hashtable::ExtendibleHashTable`]s and exchange them with the
//! Hash Table Manager. Unlike the prototype, the hot operator loops (scan
//! filtering, join probing, reuse post-filtering) fan out over row-range
//! morsels, and fresh hash-table *builds* fan out over bucket/key
//! partitions — see [`parallel`] — with output (and the built tables
//! themselves) deterministically equal to the serial interpreter.
//!
//! * [`plan`] — the physical plan tree: scans (with region predicates and
//!   index support), projections, unions, hash join and hash aggregate
//!   with optional [`plan::ReuseSpec`] / publish directives, and the
//!   materialization baseline's temp tables.
//!
//! Between operators, tuples are a [`vector::ColumnarBatch`] (a selection
//! over a table's columns) or a join chain; no operator builds a `Row`.
//! * [`exec`] — the interpreter plus [`exec::ExecMetrics`] (tuples scanned,
//!   hash-table inserts/probes/updates, bytes materialized) used to validate
//!   cost models.
//! * `join` — hash joins: build, probe, and the join chain a multi-way
//!   join's output stays as (one position column per source, read in
//!   place by the next probe, a build side or an aggregate fold, and
//!   gathered into one table by a consumer that needs the whole result).
//! * [`parallel`] — the morsel scheduler: phases over an atomic claim
//!   space, per-participant output buffers concatenated in morsel-index
//!   order.
//! * [`pool`] — the persistent [`pool::WorkerPool`] those phases run on:
//!   spawned once per `Database`, shared across phases, queries, and
//!   sessions, joined on drop.
//! * [`vector`] — selection-vector kernels: scans (index access paths
//!   included), probe key extraction, aggregate folds and reply text run
//!   over `Column` slices, without boxing a scalar.
//! * [`result`] — [`ResultRows`], a query's output as it leaves the
//!   executor: the root's column selection, written as reply text without
//!   materializing, or materialized as rows once on first use.
//! * [`shared`] — reuse-aware shared plans (paper §4): the batch's joins
//!   run as an ordinary plan through [`exec`]; the module adds per-query
//!   qualification, the SRHA grouping phase and per-query aggregation.

pub mod exec;
mod join;
pub mod parallel;
pub mod plan;
pub mod pool;
pub mod result;
pub mod shared;
pub mod vector;

pub use exec::{acquire_checkouts, acquire_plan_checkouts, execute, ExecContext, ExecMetrics};
pub use parallel::{
    default_parallelism, effective_parallelism, engine_default_parallelism, min_parallel_morsels,
    Scheduler, MIN_PARALLEL_BUILD_ROWS, MORSEL_ROWS, PHASE_DISPATCH_NS,
};
pub use plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
pub use pool::WorkerPool;
pub use result::ResultRows;
pub use shared::SharedPlanSpec;
pub use vector::{ColumnarBatch, KeyKernel, Selection};
