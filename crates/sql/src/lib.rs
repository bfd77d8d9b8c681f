//! SQL front end for HashStash: a hand-written lexer, recursive-descent
//! parser and lowering pass that turn the SQL subset the engine executes —
//! single-table range scans, equi-joins, grouped aggregates, projections —
//! into the same [`QuerySpec`] structure hand-built queries use. Nothing
//! downstream (fingerprints, reuse-case classification, the cost model)
//! can tell a parsed query from a constructed one.
//!
//! Design points:
//!
//! * **Span-carrying errors.** Every failure — lexical, syntactic, or
//!   semantic (unknown table, ambiguous column, type mismatch) — is a
//!   [`SqlError`] holding the byte range of the offending token, and
//!   [`SqlError::render`] draws a caret snippet for the serving front end.
//! * **Never panics.** This crate is on the tidy `no-panic-paths` list:
//!   non-test code contains no `unwrap`/`expect`/`panic!`, the lexer walks
//!   `char_indices` (no byte slicing at computed offsets), and arbitrary
//!   byte soup produces `Err`, never a crash — a property the proptest
//!   battery in `tests/` hammers on.
//! * **Thin schema coupling.** Name resolution goes through the two-method
//!   [`SchemaProvider`] trait, so the crate depends only on the type and
//!   plan layers; the server adapts the storage catalog to it.
//!
//! ```
//! use hashstash_sql::{parse_query, SchemaProvider};
//! use hashstash_types::DataType;
//!
//! struct One;
//! impl SchemaProvider for One {
//!     fn has_table(&self, t: &str) -> bool { t == "lineitem" }
//!     fn column_type(&self, t: &str, c: &str) -> Option<DataType> {
//!         (t == "lineitem" && c == "l_quantity").then_some(DataType::Float)
//!     }
//! }
//!
//! let spec = parse_query("SELECT * FROM lineitem WHERE l_quantity < 24", 1, &One).unwrap();
//! assert_eq!(spec.id.0, 1);
//! ```

pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use error::{Span, SqlError};
pub use lower::{lower, SchemaProvider};
pub use parser::{parse, Ast};

use hashstash_plan::QuerySpec;

/// Parse and lower `sql` into a validated [`QuerySpec`] with the given
/// query id. This is the one-call entry point; use [`parse`] + [`lower()`]
/// separately to inspect the AST.
pub fn parse_query(sql: &str, id: u32, schema: &dyn SchemaProvider) -> Result<QuerySpec, SqlError> {
    lower(&parse(sql)?, id, schema)
}
