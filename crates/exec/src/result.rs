//! A query's output as it leaves the executor.
//!
//! A plan whose root is a scan, filter or projection ends in a column
//! selection, not in rows: [`ResultRows`] keeps that selection and renders
//! it as reply text straight from the columns ([`ResultRows::write_text`]).
//! Every other root (joins, aggregates, unions, temp scans) produces rows,
//! which it keeps as they are. In-process callers that want rows deref to
//! `[Row]`; a selection materializes then, once.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use hashstash_types::{Row, Value};

use crate::exec::{batch_rows, Pipe};
use crate::parallel::Scheduler;
use crate::vector::{self, ColumnarBatch};

/// The output rows of one query: a column selection or materialized rows.
///
/// `len` never materializes; `Deref<Target = [Row]>` materializes a
/// selection on first use and keeps the rows, so every later access sees
/// the same rows in the same order (selection order, which is the row
/// interpreter's output order).
#[derive(Clone)]
pub struct ResultRows {
    pipe: Pipe,
    /// The rows of a selection, once something asked for them.
    rows: OnceLock<Vec<Row>>,
}

impl ResultRows {
    pub(crate) fn new(pipe: Pipe) -> Self {
        ResultRows {
            pipe,
            rows: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.pipe.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the rows as text: per row a `\n`, then its values separated
    /// by `\t`, each rendered byte for byte as `Value`'s `Display` renders
    /// it — the body of a `QUERY` reply, following its header line. A
    /// selection is written column by column type from the stored columns;
    /// rows are written value by value through the same writers.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        let rows = match &self.pipe {
            Pipe::Columnar(batch) => return vector::write_text(batch, out),
            Pipe::Rows(rows) => rows,
        };
        for row in rows {
            out.push(b'\n');
            for (i, v) in row.values().iter().enumerate() {
                if i > 0 {
                    out.push(b'\t');
                }
                match v {
                    Value::Int(x) => vector::write_int(out, *x),
                    Value::Float(f) => vector::write_float(out, f.0),
                    Value::Str(s) => out.extend_from_slice(s.as_bytes()),
                    Value::Date(d) => vector::write_date(out, *d),
                }
            }
        }
    }

    /// The rows, by value.
    pub fn into_vec(self) -> Vec<Row> {
        match self.pipe {
            Pipe::Rows(rows) => rows,
            Pipe::Columnar(batch) => self
                .rows
                .into_inner()
                .unwrap_or_else(|| materialize(&batch)),
        }
    }
}

/// A selection's rows, on the calling thread: a result outlives the
/// execution context and its pool.
fn materialize(batch: &ColumnarBatch) -> Vec<Row> {
    let serial = Scheduler {
        parallelism: 1,
        pool: None,
    };
    batch_rows(batch, serial)
}

impl Deref for ResultRows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        match &self.pipe {
            Pipe::Rows(rows) => rows,
            Pipe::Columnar(batch) => self.rows.get_or_init(|| materialize(batch)),
        }
    }
}

impl<'a> IntoIterator for &'a ResultRows {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<Row>> for ResultRows {
    fn from(rows: Vec<Row>) -> Self {
        ResultRows::new(Pipe::Rows(rows))
    }
}

impl From<ColumnarBatch> for ResultRows {
    fn from(batch: ColumnarBatch) -> Self {
        ResultRows::new(Pipe::Columnar(batch))
    }
}

impl PartialEq for ResultRows {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for ResultRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}
