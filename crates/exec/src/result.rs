//! A query's output as it leaves the executor.
//!
//! Every plan ends in a column selection — a scan's, an aggregate's
//! groups, or a whole result gathered into one table — and [`ResultRows`]
//! keeps it as it is: it renders reply text straight from the columns
//! ([`ResultRows::write_text`]). In-process callers that want rows deref
//! to `[Row]`; the selection materializes then, once. That is the only
//! place the executor's output becomes rows.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use hashstash_types::Row;

use crate::vector::{self, ColumnarBatch};

/// The output rows of one query, as a column selection.
///
/// `len` never materializes; `Deref<Target = [Row]>` materializes the
/// selection on first use and keeps the rows, so every later access sees
/// the same rows in the same order (selection order).
#[derive(Clone)]
pub struct ResultRows {
    batch: ColumnarBatch,
    /// The selection's rows, once something asked for them.
    rows: OnceLock<Vec<Row>>,
}

impl ResultRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.batch.sel.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the rows as text: per row a `\n`, then its values separated
    /// by `\t`, each rendered byte for byte as `Value`'s `Display` renders
    /// it — the body of a `QUERY` reply, following its header line —
    /// column by column type from the stored columns.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        vector::write_text(&self.batch, out)
    }

    /// The rows, by value.
    pub fn into_vec(self) -> Vec<Row> {
        let batch = self.batch;
        self.rows
            .into_inner()
            .unwrap_or_else(|| materialize(&batch))
    }
}

/// A selection's rows, in selection order.
fn materialize(batch: &ColumnarBatch) -> Vec<Row> {
    let (table, proj, sel) = (&batch.table, &batch.proj, &batch.sel);
    (0..sel.len())
        .map(|i| table.row_projected(sel.rid(i), proj))
        .collect()
}

impl Deref for ResultRows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        self.rows.get_or_init(|| materialize(&self.batch))
    }
}

impl<'a> IntoIterator for &'a ResultRows {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<ColumnarBatch> for ResultRows {
    fn from(batch: ColumnarBatch) -> Self {
        ResultRows {
            batch,
            rows: OnceLock::new(),
        }
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
