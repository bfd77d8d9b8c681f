//! [`ColumnHt`]: the cached table of a join build side or a shared grouping
//! phase — a hash table of keys with the payload stored beside it as one
//! typed column per attribute, in arena order.
//!
//! The hash table ([`ExtendibleHashTable<()>`]) keeps the directory, tag
//! filter, chains and arena order a table of rows had, so probe order,
//! equality, the partitioned build and the snapshot's image mean what they
//! meant. What an arena entry used to own — a `Row`, one
//! heap block of tagged `Value`s — is now position `i` of every column:
//! `i64`, `f64` and `i32` cells in native arrays, strings as `u32` codes
//! into a per-table dictionary. The heap holds what
//! [`logical_bytes`](ColumnHt::logical_bytes) charges, a copy-on-write
//! reuse copies a handful of vectors, and an eviction frees them.

use hashstash_hashtable::{ExtendibleHashTable, Positions};
use hashstash_storage::Column;
use hashstash_types::{DataType, HsError, Result, Row};

/// A multi-map from 64-bit keys to payload tuples stored as typed columns.
#[derive(Debug, Clone)]
pub struct ColumnHt {
    index: ExtendibleHashTable<()>,
    /// One column per payload attribute, each as long as the arena.
    columns: Vec<Column>,
}

impl ColumnHt {
    /// An empty table whose payload has the given attribute types.
    /// `tuple_width` is the logical width the cost model charges per
    /// entry (the schema's `tuple_width()` for the engine's tables).
    pub fn new(tuple_width: usize, types: &[DataType]) -> Self {
        Self::with_capacity(tuple_width, types, 0)
    }

    /// [`new`](Self::new) with the directory pre-sized for `capacity`
    /// entries ([`ExtendibleHashTable::with_capacity`]).
    pub fn with_capacity(tuple_width: usize, types: &[DataType], capacity: usize) -> Self {
        ColumnHt {
            index: ExtendibleHashTable::with_capacity(tuple_width, capacity),
            columns: types.iter().map(|&t| Column::new(t)).collect(),
        }
    }

    /// Reassemble a table from its index and payload columns, or `None`
    /// when a column's length differs from the index's entry count.
    pub fn from_parts(index: ExtendibleHashTable<()>, columns: Vec<Column>) -> Option<Self> {
        columns
            .iter()
            .all(|c| c.len() == index.len())
            .then_some(ColumnHt { index, columns })
    }

    /// The hash table over the keys: directory, tags, chains, arena.
    pub fn index(&self) -> &ExtendibleHashTable<()> {
        &self.index
    }

    /// The payload columns, in attribute order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.index.distinct_keys()
    }

    /// Logical tuple width in bytes (the cost model's `tWidth`).
    pub fn tuple_width(&self) -> usize {
        self.index.tuple_width()
    }

    /// Logical footprint in bytes (the cost model's `htSize`): the
    /// directory, a 12-byte key and link per entry, and the payload width.
    pub fn logical_bytes(&self) -> usize {
        self.index.logical_bytes()
    }

    /// Bytes of the string dictionaries, which `logical_bytes` does not
    /// charge (a code stands in for its string).
    pub fn dict_bytes(&self) -> usize {
        self.columns.iter().map(Column::dict_bytes).sum()
    }

    /// Actual heap footprint: the index, every column's data (spare
    /// capacity included) and the dictionaries.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
            + self
                .columns
                .iter()
                .map(Column::data_heap_bytes)
                .sum::<usize>()
            + self.dict_bytes()
    }

    /// Arena positions of the entries under `key`, in chain order.
    #[inline]
    pub fn probe(&self, key: u64) -> Positions<'_, ()> {
        self.index.probe_positions(key)
    }

    /// The payload of the entry at arena position `at`, as a row.
    pub fn row(&self, at: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.get(at)).collect())
    }

    /// Every `(key, payload row)` pair, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Row)> + '_ {
        self.index
            .keys()
            .enumerate()
            .map(|(at, k)| (k, self.row(at)))
    }

    /// Append `n` entries: `fill` appends their payload to each column (it
    /// gets the column's position and returns `false` on a type mismatch),
    /// then `link` chains their keys into the index in entry order. On a
    /// mismatch the columns are rolled back and the index is untouched.
    pub fn append(
        &mut self,
        n: usize,
        mut fill: impl FnMut(usize, &mut Column) -> bool,
        link: impl FnOnce(&mut ExtendibleHashTable<()>),
    ) -> Result<()> {
        let len = self.len();
        for c in 0..self.columns.len() {
            let col = &mut self.columns[c];
            col.reserve_exact(n);
            if !fill(c, col) || col.len() != len + n {
                let dtype = col.data_type();
                for col in &mut self.columns {
                    col.truncate(len);
                }
                return Err(HsError::ExecError(format!(
                    "payload column {c} ({dtype}) does not take the appended cells"
                )));
            }
        }
        link(&mut self.index);
        if self.index.len() != len + n {
            return Err(HsError::ExecError(
                "hash-table index out of step with its payload columns".into(),
            ));
        }
        Ok(())
    }

    /// Insert one `(key, row)` pair. Returns `true` if the key is new.
    /// Bulk loads go through [`append`](Self::append).
    pub fn insert(&mut self, key: u64, row: &Row) -> Result<bool> {
        if row.len() != self.columns.len() {
            return Err(HsError::ExecError(format!(
                "a {}-value row in a {}-column table",
                row.len(),
                self.columns.len()
            )));
        }
        let mut new_key = false;
        self.append(
            1,
            |c, col| col.extend_values([row.get(c)]),
            |index| new_key = index.insert(key, ()),
        )?;
        Ok(new_key)
    }

    /// Release spare capacity, so the heap holds what is charged.
    pub fn shrink_to_fit(&mut self) {
        self.index.shrink_to_fit();
        for col in &mut self.columns {
            col.shrink_to_fit();
        }
    }
}

/// Equal indexes ([`ExtendibleHashTable`]'s `==`: arena, depth, resizes and
/// width) and equal payload values at every arena position.
impl PartialEq for ColumnHt {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.same_values(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_types::Value;

    fn row(k: i64, s: &str) -> Row {
        Row::new(vec![
            Value::Int(k),
            Value::str(s),
            Value::float(k as f64 / 2.0),
        ])
    }

    fn table(rows: &[Row]) -> ColumnHt {
        let types = [DataType::Int, DataType::Str, DataType::Float];
        let mut t = ColumnHt::new(20, &types);
        for r in rows {
            t.insert(r.key64(&[0]), r).unwrap();
        }
        t
    }

    /// The table of rows a `ColumnHt` replaces, built the same way.
    fn reference(rows: &[Row]) -> ExtendibleHashTable<Row> {
        let mut t = ExtendibleHashTable::new(20);
        for r in rows {
            t.insert(r.key64(&[0]), r.clone());
        }
        t
    }

    /// Every probe answers what a table of rows answers, in its order.
    #[test]
    fn probes_answer_as_a_table_of_rows() {
        let rows: Vec<Row> = (0..500)
            .map(|i| row(i % 37, ["a", "b", "c"][i as usize % 3]))
            .collect();
        let (t, want) = (table(&rows), reference(&rows));
        assert_eq!((t.len(), t.distinct_keys()), (500, 37));
        let dict = t.columns()[1].dict_parts().unwrap().0.len();
        assert_eq!(dict, 3, "one dictionary entry per distinct string");
        for k in 0..40 {
            let key = Value::Int(k).key64();
            let got: Vec<Row> = t.probe(key).map(|at| t.row(at)).collect();
            let expect: Vec<Row> = want.probe_readonly(key).cloned().collect();
            assert_eq!(got, expect, "key {k}");
        }
        let pairs: Vec<(u64, Row)> = want.iter().map(|(k, r)| (k, r.clone())).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), pairs, "arena order");
    }

    #[test]
    fn a_mismatched_row_leaves_the_table_as_it_was() {
        let mut t = table(&[row(1, "a")]);
        let bad = Row::new(vec![Value::Int(2), Value::Int(3), Value::float(0.0)]);
        assert!(t.insert(2, &bad).is_err());
        assert!(t.insert(2, &Row::new(vec![Value::Int(2)])).is_err());
        assert!(t == table(&[row(1, "a")]));
    }

    #[test]
    fn heap_holds_what_is_charged() {
        let rows: Vec<Row> = (0..1000).map(|i| row(i, "y")).collect();
        let mut t = table(&rows);
        t.shrink_to_fit();
        let charged = t.logical_bytes() + t.dict_bytes();
        assert!(
            t.heap_bytes() * 5 <= charged * 6,
            "{} vs {charged}",
            t.heap_bytes()
        );
    }
}
