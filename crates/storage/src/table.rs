//! Tables: a schema plus columns plus optional secondary indexes.

use std::collections::HashMap;
use std::sync::OnceLock;

use hashstash_types::{DataType, Field, HsError, Result, Row, Schema, Value};

use crate::column::{Column, ColumnBuilder};
use crate::index::SortedIndex;
use crate::zone::ZoneMap;

/// An immutable in-memory table.
///
/// Column names are stored *unqualified* (`c_age`); the planner qualifies
/// them with the table name (`customer.c_age`) when building operator
/// schemas. Secondary indexes are registered per column and answer range
/// scans for the reuse-aware delta scans.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    indexes: HashMap<usize, SortedIndex>,
    /// Per column, its zone map once a probe asked for it (`None` inside
    /// for a column that has none).
    zone_maps: Box<[OnceLock<Option<ZoneMap>>]>,
    /// The schema qualified as `table.column`, built once, on first use.
    qualified: OnceLock<Schema>,
}

impl Table {
    /// A table without indexes; its zone maps are built on first use.
    fn assemble(name: String, schema: Schema, columns: Vec<Column>) -> Table {
        let zone_maps = columns.iter().map(|_| OnceLock::new()).collect();
        Table {
            name,
            schema,
            columns,
            indexes: HashMap::new(),
            zone_maps,
            qualified: OnceLock::new(),
        }
    }

    /// An unnamed, unindexed table over `columns`, whose field names are
    /// taken as they are: an operator's output held as columns.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        Table::from_parts(String::new(), schema, columns, &[])
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unqualified schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Schema with every field qualified as `table.column`, in column
    /// order (built on the first call, then shared).
    pub fn qualified_schema(&self) -> &Schema {
        self.qualified.get_or_init(|| {
            Schema::new(
                self.schema
                    .fields()
                    .iter()
                    .map(|f| Field::new(format!("{}.{}", self.name, f.name), f.dtype))
                    .collect(),
            )
        })
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Every column, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by (unqualified) name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Materialize row `i` across all columns.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Materialize row `i` projected onto the given column positions.
    pub fn row_projected(&self, i: usize, cols: &[usize]) -> Row {
        Row::new(cols.iter().map(|&c| self.columns[c].get(i)).collect())
    }

    /// Reassemble a table from recovered parts: name, schema, columns and
    /// the positions of indexed columns. Indexes are rebuilt (not restored
    /// byte-wise — `SortedIndex::build` is deterministic over the column
    /// content, so a rebuilt index equals the original). Validates that
    /// columns are rectangular and match the schema's types and width.
    pub fn from_parts(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        indexed: &[usize],
    ) -> Result<Table> {
        let name = name.into();
        if columns.len() != schema.len() {
            return Err(HsError::ExecError(format!(
                "table {name}: {} columns for a {}-field schema",
                columns.len(),
                schema.len()
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            if c.data_type() != schema.field_at(i).dtype {
                return Err(HsError::TypeMismatch {
                    expected: schema.field_at(i).dtype.to_string(),
                    found: c.data_type().to_string(),
                });
            }
        }
        let mut table = Table::assemble(name, schema, columns);
        table.indexes.reserve(indexed.len());
        check_rectangular(&table)?;
        for &col in indexed {
            if col >= table.schema.len() {
                return Err(HsError::ExecError(format!(
                    "table {}: index on out-of-range column {col}",
                    table.name
                )));
            }
            let index = SortedIndex::build(&table.columns[col]);
            table.indexes.insert(col, index);
        }
        Ok(table)
    }

    /// Positions of columns carrying a secondary index, sorted (the
    /// persistence layer records these so recovery rebuilds the same
    /// indexes).
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Build (or rebuild) a sorted secondary index on the named column.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let idx = self.schema.index_of(column)?;
        let index = SortedIndex::build(&self.columns[idx]);
        self.indexes.insert(idx, index);
        Ok(())
    }

    /// The secondary index on the named column, if one exists.
    pub fn index_on(&self, column: &str) -> Option<&SortedIndex> {
        let idx = self.schema.index_of(column).ok()?;
        self.indexes.get(&idx)
    }

    /// The zone map of column `col`, built the first time it is asked for;
    /// `None` for a column that is neither `Int` nor `Date`.
    pub fn zone_map(&self, col: usize) -> Option<&ZoneMap> {
        self.zone_maps[col]
            .get_or_init(|| ZoneMap::build(&self.columns[col]))
            .as_ref()
    }

    /// Whether an index exists on the given column position.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.contains_key(&col)
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.columns.iter().map(Column::bytes).sum::<usize>()
            + self.indexes.values().map(SortedIndex::bytes).sum::<usize>()
    }
}

/// Row-at-a-time table builder used by the generator and by tests.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Start a table with the given unqualified column names and types.
    pub fn new(name: impl Into<String>, columns: Vec<(&str, DataType)>) -> Self {
        TableBuilder::with_capacity(name, columns, 0)
    }

    /// Start a table with room for `rows` rows in every column, so loaders
    /// that know their cardinality up front (the TPC-H generator, recovery)
    /// never grow-reallocate while pushing.
    pub fn with_capacity(
        name: impl Into<String>,
        columns: Vec<(&str, DataType)>,
        rows: usize,
    ) -> Self {
        let schema = Schema::new(
            columns
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        );
        let builders = columns
            .iter()
            .map(|(_, t)| ColumnBuilder::with_capacity(*t, rows))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            builders,
        }
    }

    /// Append one row. The value count must match the schema width.
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.builders.len(),
            "row width mismatch for table {}",
            self.name
        );
        for (b, v) in self.builders.iter_mut().zip(values) {
            b.push(v);
        }
    }

    /// Finish, building sorted indexes on the named columns.
    pub fn finish_with_indexes(self, indexed: &[&str]) -> Result<Table> {
        let columns = self
            .builders
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        let mut table = Table::assemble(self.name, self.schema, columns);
        for col in indexed {
            table.create_index(col)?;
        }
        Ok(table)
    }

    /// Finish without indexes.
    pub fn finish(self) -> Table {
        self.finish_with_indexes(&[])
            .expect("finish without indexes cannot fail")
    }
}

/// Validate that all columns have equal length (invariant check for tests).
pub fn check_rectangular(table: &Table) -> Result<()> {
    let n = table.row_count();
    for (i, c) in (0..table.schema().len()).map(|i| (i, table.column(i))) {
        if c.len() != n {
            return Err(HsError::ExecError(format!(
                "column {i} of table {} has {} rows, expected {n}",
                table.name(),
                c.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut b = TableBuilder::new(
            "people",
            vec![
                ("id", DataType::Int),
                ("age", DataType::Int),
                ("name", DataType::Str),
            ],
        );
        b.push_row(vec![Value::Int(1), Value::Int(30), Value::str("ann")]);
        b.push_row(vec![Value::Int(2), Value::Int(25), Value::str("bob")]);
        b.push_row(vec![Value::Int(3), Value::Int(35), Value::str("cy")]);
        b.finish_with_indexes(&["age"]).unwrap()
    }

    #[test]
    fn build_and_read_rows() {
        let t = people();
        assert_eq!(t.row_count(), 3);
        assert_eq!(
            t.row(1).values(),
            &[Value::Int(2), Value::Int(25), Value::str("bob")]
        );
        assert_eq!(t.row_projected(2, &[2]).values(), &[Value::str("cy")]);
        check_rectangular(&t).unwrap();
    }

    #[test]
    fn qualified_schema_prefixes_names() {
        let t = people();
        assert_eq!(t.qualified_schema().field_at(0).name, "people.id");
    }

    #[test]
    fn index_registration() {
        let t = people();
        assert!(t.index_on("age").is_some());
        assert!(t.index_on("id").is_none());
        assert!(t.has_index(1));
        assert!(!t.has_index(0));
    }

    #[test]
    fn column_by_name_errors() {
        let t = people();
        assert!(t.column_by_name("age").is_ok());
        assert!(matches!(
            t.column_by_name("nope"),
            Err(HsError::UnknownColumn(_))
        ));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_width_checked() {
        let mut b = TableBuilder::new("t", vec![("x", DataType::Int)]);
        b.push_row(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn bytes_positive() {
        assert!(people().bytes() > 0);
    }

    #[test]
    fn from_parts_roundtrips_with_indexes() {
        let t = people();
        let columns: Vec<Column> = (0..t.schema().len()).map(|i| t.column(i).clone()).collect();
        let rebuilt =
            Table::from_parts(t.name(), t.schema().clone(), columns, &t.indexed_columns()).unwrap();
        assert_eq!(rebuilt.row_count(), t.row_count());
        assert_eq!(rebuilt.indexed_columns(), t.indexed_columns());
        assert!(rebuilt.index_on("age").is_some());
        for i in 0..t.row_count() {
            assert_eq!(rebuilt.row(i), t.row(i));
        }
    }

    #[test]
    fn from_parts_validates() {
        let t = people();
        // Wrong column count.
        assert!(
            Table::from_parts("x", t.schema().clone(), vec![t.column(0).clone()], &[]).is_err()
        );
        // Type mismatch against the schema.
        assert!(Table::from_parts(
            "x",
            t.schema().clone(),
            vec![
                t.column(1).clone(),
                t.column(0).clone(),
                t.column(2).clone()
            ],
            &[]
        )
        .is_ok()); // both Int — same type, allowed
                   // Out-of-range index position.
        let columns: Vec<Column> = (0..t.schema().len()).map(|i| t.column(i).clone()).collect();
        assert!(Table::from_parts("x", t.schema().clone(), columns, &[9]).is_err());
    }
}
