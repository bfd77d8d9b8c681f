//! Column and schema metadata.

use crate::error::{HsError, Result};
use crate::value::DataType;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Fully qualified name, e.g. `lineitem.l_shipdate`.
    pub name: String,
    /// Scalar type of the column.
    pub dtype: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields describing a table or an operator output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Names must be unique.
    pub fn new(fields: Vec<Field>) -> Self {
        debug_assert!(
            (1..fields.len()).all(|i| fields[..i].iter().all(|f| f.name != fields[i].name)),
            "duplicate field names in schema"
        );
        Schema { fields }
    }

    /// The fields in declaration order.
    #[inline]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| HsError::UnknownColumn(name.to_string()))
    }

    /// Field with the given name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field at position `i`.
    #[inline]
    pub fn field_at(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Concatenate two schemas (e.g. for join output).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Project the schema onto the given column names, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let fields = names
            .iter()
            .map(|n| self.field(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Ok(Schema::new(fields))
    }

    /// Project the schema onto the columns at `positions`, in that order.
    pub fn project_at(&self, positions: &[usize]) -> Schema {
        Schema::new(positions.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Total payload width in bytes of a tuple with this schema when stored
    /// inside a cached hash table (paper's `tWidth` parameter).
    pub fn tuple_width(&self) -> usize {
        self.fields.iter().map(|f| f.dtype.payload_width()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("customer.c_custkey", DataType::Int),
            Field::new("customer.c_age", DataType::Int),
            Field::new("customer.c_name", DataType::Str),
            Field::new("customer.c_acctbal", DataType::Float),
        ])
    }

    #[test]
    fn index_and_field_lookup() {
        let s = sample();
        assert_eq!(s.index_of("customer.c_age").unwrap(), 1);
        assert_eq!(s.field("customer.c_name").unwrap().dtype, DataType::Str);
        assert!(matches!(s.index_of("nope"), Err(HsError::UnknownColumn(_))));
    }

    #[test]
    fn concat_preserves_order() {
        let a = Schema::new(vec![Field::new("x", DataType::Int)]);
        let b = Schema::new(vec![Field::new("y", DataType::Float)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.field_at(0).name, "x");
        assert_eq!(c.field_at(1).name, "y");
    }

    #[test]
    fn project_reorders() {
        let s = sample();
        let p = s
            .project(&["customer.c_name", "customer.c_custkey"])
            .unwrap();
        assert_eq!(p.field_at(0).name, "customer.c_name");
        assert_eq!(p.field_at(1).name, "customer.c_custkey");
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn tuple_width_sums_payload_widths() {
        // 8 (int) + 8 (int) + 4 (str code) + 8 (float) = 28
        assert_eq!(sample().tuple_width(), 28);
        assert_eq!(Schema::default().tuple_width(), 0);
    }
}
