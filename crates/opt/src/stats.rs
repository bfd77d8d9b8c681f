//! Table and attribute statistics for selectivity and cardinality
//! estimation.

use std::collections::HashMap;

use hashstash_types::Value;

use hashstash_plan::{PredBox, Region};
use hashstash_storage::{Catalog, Column};

/// Domain statistics of one (qualified) attribute.
#[derive(Debug, Clone)]
pub struct AttrStats {
    /// Smallest value in the column.
    pub lo: Value,
    /// Largest value in the column.
    pub hi: Value,
    /// Number of distinct values.
    pub distinct: u64,
}

/// Statistics of one table.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Per-attribute domains, keyed by qualified name.
    pub attrs: HashMap<String, AttrStats>,
}

/// Database statistics: the optimizer's view of the data.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    tables: HashMap<String, TableStats>,
}

impl DbStats {
    /// Collect exact statistics from a catalog (one pass per column; our
    /// experiment databases are small enough that exact stats are cheap and
    /// remove one source of noise from estimator-accuracy experiments).
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut tables = HashMap::new();
        for name in catalog.table_names() {
            let table = catalog.get(name).expect("listed table exists");
            let mut ts = TableStats {
                rows: table.row_count(),
                attrs: HashMap::new(),
            };
            for (i, field) in table.schema().fields().iter().enumerate() {
                let col = table.column(i);
                if let Some(stats) = column_stats(col) {
                    ts.attrs.insert(format!("{name}.{}", field.name), stats);
                }
            }
            tables.insert(name.to_string(), ts);
        }
        DbStats { tables }
    }

    /// Row count of a base table (0 if unknown).
    pub fn table_rows(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, |t| t.rows)
    }

    /// Statistics of a qualified attribute.
    pub fn attr(&self, attr: &str) -> Option<&AttrStats> {
        let table = attr.split('.').next()?;
        self.tables.get(table)?.attrs.get(attr)
    }

    /// Selectivity of a predicate box against one table: the product of the
    /// per-attribute interval fractions (independence assumption), over the
    /// box's constraints on that table.
    pub fn box_selectivity(&self, table: &str, pred: &PredBox) -> f64 {
        let restricted = pred.project_table(table);
        if restricted.is_empty() {
            return 0.0;
        }
        let mut sel = 1.0;
        for (attr, iv) in restricted.constrained() {
            match self.attr(attr) {
                Some(s) => sel *= iv.fraction(&s.lo, &s.hi, s.distinct),
                None => sel *= 0.5,
            }
        }
        sel.clamp(0.0, 1.0)
    }

    /// Selectivity of a region against one table (boxes are disjoint, so
    /// fractions add; the sum is clamped to 1).
    pub fn region_selectivity(&self, table: &str, region: &Region) -> f64 {
        region
            .boxes()
            .iter()
            .map(|b| self.box_selectivity(table, b))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Estimated rows of a table under a region predicate.
    pub fn filtered_rows(&self, table: &str, region: &Region) -> f64 {
        self.table_rows(table) as f64 * self.region_selectivity(table, region)
    }

    /// Estimated number of distinct combinations of the given attributes
    /// (bounded by `upper`, typically the input row estimate).
    pub fn distinct_combinations(&self, attrs: &[impl AsRef<str>], upper: f64) -> f64 {
        if attrs.is_empty() {
            return 1.0;
        }
        let mut product = 1.0f64;
        for a in attrs {
            let d = self.attr(a.as_ref()).map_or(100.0, |s| s.distinct as f64);
            product *= d;
            if product > upper {
                return upper.max(1.0);
            }
        }
        product.min(upper).max(1.0)
    }

    /// Classic System-R style join cardinality estimate for a set of tables
    /// joined by equi-join edges under a region predicate: the product of
    /// filtered table cardinalities divided, per edge, by the larger
    /// distinct count of the two join keys.
    pub fn join_rows(
        &self,
        tables: impl IntoIterator<Item = impl AsRef<str>>,
        edges: &[hashstash_plan::JoinEdge],
        region: &Region,
    ) -> f64 {
        let mut rows = 1.0f64;
        let mut any = false;
        for t in tables {
            any = true;
            rows *= self.filtered_rows(t.as_ref(), region).max(1.0);
        }
        if !any {
            return 0.0;
        }
        for e in edges {
            let dl = self.attr(&e.left_col).map_or(100.0, |s| s.distinct as f64);
            let dr = self.attr(&e.right_col).map_or(100.0, |s| s.distinct as f64);
            rows /= dl.max(dr).max(1.0);
        }
        rows.max(0.0)
    }
}

/// Number of distinct values of `values` under an injective `key` (a float
/// counts by its bits, so `-0.0`, `0.0` and each NaN pattern are distinct).
/// A bitmap over the keys' `[min, max]` when it takes at most about a byte
/// per value, else sort + dedup of a copy of the keys.
fn distinct_count<T: Copy>(values: &[T], key: impl Fn(T) -> u64) -> u64 {
    let keys = || values.iter().map(|&v| key(v));
    let (Some(lo), Some(hi)) = (keys().min(), keys().max()) else {
        return 0;
    };
    if (hi - lo) / 8 <= values.len() as u64 {
        let mut seen = vec![0u64; ((hi - lo) / 64 + 1) as usize];
        let mut distinct = 0;
        for k in keys() {
            let (word, bit) = (((k - lo) / 64) as usize, 1u64 << ((k - lo) % 64));
            distinct += u64::from(seen[word] & bit == 0);
            seen[word] |= bit;
        }
        distinct
    } else {
        let mut sorted: Vec<u64> = keys().collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() as u64
    }
}

fn column_stats(col: &Column) -> Option<AttrStats> {
    if col.is_empty() {
        return None;
    }
    match col {
        Column::Int(v) => {
            let lo = *v.iter().min()?;
            let hi = *v.iter().max()?;
            let distinct = distinct_count(v, |x| x as u64);
            Some(AttrStats {
                lo: Value::Int(lo),
                hi: Value::Int(hi),
                distinct,
            })
        }
        Column::Date(v) => {
            let lo = *v.iter().min()?;
            let hi = *v.iter().max()?;
            let distinct = distinct_count(v, |x| x as u32 as u64);
            Some(AttrStats {
                lo: Value::Date(lo),
                hi: Value::Date(hi),
                distinct,
            })
        }
        Column::Float(v) => {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let distinct = distinct_count(v, f64::to_bits);
            Some(AttrStats {
                lo: Value::float(lo),
                hi: Value::float(hi),
                distinct,
            })
        }
        Column::Str { dict, codes } => {
            let lo = dict.iter().min()?.clone();
            let hi = dict.iter().max()?.clone();
            let distinct = distinct_count(codes, u64::from);
            Some(AttrStats {
                lo: Value::Str(lo),
                hi: Value::Str(hi),
                distinct,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_plan::Interval;
    use hashstash_storage::tpch::{generate, TpchConfig};

    fn stats() -> DbStats {
        DbStats::from_catalog(&generate(TpchConfig::new(0.002, 9)))
    }

    #[test]
    fn table_rows_and_attr_domains() {
        let s = stats();
        assert!(s.table_rows("customer") >= 50);
        let age = s.attr("customer.c_age").unwrap();
        assert!(age.lo >= Value::Int(18));
        assert!(age.hi <= Value::Int(92));
        assert!(age.distinct > 10);
        assert!(s.attr("customer.nope").is_none());
    }

    #[test]
    fn box_selectivity_scales_with_range() {
        let s = stats();
        let narrow = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(34)),
        );
        let wide = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(20), Value::Int(80)),
        );
        let sn = s.box_selectivity("customer", &narrow);
        let sw = s.box_selectivity("customer", &wide);
        assert!(sn < sw, "{sn} < {sw}");
        assert!(sn > 0.0 && sw <= 1.0);
        // Predicates on other tables do not affect this table.
        let other = PredBox::all().with(
            "orders.o_orderdate",
            Interval::closed(Value::Date(0), Value::Date(1)),
        );
        assert_eq!(s.box_selectivity("customer", &other), 1.0);
    }

    #[test]
    fn region_selectivity_adds_disjoint_boxes() {
        let s = stats();
        let b1 = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(20), Value::Int(29)),
        );
        let b2 = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(39)),
        );
        let merged = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(20), Value::Int(39)),
        );
        let r12 = Region::from_box(b1).union(&Region::from_box(b2));
        let rm = Region::from_box(merged);
        let s12 = s.region_selectivity("customer", &r12);
        let sm = s.region_selectivity("customer", &rm);
        assert!((s12 - sm).abs() < 1e-9, "{s12} vs {sm}");
    }

    #[test]
    fn join_rows_reasonable_for_fk_join() {
        let s = stats();
        let edges = vec![hashstash_plan::JoinEdge::new(
            "customer",
            "customer.c_custkey",
            "orders",
            "orders.o_custkey",
        )];
        let est = s.join_rows(["customer", "orders"], &edges, &Region::all());
        let actual = s.table_rows("orders") as f64;
        // FK join: |orders ⋈ customer| = |orders|; estimate within 2×.
        assert!(
            est > actual * 0.5 && est < actual * 2.0,
            "est={est} actual={actual}"
        );
    }

    #[test]
    fn distinct_combinations_bounded() {
        let s = stats();
        let d = s.distinct_combinations(&["customer.c_age"], 1e9);
        assert!(d > 10.0 && d <= 75.0);
        let combo = s.distinct_combinations(&["customer.c_age", "customer.c_mktsegment"], 1e9);
        assert!(combo > d);
        let capped = s.distinct_combinations(&["customer.c_age"], 5.0);
        assert_eq!(capped, 5.0);
        assert_eq!(s.distinct_combinations(&[] as &[&str], 10.0), 1.0);
    }

    #[test]
    fn filtered_rows_empty_region() {
        let s = stats();
        assert_eq!(s.filtered_rows("customer", &Region::empty()), 0.0);
    }
}
