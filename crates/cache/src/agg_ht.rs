//! [`AggHt`]: the cached table of a hash aggregate — a hash table of group
//! keys with the groups stored beside it as typed columns, in arena order:
//! the group-key columns, then one state column per accumulator.
//!
//! It is what a join table ([`ColumnHt`](crate::ColumnHt)) is: the
//! [`ExtendibleHashTable<()>`] keeps the directory, tag filter, chains and
//! arena order, and position `i` of every column is group `i`. A `SUM` is
//! an `f64` column, a `COUNT` an `i64` column, an `AVG` one of each, and a
//! `MIN` or `MAX` a column of its argument's type. The heap holds what
//! [`logical_bytes`](AggHt::logical_bytes) charges (a group-key width plus
//! 8 bytes per aggregate), a copy-on-write reuse copies a handful of
//! vectors, and an eviction frees them.
//!
//! [`fold`](AggHt::fold) takes input columns gathered once per source and
//! makes two passes: it finds or opens each tuple's group through the
//! table's own index, then runs one typed loop per accumulator. Each
//! group's states see its tuples in input order, so a `SUM` is bitwise the
//! sum [`AggAccum::update`] accumulates.

use std::cmp::Ordering;

use hashstash_hashtable::ExtendibleHashTable;
use hashstash_plan::AggFunc;
use hashstash_storage::Column;
use hashstash_types::{key64_combine, DataType, HsError, Result, Row, KEY64_SEED};

use crate::AggAccum;

/// The accumulator states of one aggregate expression, one per group, in
/// arena order.
#[derive(Debug, Clone)]
pub enum AggState {
    Sum(Vec<f64>),
    Count(Vec<i64>),
    Avg {
        sum: Vec<f64>,
        count: Vec<i64>,
    },
    /// The smallest argument so far, in the argument's type.
    Min(Column),
    /// The largest argument so far, in the argument's type.
    Max(Column),
}

impl AggState {
    /// No groups yet, for `func` over an argument of type `arg` (which only
    /// a `MIN` or `MAX` keeps).
    pub fn new(func: AggFunc, arg: DataType) -> Self {
        match func {
            AggFunc::Sum => AggState::Sum(Vec::new()),
            AggFunc::Count => AggState::Count(Vec::new()),
            AggFunc::Avg => AggState::Avg {
                sum: Vec::new(),
                count: Vec::new(),
            },
            AggFunc::Min => AggState::Min(Column::new(arg)),
            AggFunc::Max => AggState::Max(Column::new(arg)),
        }
    }

    /// An empty state column of the same function and type.
    fn empty_like(&self) -> Self {
        match self {
            AggState::Min(c) => AggState::Min(Column::new(c.data_type())),
            AggState::Max(c) => AggState::Max(Column::new(c.data_type())),
            s => AggState::new(s.func(), DataType::Int),
        }
    }

    /// The function these states compute.
    pub fn func(&self) -> AggFunc {
        match self {
            AggState::Sum(_) => AggFunc::Sum,
            AggState::Count(_) => AggFunc::Count,
            AggState::Avg { .. } => AggFunc::Avg,
            AggState::Min(_) => AggFunc::Min,
            AggState::Max(_) => AggFunc::Max,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        match self {
            AggState::Sum(v) => v.len(),
            AggState::Count(v) => v.len(),
            AggState::Avg { sum, count } => sum.len().min(count.len()),
            AggState::Min(c) | AggState::Max(c) => c.len(),
        }
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The state of group `at` as an [`AggAccum`].
    pub fn accum(&self, at: usize) -> AggAccum {
        match self {
            AggState::Sum(v) => AggAccum::Sum(v[at]),
            AggState::Count(v) => AggAccum::Count(v[at]),
            AggState::Avg { sum, count } => AggAccum::Avg {
                sum: sum[at],
                count: count[at],
            },
            AggState::Min(c) => AggAccum::Min(Some(c.get(at))),
            AggState::Max(c) => AggAccum::Max(Some(c.get(at))),
        }
    }

    /// The finalized aggregate of the groups at `rows`, in that order (of
    /// every group when `None`), as [`AggAccum::finalize`] computes it:
    /// `SUM` and `AVG` as `Float`, `COUNT` as `Int`, `MIN` and `MAX` in the
    /// argument's type.
    pub fn finalize(&self, rows: Option<&[u32]>) -> Column {
        let Some(rows) = rows else {
            return match self {
                AggState::Sum(v) => Column::Float(v.clone()),
                AggState::Count(v) => Column::Int(v.clone()),
                AggState::Avg { sum, .. } => {
                    Column::Float((0..sum.len()).map(|r| self.finalized_f64(r)).collect())
                }
                AggState::Min(c) | AggState::Max(c) => c.clone(),
            };
        };
        let at = rows.iter().map(|&r| r as usize);
        match self {
            AggState::Sum(v) => Column::Float(at.map(|r| v[r]).collect()),
            AggState::Count(v) => Column::Int(at.map(|r| v[r]).collect()),
            AggState::Avg { .. } => Column::Float(at.map(|r| self.finalized_f64(r)).collect()),
            AggState::Min(c) | AggState::Max(c) => {
                let mut out = Column::new(c.data_type());
                out.extend_from(c, at);
                out
            }
        }
    }

    /// The finalized aggregate of group `at` as a float, as
    /// `AggAccum::finalize(..).to_f64().unwrap_or(0.0)` reads it.
    pub fn finalized_f64(&self, at: usize) -> f64 {
        match self {
            AggState::Sum(v) => v[at],
            AggState::Count(v) => v[at] as f64,
            AggState::Avg { sum, count } => {
                if count[at] == 0 {
                    0.0
                } else {
                    sum[at] / count[at] as f64
                }
            }
            AggState::Min(c) | AggState::Max(c) => c.get(at).to_f64().unwrap_or(0.0),
        }
    }

    /// Open one group per row of `firsts`: a `SUM`, `COUNT` or `AVG` at
    /// zero (the fold then adds every tuple, the first included), a `MIN`
    /// or `MAX` at the first tuple's argument. `false` on a type mismatch.
    fn open(&mut self, arg: Option<&Column>, firsts: &[u32]) -> bool {
        let n = firsts.len();
        match (self, arg) {
            (AggState::Sum(v), _) => v.resize(v.len() + n, 0.0),
            (AggState::Count(v), _) => v.resize(v.len() + n, 0),
            (AggState::Avg { sum, count }, _) => {
                sum.resize(sum.len() + n, 0.0);
                count.resize(count.len() + n, 0);
            }
            (AggState::Min(c) | AggState::Max(c), Some(arg)) => {
                return c.extend_from(arg, firsts.iter().map(|&i| i as usize))
            }
            (AggState::Min(_) | AggState::Max(_), None) => return false,
        }
        true
    }

    /// Fold input tuple `i`'s argument into group `gid[i]`, for every `i`
    /// in order. `false` on a type mismatch.
    fn fold(&mut self, arg: Option<&Column>, gid: &[u32]) -> bool {
        let pairs = gid.iter().enumerate().map(|(i, &g)| (g as usize, i));
        match (self, arg) {
            (AggState::Count(c), _) => pairs.for_each(|(g, _)| c[g] += 1),
            (AggState::Sum(s), Some(arg)) => add_f64(s, arg, gid),
            (AggState::Avg { sum, count }, Some(arg)) => {
                add_f64(sum, arg, gid);
                pairs.for_each(|(g, _)| count[g] += 1);
            }
            (AggState::Min(c), Some(arg)) => return c.fold_extreme(arg, pairs, Ordering::Less),
            (AggState::Max(c), Some(arg)) => return c.fold_extreme(arg, pairs, Ordering::Greater),
            (_, None) => return false,
        }
        true
    }

    /// Merge the states of `src` at positions `rows` into groups `gid`:
    /// each new group (`firsts[g - base]` is the index into `rows` that
    /// opened it) starts as a copy of its first state, and the others
    /// merge into it in order, as [`AggAccum::merge`] does. `false` on a
    /// kind or type mismatch.
    fn merge(&mut self, src: &AggState, rows: &[u32], gid: &[u32], firsts: &[u32]) -> bool {
        let base = self.len();
        let opened = |g: usize, i: usize| g >= base && firsts[g - base] as usize == i;
        let first_rows = firsts.iter().map(|&i| rows[i as usize] as usize);
        let rest = gid
            .iter()
            .enumerate()
            .filter(|&(i, &g)| !opened(g as usize, i))
            .map(|(i, &g)| (g as usize, rows[i] as usize));
        match (self, src) {
            (AggState::Sum(a), AggState::Sum(b)) => {
                a.extend(first_rows.map(|r| b[r]));
                rest.for_each(|(g, r)| a[g] += b[r]);
            }
            (AggState::Count(a), AggState::Count(b)) => {
                a.extend(first_rows.map(|r| b[r]));
                rest.for_each(|(g, r)| a[g] += b[r]);
            }
            (AggState::Avg { sum: sa, count: ca }, AggState::Avg { sum: sb, count: cb }) => {
                sa.extend(first_rows.clone().map(|r| sb[r]));
                ca.extend(first_rows.map(|r| cb[r]));
                rest.for_each(|(g, r)| {
                    sa[g] += sb[r];
                    ca[g] += cb[r];
                });
            }
            (AggState::Min(a), AggState::Min(b)) => {
                return a.extend_from(b, first_rows) && a.fold_extreme(b, rest, Ordering::Less)
            }
            (AggState::Max(a), AggState::Max(b)) => {
                return a.extend_from(b, first_rows) && a.fold_extreme(b, rest, Ordering::Greater)
            }
            _ => return false,
        }
        true
    }

    /// Whether both hold the same states bit for bit.
    fn same_bits(&self, other: &AggState) -> bool {
        let floats = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        match (self, other) {
            (AggState::Sum(a), AggState::Sum(b)) => floats(a, b),
            (AggState::Count(a), AggState::Count(b)) => a == b,
            (AggState::Avg { sum: sa, count: ca }, AggState::Avg { sum: sb, count: cb }) => {
                floats(sa, sb) && ca == cb
            }
            (AggState::Min(a), AggState::Min(b)) | (AggState::Max(a), AggState::Max(b)) => {
                match (a.as_float(), b.as_float()) {
                    (Some(a), Some(b)) => floats(a, b),
                    _ => a.same_values(b),
                }
            }
            _ => false,
        }
    }

    /// Heap bytes of the states, capacity included (no dictionary).
    fn data_heap_bytes(&self) -> usize {
        match self {
            AggState::Sum(v) => v.capacity() * 8,
            AggState::Count(v) => v.capacity() * 8,
            AggState::Avg { sum, count } => (sum.capacity() + count.capacity()) * 8,
            AggState::Min(c) | AggState::Max(c) => c.data_heap_bytes(),
        }
    }

    fn dict_bytes(&self) -> usize {
        match self {
            AggState::Min(c) | AggState::Max(c) => c.dict_bytes(),
            _ => 0,
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            AggState::Sum(v) => v.shrink_to_fit(),
            AggState::Count(v) => v.shrink_to_fit(),
            AggState::Avg { sum, count } => {
                sum.shrink_to_fit();
                count.shrink_to_fit();
            }
            AggState::Min(c) | AggState::Max(c) => c.shrink_to_fit(),
        }
    }
}

/// Add each input tuple's argument, as [`AggAccum::update`] reads it
/// (`Value::to_f64`, a string adding `0.0`), into its group's sum.
fn add_f64(sums: &mut [f64], arg: &Column, gid: &[u32]) {
    let groups = gid.iter().map(|&g| g as usize);
    match arg {
        Column::Int(v) => groups.zip(v).for_each(|(g, &x)| sums[g] += x as f64),
        Column::Float(v) => groups.zip(v).for_each(|(g, &x)| sums[g] += x),
        Column::Date(v) => groups.zip(v).for_each(|(g, &x)| sums[g] += f64::from(x)),
        Column::Str { .. } => groups.for_each(|g| sums[g] += 0.0),
    }
}

/// Which group each input tuple belongs to: `gid[i]` is tuple `i`'s arena
/// position, and `firsts` lists, in arena order, the tuple that opened each
/// group the fold added (so `firsts` ascends).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Grouping {
    pub gid: Vec<u32>,
    pub firsts: Vec<u32>,
}

/// A hash aggregate's table: group key → accumulator states, as columns.
#[derive(Debug, Clone)]
pub struct AggHt {
    index: ExtendibleHashTable<()>,
    /// One column per group-by attribute, each as long as the arena.
    groups: Vec<Column>,
    /// One state column (two for `AVG`) per aggregate expression.
    states: Vec<AggState>,
}

impl AggHt {
    /// An empty table over group keys of `group_types` and one aggregate
    /// per `(function, argument type)`. `tuple_width` is the logical width
    /// the cost model charges per group.
    pub fn new(tuple_width: usize, group_types: &[DataType], aggs: &[(AggFunc, DataType)]) -> Self {
        AggHt {
            index: ExtendibleHashTable::new(tuple_width),
            groups: group_types.iter().map(|&t| Column::new(t)).collect(),
            states: aggs.iter().map(|&(f, t)| AggState::new(f, t)).collect(),
        }
    }

    /// Reassemble a table from its index, group columns and states, or
    /// `None` when a column's length differs from the index's entry count.
    pub fn from_parts(
        index: ExtendibleHashTable<()>,
        groups: Vec<Column>,
        states: Vec<AggState>,
    ) -> Option<Self> {
        let n = index.len();
        let rectangular = groups.iter().all(|c| c.len() == n)
            && states.iter().all(|s| match s {
                AggState::Avg { sum, count } => sum.len() == n && count.len() == n,
                s => s.len() == n,
            });
        rectangular.then_some(AggHt {
            index,
            groups,
            states,
        })
    }

    /// The hash table over the group keys: directory, tags, chains, arena.
    pub fn index(&self) -> &ExtendibleHashTable<()> {
        &self.index
    }

    /// The group-key columns, in group-by order.
    pub fn groups(&self) -> &[Column] {
        &self.groups
    }

    /// The accumulator states, one per aggregate expression.
    pub fn states(&self) -> &[AggState] {
        &self.states
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table holds no groups.
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

    /// Logical footprint in bytes (the cost model's `htSize`).
    pub fn logical_bytes(&self) -> usize {
        self.index.logical_bytes()
    }

    /// Bytes of the string dictionaries (group keys and string extremes),
    /// which `logical_bytes` does not charge.
    pub fn dict_bytes(&self) -> usize {
        self.groups.iter().map(Column::dict_bytes).sum::<usize>()
            + self.states.iter().map(AggState::dict_bytes).sum::<usize>()
    }

    /// Actual heap footprint: the index, every column's data (spare
    /// capacity included) and the dictionaries.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
            + self
                .groups
                .iter()
                .map(Column::data_heap_bytes)
                .sum::<usize>()
            + self
                .states
                .iter()
                .map(AggState::data_heap_bytes)
                .sum::<usize>()
            + self.dict_bytes()
    }

    /// The group key of group `at`, as a row.
    pub fn group_row(&self, at: usize) -> Row {
        Row::new(self.groups.iter().map(|c| c.get(at)).collect())
    }

    /// The accumulator states of group `at`.
    pub fn accums(&self, at: usize) -> Vec<AggAccum> {
        self.states.iter().map(|s| s.accum(at)).collect()
    }

    /// Every `(key, group row, states)`, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Row, Vec<AggAccum>)> + '_ {
        self.index
            .keys()
            .enumerate()
            .map(|(at, k)| (k, self.group_row(at), self.accums(at)))
    }

    /// Fold `keys.len()` input tuples into the table and return how many
    /// groups they opened. Tuple `i` has hash key `keys[i]`, group key
    /// `groups[c][i]` in column `c` and, for aggregate `j`, argument
    /// `args[j][i]` (`None` for a `COUNT`, which reads none).
    ///
    /// Without a `grouping`, each tuple finds or opens its group through
    /// the table's index, in order: a new group opens at the end of the
    /// arena, its key chained in, as the row fold's `upsert_where` did.
    /// A `grouping` found elsewhere (the partitioned build, whose groups
    /// are all new) is installed instead: its groups' keys are chained in
    /// `firsts` order. Then every accumulator folds its tuples in input
    /// order. Inputs that do not fit the table are an error, and leave it
    /// untouched.
    pub fn fold(
        &mut self,
        keys: &[u64],
        groups: &[Column],
        args: &[Option<&Column>],
        grouping: Option<Grouping>,
    ) -> Result<u64> {
        let n = keys.len();
        let fits = groups.len() == self.groups.len()
            && groups
                .iter()
                .zip(&self.groups)
                .all(|(a, b)| a.data_type() == b.data_type() && a.len() == n)
            && args.len() == self.states.len()
            && self.states.iter().zip(args).all(|(s, a)| match (s, a) {
                (AggState::Count(_), _) => true,
                (AggState::Min(c) | AggState::Max(c), Some(a)) => {
                    c.data_type() == a.data_type() && a.len() == n
                }
                (_, a) => a.is_some_and(|a| a.len() == n),
            });
        if !fits {
            return Err(HsError::ExecError(
                "fold inputs do not match the aggregate table's columns".into(),
            ));
        }
        if grouping.is_some() && !self.is_empty() {
            return Err(HsError::ExecError(
                "a grouping found elsewhere folds into an empty table only".into(),
            ));
        }
        let grouping = match grouping {
            None => self.assign(keys, groups),
            Some(grouping) => {
                for &i in &grouping.firsts {
                    self.index.insert(keys[i as usize], ());
                }
                self.append_group_cells(groups, &grouping.firsts);
                grouping
            }
        };
        for (state, &arg) in self.states.iter_mut().zip(args) {
            // Checked above: neither step can fail.
            state.open(arg, &grouping.firsts);
            state.fold(arg, &grouping.gid);
        }
        Ok(grouping.firsts.len() as u64)
    }

    /// Find or open the group of every input tuple, in order, through the
    /// index (group cells of the types checked by the caller).
    fn assign(&mut self, keys: &[u64], groups: &[Column]) -> Grouping {
        let base = self.len();
        let mut gid = Vec::with_capacity(keys.len());
        let mut firsts: Vec<u32> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let table = &self.groups;
            let found = self
                .index
                .probe_positions(key)
                .find(|&at| match at.checked_sub(base) {
                    None => groups.iter().zip(table).all(|(g, t)| g.eq_at(i, t, at)),
                    Some(new) => {
                        let first = firsts[new] as usize;
                        groups.iter().all(|g| g.eq_at(i, g, first))
                    }
                });
            gid.push(match found {
                Some(at) => at as u32,
                None => {
                    firsts.push(i as u32);
                    self.index.insert(key, ());
                    (self.len() - 1) as u32
                }
            });
        }
        self.append_group_cells(groups, &firsts);
        Grouping { gid, firsts }
    }

    fn append_group_cells(&mut self, groups: &[Column], firsts: &[u32]) {
        for (col, src) in self.groups.iter_mut().zip(groups) {
            col.reserve_exact(firsts.len());
            // The types were checked: the append cannot fail.
            col.extend_from(src, firsts.iter().map(|&i| i as usize));
        }
    }

    /// Re-group the groups at `rows` (all, in arena order, when `None`) on
    /// the group columns `subset`, merging their states: a new table of
    /// width `tuple_width` whose groups open in first-occurrence order.
    /// Returns it with the number of groups it opened.
    pub fn regroup(
        &self,
        subset: &[usize],
        rows: Option<&[u32]>,
        tuple_width: usize,
    ) -> Result<(AggHt, u64)> {
        let all: Vec<u32>;
        let rows = match rows {
            Some(rows) => rows,
            None => {
                all = (0..self.len() as u32).collect();
                &all
            }
        };
        let groups: Vec<Column> = subset
            .iter()
            .map(|&c| {
                let src = &self.groups[c];
                let mut col = Column::new(src.data_type());
                col.extend_from(src, rows.iter().map(|&r| r as usize));
                col
            })
            .collect();
        let keys: Vec<u64> = (0..rows.len()).map(|i| group_key64(&groups, i)).collect();
        let mut out = AggHt {
            index: ExtendibleHashTable::new(tuple_width),
            groups: groups.iter().map(|c| Column::new(c.data_type())).collect(),
            states: self.states.iter().map(AggState::empty_like).collect(),
        };
        let grouping = out.assign(&keys, &groups);
        for (state, src) in out.states.iter_mut().zip(&self.states) {
            if !state.merge(src, rows, &grouping.gid, &grouping.firsts) {
                return Err(HsError::ExecError("mismatched aggregate states".into()));
            }
        }
        Ok((out, grouping.firsts.len() as u64))
    }

    /// Release spare capacity, so the heap holds what is charged.
    pub fn shrink_to_fit(&mut self) {
        self.index.shrink_to_fit();
        self.groups.iter_mut().for_each(Column::shrink_to_fit);
        self.states.iter_mut().for_each(AggState::shrink_to_fit);
    }
}

/// `Row::key64` of tuple `i` over all of `groups`.
fn group_key64(groups: &[Column], i: usize) -> u64 {
    match groups {
        [] => 0,
        [c] => c.key64(i),
        many => many
            .iter()
            .fold(KEY64_SEED, |h, c| key64_combine(h, c.key64(i))),
    }
}

/// Equal indexes ([`ExtendibleHashTable`]'s `==`: arena, depth, resizes and
/// width), equal group values and bitwise-equal states at every position.
impl PartialEq for AggHt {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.groups.len() == other.groups.len()
            && self
                .groups
                .iter()
                .zip(&other.groups)
                .all(|(a, b)| a.same_values(b))
            && self.states.len() == other.states.len()
            && self
                .states
                .iter()
                .zip(&other.states)
                .all(|(a, b)| a.same_bits(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_types::Value;

    fn ints(v: &[i64]) -> Column {
        Column::Int(v.to_vec())
    }

    fn strs(v: &[&str]) -> Column {
        let mut c = Column::new(DataType::Str);
        let values: Vec<Value> = v.iter().map(|s| Value::str(s)).collect();
        assert!(c.extend_values(&values));
        c
    }

    fn keys(groups: &[Column], n: usize) -> Vec<u64> {
        (0..n).map(|i| group_key64(groups, i)).collect()
    }

    /// Fold `(group, value)` pairs and compare with `AggAccum`'s fold.
    #[test]
    fn fold_matches_the_accumulators() {
        let g = strs(&["b", "a", "b", "c", "a", "b"]);
        let v = ints(&[5, -2, 9, 0, 7, 1]);
        let funcs = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let aggs: Vec<(AggFunc, DataType)> = funcs.iter().map(|&f| (f, DataType::Int)).collect();
        let mut t = AggHt::new(48, &[DataType::Str], &aggs);
        let groups = [g.clone()];
        let opened = t.fold(&keys(&groups, 6), &groups, &[Some(&v); 5], None);
        assert_eq!(opened.unwrap(), 3);

        let mut want: Vec<(Value, Vec<AggAccum>)> = Vec::new();
        for i in 0..6 {
            let (gv, x) = (g.get(i), v.get(i));
            let at = match want.iter().position(|(k, _)| *k == gv) {
                Some(at) => at,
                None => {
                    want.push((gv, funcs.iter().map(|&f| AggAccum::new(f)).collect()));
                    want.len() - 1
                }
            };
            want[at].1.iter_mut().for_each(|a| a.update(&x));
        }
        let got: Vec<(Value, Vec<AggAccum>)> = t
            .iter()
            .map(|(_, row, accums)| (row.get(0).clone(), accums))
            .collect();
        assert_eq!(got, want);
        let avg = t.states()[2].finalize(Some(&[0, 2]));
        assert_eq!(avg.as_float(), Some(&[5.0, 0.0][..]));
    }

    #[test]
    fn regroup_merges_in_arena_order() {
        let groups = [ints(&[1, 1, 2, 2]), ints(&[10, 20, 10, 30])];
        let aggs = [
            (AggFunc::Sum, DataType::Float),
            (AggFunc::Min, DataType::Float),
        ];
        let mut t = AggHt::new(24, &[DataType::Int, DataType::Int], &aggs);
        let v = Column::Float(vec![0.5, -0.0, 2.0, f64::NAN]);
        t.fold(&keys(&groups, 4), &groups, &[Some(&v), Some(&v)], None)
            .unwrap();
        let (by_second, opened) = t.regroup(&[1], Some(&[0, 1, 2]), 24).unwrap();
        assert_eq!(opened, 2);
        assert_eq!(by_second.groups()[0].as_int(), Some(&[10, 20][..]));
        let AggState::Sum(s) = &by_second.states()[0] else {
            panic!("a sum")
        };
        assert_eq!(s, &[2.5, 0.0]);
        // The copied first state keeps its bits: MIN(-0.0) stays -0.0.
        let AggState::Min(Column::Float(m)) = &by_second.states()[1] else {
            panic!("a float minimum")
        };
        assert_eq!(m[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn mismatched_inputs_are_errors() {
        let mut t = AggHt::new(16, &[DataType::Int], &[(AggFunc::Min, DataType::Int)]);
        let v = ints(&[4]);
        assert!(t.fold(&[1], &[strs(&["x"])], &[Some(&v)], None).is_err());
        let groups = [ints(&[1])];
        let floats = Column::Float(vec![1.0]);
        assert!(t.fold(&[1], &groups, &[Some(&floats)], None).is_err());
        assert!(t.fold(&[1], &groups, &[None], None).is_err());
        assert!(t.is_empty(), "a rejected fold leaves the table as it was");
        assert_eq!(t.fold(&[1], &groups, &[Some(&v)], None).unwrap(), 1);
    }
}
