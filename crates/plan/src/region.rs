//! Predicate boxes, regions (unions of disjoint boxes) and the reuse-case
//! classifier.
//!
//! A **box** is a conjunction of per-attribute intervals — the normal form
//! of the selection predicates in the paper's workloads (zoom/shift/drill
//! interactions mutate range predicates). A **region** is a finite union of
//! pairwise-disjoint boxes; regions arise when a cached hash table absorbs
//! missing tuples under partial reuse (its lineage predicate becomes
//! `C ∪ (R \ C)`).
//!
//! All reuse decisions reduce to region algebra (paper §3.3):
//!
//! | case        | condition                 | rewrite                       |
//! |-------------|---------------------------|-------------------------------|
//! | exact       | `R = C`                   | replace sub-plan by HT        |
//! | subsuming   | `R ⊂ C`                   | post-filter σ_R               |
//! | partial     | `C ⊂ R`                   | add `R \ C` from base tables  |
//! | overlapping | `R ∩ C ≠ ∅`, incomparable | post-filter + add `R \ C`     |

use std::collections::BTreeMap;
use std::sync::Arc;

use hashstash_types::Value;

use crate::interval::Interval;

/// A conjunction of per-attribute intervals. Attributes are qualified
/// (`lineitem.l_shipdate`); an absent attribute is unconstrained.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PredBox {
    intervals: BTreeMap<Arc<str>, Interval>,
}

impl PredBox {
    /// The unconstrained box (`TRUE`).
    pub fn all() -> Self {
        PredBox::default()
    }

    /// Add (AND) a constraint on `attr`. Intersects with any existing
    /// constraint on the same attribute.
    pub fn with(mut self, attr: impl Into<Arc<str>>, interval: Interval) -> Self {
        self.constrain(attr, interval);
        self
    }

    /// In-place version of [`with`](Self::with).
    pub fn constrain(&mut self, attr: impl Into<Arc<str>>, interval: Interval) {
        let attr = attr.into();
        let merged = match self.intervals.get(&attr) {
            Some(existing) => existing.intersect(&interval),
            None => interval,
        };
        if merged.is_all() {
            self.intervals.remove(&attr);
        } else {
            self.intervals.insert(attr, merged);
        }
    }

    /// The constraint on `attr` (unconstrained attributes report `all`).
    pub fn interval(&self, attr: &str) -> Interval {
        self.intervals
            .get(attr)
            .cloned()
            .unwrap_or_else(Interval::all)
    }

    /// Iterate over the explicitly constrained attributes.
    pub fn constrained(&self) -> impl Iterator<Item = (&Arc<str>, &Interval)> {
        self.intervals.iter()
    }

    /// Attribute names with explicit constraints.
    pub fn attrs(&self) -> Vec<Arc<str>> {
        self.intervals.keys().cloned().collect()
    }

    /// Whether the box denotes the empty set.
    pub fn is_empty(&self) -> bool {
        self.intervals.values().any(Interval::is_empty)
    }

    /// Whether the box is unconstrained.
    pub fn is_all(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether a row, described as attribute→value bindings, satisfies the
    /// box. Attributes missing from the binding are treated as satisfying
    /// (they carry no constraint relevant to the caller's projection).
    pub fn matches(&self, lookup: impl Fn(&str) -> Option<Value>) -> bool {
        self.intervals.iter().all(|(attr, iv)| match lookup(attr) {
            Some(v) => iv.contains_value(&v),
            None => true,
        })
    }

    /// Conjunction of two boxes.
    pub fn intersect(&self, other: &PredBox) -> PredBox {
        let mut out = self.clone();
        for (attr, iv) in &other.intervals {
            out.constrain(attr.clone(), iv.clone());
        }
        out
    }

    /// Whether `self ⊆ other` (every value combination satisfying `self`
    /// satisfies `other`).
    pub fn is_subset(&self, other: &PredBox) -> bool {
        if self.is_empty() {
            return true;
        }
        other
            .intervals
            .iter()
            .all(|(attr, o_iv)| self.interval(attr).is_subset(o_iv))
    }

    /// Whether the two boxes share at least one point: both are non-empty
    /// and every attribute both constrain keeps a non-empty intersection.
    /// (Without building the intersection box.)
    pub fn intersects(&self, other: &PredBox) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && other.intervals.iter().all(|(attr, o_iv)| {
                self.intervals
                    .get(attr)
                    .is_none_or(|iv| !iv.intersect(o_iv).is_empty())
            })
    }

    /// `self \ other` as a set of pairwise-disjoint boxes.
    ///
    /// Standard axis-sweep decomposition: for each attribute constrained by
    /// `other`, emit the part of the current residue lying outside `other`'s
    /// interval on that axis, then clamp the residue to the intersection and
    /// continue with the next axis.
    pub fn difference(&self, other: &PredBox) -> Vec<PredBox> {
        if self.is_empty() {
            return Vec::new();
        }
        if !self.intersects(other) {
            return vec![self.clone()];
        }
        let mut pieces = Vec::new();
        let mut residue = self.clone();
        for (attr, c_iv) in &other.intervals {
            let r_iv = residue.interval(attr);
            for outside in r_iv.difference(c_iv) {
                let mut piece = residue.clone();
                piece.intervals.insert(attr.clone(), outside);
                if !piece.is_empty() {
                    pieces.push(piece);
                }
            }
            let clamped = r_iv.intersect(c_iv);
            residue.intervals.insert(attr.clone(), clamped);
        }
        pieces
    }

    /// Restrict the box to attributes belonging to the given table
    /// (attributes are qualified as `table.column`).
    pub fn project_table(&self, table: &str) -> PredBox {
        PredBox {
            intervals: self
                .intervals
                .iter()
                .filter(|(attr, _)| crate::is_attr_of(attr, table))
                .map(|(a, i)| (a.clone(), i.clone()))
                .collect(),
        }
    }
}

impl std::fmt::Display for PredBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.intervals.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, (attr, iv)) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{attr} IN {iv}")?;
        }
        Ok(())
    }
}

/// A finite union of pairwise-disjoint predicate boxes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Region {
    boxes: Vec<PredBox>,
}

impl Region {
    /// The empty region.
    pub fn empty() -> Self {
        Region::default()
    }

    /// The unconstrained region.
    pub fn all() -> Self {
        Region {
            boxes: vec![PredBox::all()],
        }
    }

    /// A region consisting of one box (drops empty boxes).
    pub fn from_box(b: PredBox) -> Self {
        if b.is_empty() {
            Region::empty()
        } else {
            Region { boxes: vec![b] }
        }
    }

    /// The disjoint boxes of the region.
    pub fn boxes(&self) -> &[PredBox] {
        &self.boxes
    }

    /// Whether the region denotes the empty set.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Whether a row satisfies the region (disjunction over boxes).
    pub fn matches(&self, lookup: impl Fn(&str) -> Option<Value> + Copy) -> bool {
        self.boxes.iter().any(|b| b.matches(lookup))
    }

    /// `self \ other`.
    pub fn difference(&self, other: &Region) -> Region {
        let mut current: Vec<PredBox> = self.boxes.clone();
        for c in &other.boxes {
            let mut next = Vec::new();
            for r in current {
                next.extend(r.difference(c));
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        Region { boxes: current }
    }

    /// Whether `self ⊆ other`. Exact: `A ⊆ B ⇔ A \ B = ∅`.
    pub fn is_subset(&self, other: &Region) -> bool {
        self.difference(other).is_empty()
    }

    /// Whether the regions denote the same set.
    pub fn set_eq(&self, other: &Region) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Whether the regions are disjoint: neither is empty and no box of one
    /// meets a box of the other. This is `ReuseCase::classify(self, other)
    /// == ReuseCase::Disjoint`, decided without allocating.
    pub fn is_disjoint(&self, other: &Region) -> bool {
        let has_point = |r: &Region| r.boxes.iter().any(|b| !b.is_empty());
        has_point(self) && has_point(other) && !self.intersects(other)
    }

    /// Whether the regions share at least one point.
    pub fn intersects(&self, other: &Region) -> bool {
        self.boxes
            .iter()
            .any(|a| other.boxes.iter().any(|b| a.intersects(b)))
    }

    /// `self ∪ other`, preserving the disjointness invariant by storing
    /// `other ∪ (self \ other)`, then coalescing touching boxes so lineage
    /// regions stay compact across long sessions of partial reuses.
    pub fn union(&self, other: &Region) -> Region {
        let mut boxes = other.boxes.clone();
        boxes.extend(self.difference(other).boxes);
        Region { boxes }.coalesced()
    }

    /// Merge pairs of boxes that differ in at most one attribute whose
    /// intervals overlap or touch. Preserves the denoted set and the
    /// disjointness invariant while shrinking the representation (e.g. 64
    /// consecutive zoom/shift deltas collapse back to one box).
    pub fn coalesced(mut self) -> Region {
        loop {
            let n = self.boxes.len();
            let mut merged_any = false;
            'outer: for i in 0..n {
                for j in i + 1..n {
                    if let Some(m) = merge_boxes(&self.boxes[i], &self.boxes[j]) {
                        self.boxes.swap_remove(j);
                        self.boxes[i] = m;
                        merged_any = true;
                        break 'outer;
                    }
                }
            }
            if !merged_any {
                return self;
            }
        }
    }

    /// `self ∩ other` as a region.
    pub fn intersect(&self, other: &Region) -> Region {
        let mut boxes = Vec::new();
        for a in &self.boxes {
            for b in &other.boxes {
                let c = a.intersect(b);
                if !c.is_empty() {
                    boxes.push(c);
                }
            }
        }
        // Boxes of `self` are disjoint and boxes of `other` are disjoint, so
        // the pairwise intersections are disjoint as well.
        Region { boxes }
    }

    /// All attributes constrained anywhere in the region.
    pub fn attrs(&self) -> Vec<Arc<str>> {
        let mut attrs: Vec<Arc<str>> = self.boxes.iter().flat_map(|b| b.attrs()).collect();
        attrs.sort();
        attrs.dedup();
        attrs
    }

    /// The region restricted to the attributes of one table: a superset of
    /// the tuples of `table` that can take part in a row of `self`.
    pub fn project_table(&self, table: &str) -> Region {
        self.boxes.iter().fold(Region::empty(), |acc, b| {
            acc.union(&Region::from_box(b.project_table(table)))
        })
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.boxes.is_empty() {
            return write!(f, "FALSE");
        }
        for (i, b) in self.boxes.iter().enumerate() {
            if i > 0 {
                write!(f, " OR ")?;
            }
            write!(f, "({b})")?;
        }
        Ok(())
    }
}

/// Merge two boxes when they differ in at most one attribute and the two
/// intervals on that attribute overlap or touch.
fn merge_boxes(a: &PredBox, b: &PredBox) -> Option<PredBox> {
    // Collect the attributes constrained by either box.
    let mut attrs: Vec<Arc<str>> = a.attrs();
    for x in b.attrs() {
        if !attrs.contains(&x) {
            attrs.push(x);
        }
    }
    let mut differing: Option<Arc<str>> = None;
    for attr in &attrs {
        if a.interval(attr) != b.interval(attr) {
            if differing.is_some() {
                return None; // differs in 2+ attributes
            }
            differing = Some(attr.clone());
        }
    }
    match differing {
        None => Some(a.clone()), // identical boxes
        Some(attr) => {
            let merged = a.interval(&attr).merge_touching(&b.interval(&attr))?;
            let mut out = a.clone();
            // Rebuild with the merged interval (replace, not intersect).
            let mut intervals: BTreeMap<Arc<str>, Interval> = BTreeMap::new();
            for (k, v) in out.constrained() {
                intervals.insert(k.clone(), v.clone());
            }
            intervals.insert(attr, merged);
            out = PredBox::all();
            for (k, v) in intervals {
                if !v.is_all() {
                    out = out.with(k, v);
                }
            }
            Some(out)
        }
    }
}

/// The paper's four reuse cases, plus `Disjoint` for "no usable overlap".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseCase {
    /// `R = C`: replace the sub-plan with the cached hash table.
    Exact,
    /// `R ⊂ C`: reuse with a post-filter removing false positives.
    Subsuming,
    /// `C ⊂ R`: reuse and add the missing tuples (`R \ C`) from base tables.
    Partial,
    /// Overlap without containment: post-filter *and* add missing tuples.
    Overlapping,
    /// No common tuples — reuse cannot help.
    Disjoint,
}

impl ReuseCase {
    /// Classify how a cached region `c` can serve a requested region `r`.
    pub fn classify(r: &Region, c: &Region) -> ReuseCase {
        let r_in_c = r.is_subset(c);
        let c_in_r = c.is_subset(r);
        match (r_in_c, c_in_r) {
            (true, true) => ReuseCase::Exact,
            (true, false) => ReuseCase::Subsuming,
            (false, true) => ReuseCase::Partial,
            (false, false) => {
                if r.intersects(c) {
                    ReuseCase::Overlapping
                } else {
                    ReuseCase::Disjoint
                }
            }
        }
    }

    /// Whether this case requires a post-filter on probe/output
    /// (false positives present in the cached table).
    pub fn needs_post_filter(self) -> bool {
        matches!(self, ReuseCase::Subsuming | ReuseCase::Overlapping)
    }

    /// Whether this case requires adding missing tuples from base tables.
    pub fn needs_delta(self) -> bool {
        matches!(self, ReuseCase::Partial | ReuseCase::Overlapping)
    }
}

impl std::fmt::Display for ReuseCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReuseCase::Exact => "exact",
            ReuseCase::Subsuming => "subsuming",
            ReuseCase::Partial => "partial",
            ReuseCase::Overlapping => "overlapping",
            ReuseCase::Disjoint => "disjoint",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn date_box(attr: &str, lo: i32, hi: i32) -> PredBox {
        PredBox::all().with(attr, Interval::closed(Value::Date(lo), Value::Date(hi)))
    }

    #[test]
    fn constrain_intersects_existing() {
        let b = PredBox::all()
            .with("t.a", Interval::closed(Value::Int(0), Value::Int(10)))
            .with("t.a", Interval::closed(Value::Int(5), Value::Int(20)));
        assert_eq!(
            b.interval("t.a"),
            Interval::closed(Value::Int(5), Value::Int(10))
        );
    }

    #[test]
    fn box_subset_and_intersect() {
        let wide = date_box("l.d", 0, 100);
        let narrow = date_box("l.d", 10, 20);
        assert!(narrow.is_subset(&wide));
        assert!(!wide.is_subset(&narrow));
        assert!(wide.intersects(&narrow));
        let disjoint = date_box("l.d", 200, 300);
        assert!(!wide.intersects(&disjoint));
        // Unconstrained attr is NOT a subset of a constrained one.
        let other_attr = date_box("l.x", 0, 10);
        assert!(!wide.is_subset(&other_attr));
        assert!(
            wide.intersects(&other_attr),
            "different attrs still overlap"
        );
    }

    #[test]
    fn box_difference_single_attr() {
        let r = date_box("l.d", 0, 100);
        let c = date_box("l.d", 30, 60);
        let delta = r.difference(&c);
        assert_eq!(delta.len(), 2);
        assert_eq!(
            delta[0].interval("l.d"),
            Interval::closed(Value::Date(0), Value::Date(29))
        );
        assert_eq!(
            delta[1].interval("l.d"),
            Interval::closed(Value::Date(61), Value::Date(100))
        );
    }

    #[test]
    fn box_difference_two_attrs_disjoint_pieces() {
        let r = date_box("t.x", 0, 9).intersect(&date_box("t.y", 0, 9));
        let c = date_box("t.x", 5, 9).intersect(&date_box("t.y", 5, 9));
        let delta = r.difference(&c);
        // Pieces must be pairwise disjoint and tile r \ c.
        for i in 0..delta.len() {
            for j in i + 1..delta.len() {
                assert!(!delta[i].intersects(&delta[j]), "pieces overlap");
            }
        }
        // Count lattice points: |r| = 100, |c∩r| = 25 ⇒ delta covers 75.
        let count = |b: &PredBox| -> usize {
            let mut n = 0;
            for x in 0..10 {
                for y in 0..10 {
                    let lookup = |attr: &str| -> Option<Value> {
                        match attr {
                            "t.x" => Some(Value::Date(x)),
                            "t.y" => Some(Value::Date(y)),
                            _ => None,
                        }
                    };
                    if b.matches(lookup) {
                        n += 1;
                    }
                }
            }
            n
        };
        let total: usize = delta.iter().map(count).sum();
        assert_eq!(total, 75);
    }

    #[test]
    fn region_subset_union_difference() {
        let r1 = Region::from_box(date_box("l.d", 0, 50));
        let r2 = Region::from_box(date_box("l.d", 0, 100));
        assert!(r1.is_subset(&r2));
        assert!(!r2.is_subset(&r1));
        let u = r1.union(&r2);
        assert!(u.set_eq(&r2));
        let d = r2.difference(&r1);
        assert!(d.set_eq(&Region::from_box(date_box("l.d", 51, 100))));
    }

    #[test]
    fn region_union_keeps_disjoint_boxes() {
        let a = Region::from_box(date_box("l.d", 0, 50));
        let b = Region::from_box(date_box("l.d", 30, 80));
        let u = a.union(&b);
        for i in 0..u.boxes().len() {
            for j in i + 1..u.boxes().len() {
                assert!(!u.boxes()[i].intersects(&u.boxes()[j]));
            }
        }
        assert!(u.set_eq(&Region::from_box(date_box("l.d", 0, 80))));
    }

    #[test]
    fn reuse_case_classification() {
        let r = Region::from_box(date_box("l.d", 10, 20));
        let exact = Region::from_box(date_box("l.d", 10, 20));
        let subsuming = Region::from_box(date_box("l.d", 0, 100));
        let partial = Region::from_box(date_box("l.d", 12, 15));
        let overlapping = Region::from_box(date_box("l.d", 15, 40));
        let disjoint = Region::from_box(date_box("l.d", 50, 60));
        assert_eq!(ReuseCase::classify(&r, &exact), ReuseCase::Exact);
        assert_eq!(ReuseCase::classify(&r, &subsuming), ReuseCase::Subsuming);
        assert_eq!(ReuseCase::classify(&r, &partial), ReuseCase::Partial);
        assert_eq!(
            ReuseCase::classify(&r, &overlapping),
            ReuseCase::Overlapping
        );
        assert_eq!(ReuseCase::classify(&r, &disjoint), ReuseCase::Disjoint);
    }

    #[test]
    fn reuse_case_flags() {
        assert!(!ReuseCase::Exact.needs_post_filter());
        assert!(!ReuseCase::Exact.needs_delta());
        assert!(ReuseCase::Subsuming.needs_post_filter());
        assert!(!ReuseCase::Subsuming.needs_delta());
        assert!(!ReuseCase::Partial.needs_post_filter());
        assert!(ReuseCase::Partial.needs_delta());
        assert!(ReuseCase::Overlapping.needs_post_filter());
        assert!(ReuseCase::Overlapping.needs_delta());
    }

    #[test]
    fn paper_figure2_scenario() {
        // Q1 caches lineitems shipped after 2015-02-01; Q2 wants after
        // 2015-01-01 ⇒ partial reuse with a one-month delta.
        let feb = hashstash_types::date::parse_date("2015-02-01").unwrap();
        let jan = hashstash_types::date::parse_date("2015-01-01").unwrap();
        let c = Region::from_box(PredBox::all().with(
            "lineitem.l_shipdate",
            Interval::greater_than(Value::Date(feb)),
        ));
        let r = Region::from_box(PredBox::all().with(
            "lineitem.l_shipdate",
            Interval::greater_than(Value::Date(jan)),
        ));
        assert_eq!(ReuseCase::classify(&r, &c), ReuseCase::Partial);
        let delta = r.difference(&c);
        assert_eq!(delta.boxes().len(), 1);
        let iv = delta.boxes()[0].interval("lineitem.l_shipdate");
        assert_eq!(iv, Interval::closed(Value::Date(jan + 1), Value::Date(feb)));
    }

    #[test]
    fn project_table_filters_attrs() {
        let b =
            date_box("lineitem.l_shipdate", 0, 10).intersect(&date_box("orders.o_orderdate", 5, 6));
        let p = b.project_table("lineitem");
        assert_eq!(p.attrs().len(), 1);
        assert_eq!(p.attrs()[0].as_ref(), "lineitem.l_shipdate");
    }

    #[test]
    fn region_matches_rows() {
        let r = Region::from_box(date_box("t.d", 0, 10))
            .union(&Region::from_box(date_box("t.d", 20, 30)));
        let probe = |d: i32| r.matches(|attr| (attr == "t.d").then_some(Value::Date(d)));
        assert!(probe(5));
        assert!(!probe(15));
        assert!(probe(25));
    }

    #[test]
    fn empty_and_all_regions() {
        assert!(Region::empty().is_empty());
        assert!(Region::all().is_subset(&Region::all()));
        assert!(Region::empty().is_subset(&Region::empty()));
        assert!(Region::empty().is_subset(&Region::all()));
        assert!(!Region::all().is_subset(&Region::empty()));
        assert!(Region::from_box(date_box("x", 5, 4)).is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PredBox::all().to_string(), "TRUE");
        assert_eq!(Region::empty().to_string(), "FALSE");
        let b = date_box("t.d", 0, 1);
        assert!(b.to_string().contains("t.d IN"));
    }
}
