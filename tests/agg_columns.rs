//! Aggregate tables as typed columns: the typed fold against a row fold.
//!
//! A hash aggregate folds its input into an `AggHt` — the key index, the
//! group-key columns and one state column per accumulator — through typed
//! kernels over columns gathered once per source. This battery holds it to
//! the plain definition: a `BTreeMap` fold over the input's rows, one
//! `AggAccum` per aggregate, groups in first-occurrence order.
//!
//! Inputs are a scan's batch (dense, or a selection), the same scan's rows
//! (the row arm) and a join chain; group keys are an `Int`, `Float` (with
//! `NaN`, `-0.0` and `+0.0`), `Date` or `Str` column beside a small `Int`
//! one; every function folds an argument of a drawn type; inputs hold
//! 0–10 000 tuples, so the partitioned build runs too. At one, two and four
//! workers the published table's groups, arena order, keys and state bits
//! equal the reference fold, and the fresh, exact, subsuming and
//! post-group-by outputs equal it finalized.
//!
//! Case count: `PROPTEST_CASES` (CI raises it in a release run).

use std::collections::BTreeMap;
use std::sync::Arc;

use hashstash_cache::{AggAccum, HtManager, StoredHt};
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{execute, ExecContext, WorkerPool};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, PredBox, Region, ReuseCase,
};
use hashstash_storage::{Catalog, Column, Table};
use hashstash_types::{DataType, Field, Row, Schema, Value};
use proptest::prelude::*;

/// SplitMix64: the test's deterministic choices.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const FLOATS: [f64; 6] = [0.0, -0.0, f64::NAN, 1.5, -2.25, 1e300];
const WORDS: [&str; 5] = ["oak", "", "ash", "Fir", "birch"];

/// A column of `dtype` with `n` values drawn from `domain` distinct ones.
fn column(dtype: DataType, n: usize, domain: u64, seed: u64) -> Column {
    let pick = |i: usize| mix(seed ^ (i as u64).wrapping_mul(0x9E37)) % domain.max(1);
    match dtype {
        DataType::Int => Column::Int((0..n).map(|i| pick(i) as i64 - 3).collect()),
        DataType::Float => Column::Float(
            (0..n)
                .map(|i| {
                    let p = pick(i);
                    FLOATS[p as usize % FLOATS.len()] * (1 + p / 6) as f64
                })
                .collect(),
        ),
        DataType::Date => Column::Date((0..n).map(|i| 9000 - pick(i) as i32).collect()),
        DataType::Str => {
            let mut c = Column::new(DataType::Str);
            let cells: Vec<Value> = (0..n)
                .map(|i| {
                    let p = pick(i) as usize;
                    Value::str(&format!("{}{}", WORDS[p % WORDS.len()], p / WORDS.len()))
                })
                .collect();
            assert!(c.extend_values(&cells));
            c
        }
    }
}

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Date,
    DataType::Str,
];
const FUNCS: [AggFunc; 5] = [
    AggFunc::Sum,
    AggFunc::Count,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

/// One drawn case.
#[derive(Debug, Clone)]
struct Case {
    rows: usize,
    /// Type and domain of the group key `t.g` (beside `t.h` in `0..3`).
    key: (DataType, u64),
    /// Per function of [`FUNCS`], the type of its argument.
    args: [DataType; 5],
    /// How the fold reads its input.
    input: Source,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    /// An unfiltered scan: the dense range.
    Dense,
    /// A scan under `t.h <= 1`: a selection.
    Selection,
    /// The scan's rows, through the row arm.
    Rows,
    /// `t ⋈ u` on `t.j = u.j`: a join chain.
    Chain,
}

fn cases() -> impl Strategy<Value = Case> {
    let rows = prop_oneof![0usize..40, 40usize..1500, 3000usize..10_001];
    let key = (0usize..4, prop_oneof![1u64..4, 4u64..60, 60u64..3000]);
    let args = (0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4);
    let input = prop_oneof![
        Just(Source::Dense),
        Just(Source::Selection),
        Just(Source::Rows),
        Just(Source::Chain),
    ];
    (rows, key, args, input, any::<u64>()).prop_map(|(rows, (k, domain), a, input, seed)| Case {
        rows,
        key: (TYPES[k], domain),
        args: [TYPES[a.0], TYPES[a.1], TYPES[a.2], TYPES[a.3], TYPES[a.4]],
        input,
        seed,
    })
}

/// `t(g, h, j, a0..a4)` and `u(j, w)`: every `t.j` in `0..rows/2 + 1`, and
/// `u` holding each `j` once, some twice, some not at all.
fn catalog(case: &Case) -> Catalog {
    let n = case.rows;
    let (ktype, domain) = case.key;
    let mut fields = vec![
        Field::new("g", ktype),
        Field::new("h", DataType::Int),
        Field::new("j", DataType::Int),
    ];
    let mut columns = vec![
        column(ktype, n, domain, case.seed),
        Column::Int(
            (0..n)
                .map(|i| (mix(case.seed ^ i as u64) % 3) as i64)
                .collect(),
        ),
        Column::Int(
            (0..n)
                .map(|i| (mix(!case.seed ^ i as u64) % (n as u64 / 2 + 1)) as i64)
                .collect(),
        ),
    ];
    for (f, &dtype) in case.args.iter().enumerate() {
        fields.push(Field::new(format!("a{f}"), dtype));
        columns.push(column(dtype, n, 40, case.seed.rotate_left(f as u32 + 7)));
    }
    let t = Table::from_parts("t", Schema::new(fields), columns, &[]).unwrap();
    let js: Vec<i64> = (0..=(n as i64) / 2)
        .flat_map(|j| match mix(case.seed ^ j as u64 ^ 0xF00D) % 4 {
            0 => vec![],
            1 => vec![j, j],
            _ => vec![j],
        })
        .collect();
    let w = Column::Int((0..js.len() as i64).collect());
    let u_schema = Schema::new(vec![
        Field::new("j", DataType::Int),
        Field::new("w", DataType::Int),
    ]);
    let u = Table::from_parts("u", u_schema, vec![Column::Int(js), w], &[]).unwrap();
    let mut cat = Catalog::new();
    cat.register(t);
    cat.register(u);
    cat
}

fn aggs() -> Vec<AggExpr> {
    FUNCS
        .iter()
        .enumerate()
        .map(|(f, &func)| AggExpr::new(func, format!("t.a{f}").as_str()))
        .collect()
}

/// Every aggregate directly, then `AVG` rebuilt from `SUM` and `COUNT`.
fn outputs() -> Vec<OutputAgg> {
    let mut out: Vec<OutputAgg> = (0..FUNCS.len()).map(OutputAgg::Direct).collect();
    out.push(OutputAgg::AvgOf {
        sum_idx: 0,
        count_idx: 1,
    });
    out
}

const GROUP_BY: [&str; 2] = ["t.g", "t.h"];

fn region(case: &Case) -> Region {
    match case.input {
        Source::Selection => Region::from_box(
            PredBox::all().with("t.h", Interval::closed(Value::Int(0), Value::Int(1))),
        ),
        _ => Region::all(),
    }
}

/// The aggregate's input plan.
fn input(case: &Case) -> PhysicalPlan {
    let scan = PhysicalPlan::Scan(ScanSpec {
        table: "t".into(),
        region: region(case),
        projection: vec![],
    });
    match case.input {
        Source::Chain => PhysicalPlan::HashJoin {
            probe: Box::new(scan),
            build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("u")))),
            probe_key: "t.j".into(),
            build_key: "u.j".into(),
            reuse: None,
            publish: None,
        },
        _ => scan,
    }
}

fn fingerprint(case: &Case) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::Aggregate,
        tables: std::iter::once(Arc::from("t")).collect(),
        edges: vec![],
        region: region(case),
        key_attrs: GROUP_BY.iter().map(|&g| Arc::from(g)).collect(),
        payload_attrs: GROUP_BY.iter().map(|&g| Arc::from(g)).collect(),
        aggregates: aggs(),
    }
}

fn aggregate(
    input: Option<PhysicalPlan>,
    reuse: Option<ReuseSpec>,
    publish: Option<HtFingerprint>,
    post_group_by: Option<&str>,
) -> PhysicalPlan {
    PhysicalPlan::HashAggregate {
        input: input.map(Box::new),
        group_by: GROUP_BY.iter().map(|&g| Arc::from(g)).collect(),
        aggs: aggs(),
        output_aggs: outputs(),
        reuse,
        publish,
        post_group_by: post_group_by.map(|g| vec![Arc::from(g)]),
    }
}

/// The reference fold: groups in first-occurrence order, each with its
/// group row and one `AggAccum` per aggregate, folded in input order.
fn reference_fold(rows: &[Row], group: &[usize], args: &[usize]) -> Vec<(Row, Vec<AggAccum>)> {
    let mut at: BTreeMap<Row, usize> = BTreeMap::new();
    let mut groups: Vec<(Row, Vec<AggAccum>)> = Vec::new();
    for row in rows {
        let key = row.project(group);
        let g = *at.entry(key.clone()).or_insert_with(|| {
            groups.push((key, FUNCS.iter().map(|&f| AggAccum::new(f)).collect()));
            groups.len() - 1
        });
        for (accum, &a) in groups[g].1.iter_mut().zip(args) {
            accum.update(row.get(a));
        }
    }
    groups
}

/// Re-group `groups` on their column `keep`, merging states in order.
fn reference_regroup(groups: &[(Row, Vec<AggAccum>)], keep: usize) -> Vec<(Row, Vec<AggAccum>)> {
    let mut at: BTreeMap<Row, usize> = BTreeMap::new();
    let mut out: Vec<(Row, Vec<AggAccum>)> = Vec::new();
    for (row, accums) in groups {
        let key = row.project(&[keep]);
        match at.get(&key) {
            Some(&g) => out[g]
                .1
                .iter_mut()
                .zip(accums)
                .for_each(|(a, b)| a.merge(b)),
            None => {
                at.insert(key.clone(), out.len());
                out.push((key, accums.clone()));
            }
        }
    }
    out
}

/// The output rows of finalized groups, as the aggregate emits them.
fn finalized(groups: &[(Row, Vec<AggAccum>)]) -> Vec<Row> {
    groups
        .iter()
        .map(|(row, accums)| {
            let mut values = row.values().to_vec();
            values.extend(accums.iter().map(AggAccum::finalize));
            let sum = accums[0].finalize().to_f64().unwrap_or(0.0);
            let count = accums[1].finalize().to_f64().unwrap_or(0.0);
            values.push(Value::float(if count == 0.0 { 0.0 } else { sum / count }));
            Row::new(values)
        })
        .collect()
}

/// A value's bits: floats compare by representation, not by `==`.
fn bits(v: &Value) -> (u8, u64, Option<Arc<str>>) {
    match v {
        Value::Int(x) => (0, *x as u64, None),
        Value::Float(f) => (1, f.0.to_bits(), None),
        Value::Date(d) => (2, *d as u64, None),
        Value::Str(s) => (3, 0, Some(s.clone())),
    }
}

fn row_bits(row: &Row) -> Vec<(u8, u64, Option<Arc<str>>)> {
    row.values().iter().map(bits).collect()
}

fn accum_bits(a: &AggAccum) -> Vec<(u8, u64, Option<Arc<str>>)> {
    match a {
        AggAccum::Sum(s) => vec![bits(&Value::float(*s))],
        AggAccum::Count(c) => vec![bits(&Value::Int(*c))],
        AggAccum::Avg { sum, count } => vec![bits(&Value::float(*sum)), bits(&Value::Int(*count))],
        AggAccum::Min(v) | AggAccum::Max(v) => v.iter().map(bits).collect(),
    }
}

fn same_rows(got: &[Row], want: &[Row], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(row_bits(g), row_bits(w), "{what}: row {i}");
    }
}

fn check(case: &Case) {
    let cat = catalog(case);
    let fp = fingerprint(case);
    let mut tables = Vec::new();
    for workers in [1, 2, 4] {
        let htm = HtManager::unbounded();
        let pool = WorkerPool::new(workers - 1);
        let context = || {
            let ctx = ExecContext::new(&cat, &htm)
                .with_parallelism(workers)
                .with_pool(&pool);
            if case.input == Source::Rows {
                ctx.with_row_oracle()
            } else {
                ctx
            }
        };
        let what = format!("{case:?} at {workers} workers");

        // The input the fold reads, in its order, and the reference fold.
        let mut in_ctx = context();
        let (in_schema, in_rows) = execute(&input(case), &mut in_ctx).unwrap();
        let joined = in_ctx.metrics;
        let in_rows = in_rows.into_vec();
        let group: Vec<usize> = GROUP_BY
            .iter()
            .map(|g| in_schema.index_of(g).unwrap())
            .collect();
        let args: Vec<usize> = (0..FUNCS.len())
            .map(|f| in_schema.index_of(&format!("t.a{f}")).unwrap())
            .collect();
        let want = reference_fold(&in_rows, &group, &args);

        // Fresh: fold, publish, emit.
        let fresh = aggregate(Some(input(case)), None, Some(fp.clone()), None);
        let mut ctx = context();
        let (_, rows) = execute(&fresh, &mut ctx).unwrap();
        // Beside the join build's inserts, one insert per group and one
        // update per other tuple.
        let inserts = ctx.metrics.ht_inserts - joined.ht_inserts;
        let updates = ctx.metrics.ht_updates - joined.ht_updates;
        assert_eq!(inserts, want.len() as u64, "{what}: inserts");
        assert_eq!(
            updates,
            (in_rows.len() - want.len()) as u64,
            "{what}: updates"
        );
        same_rows(&rows, &finalized(&want), &format!("{what}, fresh"));

        // The published table: groups, arena order, keys and state bits.
        let cand = htm.candidates(&fp).remove(0);
        let co = htm.checkout(cand.id).unwrap();
        let StoredHt::Agg(table) = co.table() else {
            panic!("{what}: an aggregate table")
        };
        assert_eq!(table.len(), want.len(), "{what}: groups");
        for (at, ((key, row, accums), (want_row, want_accums))) in
            table.iter().zip(&want).enumerate()
        {
            assert_eq!(row_bits(&row), row_bits(want_row), "{what}: group {at}");
            assert_eq!(key, want_row.key64(&[0, 1]), "{what}: key of group {at}");
            let got: Vec<_> = accums.iter().map(accum_bits).collect();
            let expect: Vec<_> = want_accums.iter().map(accum_bits).collect();
            assert_eq!(got, expect, "{what}: states of group {at}");
        }
        tables.push(co.table().clone());
        drop(co);

        let spec = |case, post_filter, request_region| ReuseSpec {
            id: cand.id,
            case,
            post_filter,
            request_region,
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        };
        let reuse = |spec: ReuseSpec, post_group_by| {
            let plan = aggregate(None, Some(spec), None, post_group_by);
            execute(&plan, &mut context()).unwrap().1.into_vec()
        };

        // Exact reuse emits the fresh output.
        let exact = spec(ReuseCase::Exact, None, fp.region.clone());
        same_rows(
            &reuse(exact.clone(), None),
            &finalized(&want),
            &format!("{what}, exact"),
        );

        // Subsuming reuse post-filters the groups on `t.h`.
        let narrow = PredBox::all().with("t.h", Interval::closed(Value::Int(1), Value::Int(2)));
        let request = fp.region.intersect(&Region::from_box(narrow.clone()));
        let subsuming = spec(ReuseCase::Subsuming, Some(narrow), request);
        let kept: Vec<(Row, Vec<AggAccum>)> = want
            .iter()
            .filter(|(row, _)| matches!(row.get(1), Value::Int(1..=2)))
            .cloned()
            .collect();
        same_rows(
            &reuse(subsuming.clone(), None),
            &finalized(&kept),
            &format!("{what}, subsuming"),
        );

        // Post-group-by merges the states onto `t.g`, filtered or not.
        let merged = finalized(&reference_regroup(&want, 0));
        same_rows(
            &reuse(exact, Some("t.g")),
            &merged,
            &format!("{what}, post-group-by"),
        );
        let merged = finalized(&reference_regroup(&kept, 0));
        let what = format!("{what}, subsuming post-group-by");
        same_rows(&reuse(subsuming, Some("t.g")), &merged, &what);
    }
    // And the table is `==` at every worker count.
    for (i, t) in tables.iter().enumerate().skip(1) {
        match (&tables[0], t) {
            (StoredHt::Agg(a), StoredHt::Agg(b)) => assert!(a == b, "{case:?}: table {i}"),
            _ => panic!("{case:?}: aggregate tables"),
        }
    }
}

proptest! {
    #[test]
    fn typed_fold_equals_the_row_fold(case in cases()) {
        check(&case);
    }
}

/// The partitioned build on a large input of every key type, whatever the
/// drawn cases hit.
#[test]
fn partitioned_folds_of_every_key_type() {
    for (k, &ktype) in TYPES.iter().enumerate() {
        for input in [Source::Dense, Source::Chain] {
            check(&Case {
                rows: 9000,
                key: (ktype, 700),
                args: [
                    TYPES[k],
                    TYPES[(k + 1) % 4],
                    TYPES[(k + 2) % 4],
                    TYPES[(k + 3) % 4],
                    ktype,
                ],
                input,
                seed: 42 + k as u64,
            });
        }
    }
}
