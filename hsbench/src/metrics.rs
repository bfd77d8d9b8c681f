//! Metric declarations (the names `BENCHMARK.json` lists), sample
//! statistics, and the in-memory span recorder of the traced run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed with `--trace 0`, in this order. Definitions: README.md.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("queries_per_s", "1/s", "higher"),
    m("query_p95_ms", "ms", "lower"),
    m("cache_peak_mb", "MiB", "lower"),
];

/// Printed with `--trace 1`, in this order. A value of 0 on a workload
/// that does not exercise the layer means "not measured here".
pub const PER_LAYER: &[MetricDef] = &[
    m("sql.parse_us_p50", "us", "lower"),
    m("sql.lower_us_p50", "us", "lower"),
    m("sql.share_of_query", "ratio", "lower"),
    m("sql.bytes_per_query", "B", "lower"),
    m("opt.plan_us_p50", "us", "lower"),
    m("opt.plan_us_p95", "us", "lower"),
    m("opt.share_of_query", "ratio", "lower"),
    m("opt.candidates_per_query", "count", "lower"),
    m("opt.reuse_decision_rate", "ratio", "higher"),
    m("opt.qerror_p50", "ratio", "lower"),
    m("opt.qerror_p95", "ratio", "lower"),
    m("cache.publishes", "count", "lower"),
    m("cache.publish_dedups", "count", "higher"),
    m("cache.reuses", "count", "higher"),
    m("cache.evictions", "count", "lower"),
    m("cache.hit_ratio", "ratio", "higher"),
    m("cache.candidate_lookups", "count", "lower"),
    m("cache.end_bytes", "B", "lower"),
    m("cache.peak_bytes", "B", "lower"),
    m("cache.hot_evictions", "count", "lower"),
    m("cache.churn_evictions", "count", "lower"),
    m("cache.candidates_us_p50", "us", "lower"),
    m("cache.checkout_us_p50", "us", "lower"),
    m("exec.wall_ms_p50", "ms", "lower"),
    m("exec.wall_ms_p95", "ms", "lower"),
    m("exec.share_of_query", "ratio", "lower"),
    m("exec.rows_scanned", "count", "lower"),
    m("exec.ht_inserts", "count", "lower"),
    m("exec.ht_probes", "count", "lower"),
    m("exec.ht_updates", "count", "lower"),
    m("exec.rows_output", "count", "lower"),
    m("exec.built_tables", "count", "lower"),
    m("exec.reused_tables", "count", "higher"),
    m("exec.batches", "count", "lower"),
    m("exec.ns_per_row_scanned", "ns", "lower"),
    m("hashtable.insert_ns_per_row", "ns", "lower"),
    m("hashtable.probe_ns_per_row", "ns", "lower"),
    m("hashtable.upsert_ns_per_row", "ns", "lower"),
    m("hashtable.heap_bytes_per_row", "B", "lower"),
    m("storage.generate_s", "s", "lower"),
    m("storage.table_bytes", "B", "lower"),
    m("storage.select_ns_per_row", "ns", "lower"),
    m("durability.restart_ms_p50", "ms", "lower"),
    m("durability.flush_ms_p50", "ms", "lower"),
    m("durability.recover_ms_p50", "ms", "lower"),
    m("durability.dir_bytes", "B", "lower"),
    m("durability.snapshot_bytes", "B", "lower"),
    m("durability.rehydrate_ratio", "ratio", "higher"),
    m("durability.first_hit_ms", "ms", "lower"),
    m("server.round_trip_ms_p50", "ms", "lower"),
    m("server.overhead_us_p50", "us", "lower"),
    m("server.overhead_us_p95", "us", "lower"),
    m("server.share_of_query", "ratio", "lower"),
    m("server.ping_us_p50", "us", "lower"),
    m("server.stats_us_p50", "us", "lower"),
    m("server.reply_bytes_per_query", "B", "lower"),
    m("server.reply_rows_per_query", "count", "lower"),
    m("server.encode_ns_per_row", "ns", "lower"),
    m("core.execute_us_p50", "us", "lower"),
    m("core.unattributed_share", "ratio", "lower"),
    m("core.noreuse_ratio", "ratio", "higher"),
    m("core.trace_overhead_frac", "ratio", "lower"),
    m("workload.avg_overlap", "ratio", "higher"),
    m("workload.sql_bytes", "B", "lower"),
    m("workload.hot_p95_ms", "ms", "lower"),
    m("workload.churn_p50_ms", "ms", "lower"),
];

/// Metric name → measured value, filled by a run.
pub type Values = BTreeMap<&'static str, f64>;

/// The `q`-quantile of `values` by nearest rank (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the id of the span that caused this one (0 for a
/// request's root).
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when tracing is on, keeps their spans in memory.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Reserve a span id, so children can name a parent that is recorded
    /// (with [`Tracer::push`]) only once it has ended.
    pub fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a span under a reserved id. No-op when tracing is off.
    pub fn push(
        &mut self,
        id: u32,
        request: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        took: Duration,
    ) {
        if !self.on {
            return;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
        });
    }

    /// Record an interval measured elsewhere (e.g. the engine's own
    /// `optimize_time`); returns the span's id.
    pub fn record(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        took: Duration,
    ) -> u32 {
        let id = self.fresh_id();
        self.push(id, request, parent, name, start, took);
        id
    }

    /// Time `f` and record it as a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, u32) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        let id = self.record(request, parent, name, start, took);
        (out, took, id)
    }
}

/// Write spans as JSON lines.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.95), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
