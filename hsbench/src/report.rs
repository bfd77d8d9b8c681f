//! Result lines, `BENCHMARK.json` access, and the two tools built on them:
//! `--calibrate` (measure run-to-run spread, write the bounds) and
//! `--compare` (apply the bounds to two sets of result lines).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{MetricDef, Values, END_TO_END};
use crate::workloads::Outcome;

/// The committed benchmark declaration, as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Parse one JSON document (the subset this benchmark reads and writes:
    /// no `\u` escapes).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing input at byte {}", p.pos))
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                while self.peek() != Some(b'}') {
                    if !fields.is_empty() {
                        self.eat(b',')?;
                    }
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                }
                self.pos += 1;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while self.peek() != Some(b']') {
                    if !items.is_empty() {
                        self.eat(b',')?;
                    }
                    items.push(self.value()?);
                }
                self.pos += 1;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.pos;
                let is_word = |b: &u8| b.is_ascii_alphanumeric() || b"+-.".contains(b);
                while self.bytes.get(self.pos).is_some_and(is_word) {
                    self.pos += 1;
                }
                let word = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                match word {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    "null" => Ok(Json::Null),
                    _ => word
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token `{word}` at byte {start}")),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => e,
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    });
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

/// The result object the benchmark contract asks for. `extra` fields
/// (workload, seed, trace) come first in the lines `--out` appends.
pub fn result_line(extra: &str, outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut metrics = String::new();
    for d in defs {
        let value = outcome
            .values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    format!(
        "{{{extra}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed
    )
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let (n, m) = (4usize, v.len() + 1);
    [1, 2, 3].map(|i| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    })
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// End-to-end bounds from `BENCHMARK.json`, by metric name.
pub fn bounds(benchmark: &Json) -> BTreeMap<String, f64> {
    let list = benchmark.get("end_to_end").map_or(&[][..], Json::items);
    list.iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect()
}

/// workload → metric → values, from `--out` result lines (`trace` 0 only).
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if run.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or("no workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: result line without metrics"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::num).ok_or("no value")?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// `--compare A B`: one row per (workload, end-to-end metric). `regressed`
/// when B's median is worse than A's by more than the bound, `unresolved`
/// when it is not but either side's spread is wider than the bound. A
/// workload or metric that only one side ran, or a median of 0 to compare
/// against, is an error: a row silently left out would read as `ok`.
/// Returns the table and whether anything regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    compare_runs(&read_runs(path_a)?, &read_runs(path_b)?)
}

fn compare_runs(a: &Runs, b: &Runs) -> Result<(String, bool), String> {
    let bounds = bounds(&Json::parse(BENCHMARK_JSON)?);
    if !a.keys().eq(b.keys()) {
        return Err(format!(
            "the two sets ran different workloads: {:?} vs {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    let mut table = format!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    let mut regressed = false;
    for workload in a.keys() {
        for d in END_TO_END {
            let values = |runs: &Runs, side: &str| {
                runs[workload]
                    .get(d.name)
                    .cloned()
                    .ok_or(format!("{side}: {workload} has no {}", d.name))
            };
            let (va, vb) = (values(a, "A")?, values(b, "B")?);
            let bound = *bounds
                .get(d.name)
                .ok_or(format!("{} has no bound", d.name))?;
            let (ma, mb) = (quartiles(&va)[1], quartiles(&vb)[1]);
            if ma == 0.0 {
                return Err(format!("A: median {} of {workload} is 0", d.name));
            }
            let worse = if d.better == "lower" {
                mb - ma
            } else {
                ma - mb
            } / ma.abs();
            let wide = spread(&va).max(spread(&vb));
            let verdict = if worse > bound {
                regressed = true;
                "regressed"
            } else if wide > bound {
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{workload:<14} {:<16} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                d.name,
                worse * 100.0,
                wide * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((table, regressed))
}

/// The widest bound the benchmark contract allows.
const MAX_BOUND: f64 = 0.25;

/// Bounds from measured spreads: three times the widest spread any workload
/// showed, so that the spread stays under a third of the bound; at least
/// 5 %. The contract allows no bound above 25 %: a metric whose spread is
/// under that but over a third of it gets the 25 % with a warning, and one
/// whose spread no allowed bound covers fails the calibration (lengthen its
/// workload or drop it). `setup_s` alone always gets the 25 %: the contract
/// gives set-up time the widest bound and does not gate on its spread.
/// Returns the new file text.
pub fn calibrated(
    benchmark_text: &str,
    runs: &BTreeMap<String, Vec<Values>>,
) -> Result<String, String> {
    let mut text = benchmark_text.to_string();
    for d in END_TO_END {
        let mut widest = 0.0f64;
        for (workload, vs) in runs {
            let values: Vec<f64> = vs.iter().map(|v| v[d.name]).collect();
            let s = spread(&values);
            println!(
                "{workload:<14} {:<16} median {:>12.4} spread {:>5.1}%",
                d.name,
                quartiles(&values)[1],
                s * 100.0
            );
            widest = widest.max(s);
        }
        let bound = if d.name == "setup_s" {
            MAX_BOUND
        } else if widest > MAX_BOUND {
            return Err(format!(
                "{}: spread {:.1}% is wider than any bound the contract allows",
                d.name,
                widest * 100.0
            ));
        } else {
            ((widest * 3.0 * 100.0).ceil() / 100.0).clamp(0.05, MAX_BOUND)
        };
        if widest * 3.0 > bound {
            println!(
                "warning: {} spreads {:.1}%, over a third of its bound",
                d.name,
                widest * 100.0
            );
        }
        println!("{:<31} -> bound {bound}", d.name);
        // One metric per line in BENCHMARK.json: rewrite that line's bound.
        let needle = format!("\"name\": \"{}\"", d.name);
        text = text
            .lines()
            .map(
                |line| match (line.contains(&needle), line.find("\"bound\": ")) {
                    (true, Some(at)) => {
                        let end = line[at..].find('}').map_or(line.len(), |e| at + e);
                        format!("{}\"bound\": {bound}{}", &line[..at], &line[end..])
                    }
                    _ => line.to_string(),
                },
            )
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let j = Json::parse(r#"{"a": [1, 2.5e0, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().items()[1].num(), Some(2.5));
        assert_eq!(j.get("a").unwrap().items()[2].str(), Some("x\"y"));
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    fn runs_of(workload: &str, value: f64) -> Runs {
        let metrics = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), vec![value; 3]))
            .collect();
        Runs::from([(workload.to_string(), metrics)])
    }

    #[test]
    fn compare_refuses_what_it_cannot_compare() {
        let a = runs_of("w", 1.0);
        let (table, regressed) = compare_runs(&a, &a).expect("same runs compare");
        assert!(!regressed && table.matches(" ok").count() == END_TO_END.len());
        // B twice as slow / half as fast: every metric regressed.
        let (_, regressed) = compare_runs(&runs_of("w", 2.0), &runs_of("w", 1.0)).unwrap();
        assert!(regressed);
        assert!(compare_runs(&a, &runs_of("other", 1.0)).is_err());
        assert!(compare_runs(&a, &Runs::new()).is_err());
        assert!(compare_runs(&runs_of("w", 0.0), &a).is_err());
        let mut short = a.clone();
        short.get_mut("w").unwrap().remove("setup_s");
        assert!(compare_runs(&a, &short).is_err());
    }

    #[test]
    fn calibrate_fails_on_a_spread_no_bound_covers() {
        let run = |v: f64| -> Values { END_TO_END.iter().map(|d| (d.name, v)).collect() };
        let wild = vec![run(1.0), run(1.0), run(2.0), run(2.0)];
        let runs = BTreeMap::from([("w".to_string(), wild)]);
        assert!(calibrated("{}", &runs).is_err());
    }

    #[test]
    fn calibrate_rewrites_only_the_bound() {
        let text = "{\n  \"end_to_end\": [\n    {\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1},\n    {\"name\": \"x\", \"bound\": 0.1}\n  ]\n}\n";
        let mut run = Values::new();
        for d in END_TO_END {
            run.insert(d.name, 1.0);
        }
        let runs = BTreeMap::from([("w".to_string(), vec![run.clone(), run])]);
        let out = calibrated(text, &runs).expect("steady runs calibrate");
        assert!(out.contains(
            "\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}"
        ));
        assert!(out.contains("{\"name\": \"x\", \"bound\": 0.1}"));
    }
}
