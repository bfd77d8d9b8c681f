//! hsbench: the repository's benchmark (declared in `/BENCHMARK.json`).
//!
//! SQL text goes over a loopback socket into an in-process
//! `hashstash_server::Server`; closed-loop wire clients time every reply
//! and verify it against a `NoReuse` reference. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` replays the same inputs with spans
//! around each crate's public entry points and prints the per-layer
//! metrics. `../README.md` defines every metric and workload.

mod engine;
mod legs;
mod metrics;
mod placement;
mod report;
mod sqlgen;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use report::Json;
use workloads::{Kind, Outcome, Settings};

const USAGE: &str = "\
usage: hsbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
               [--trace-out PATH] [--out FILE]
       hsbench --calibrate N [--seed N] [--seconds S]
       hsbench --compare A.jsonl B.jsonl
workloads: trace_high trace_low tenant_mix restart_cycle";

/// Scale factor of every run the benchmark contract makes.
const SF: f64 = 0.01;
/// Groups of set-up repetitions per run (see `workloads::SetUps`).
const SETUP_GROUPS: usize = 10;

struct Cli {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    calibrate: Option<usize>,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let declared = Json::parse(report::BENCHMARK_JSON)?;
    let mut cli = Cli {
        workloads: Kind::ALL.to_vec(),
        seed: 42,
        seconds: declared
            .get("run_seconds")
            .and_then(Json::num)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        traced: false,
        trace_out: None,
        out: None,
        calibrate: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let kind = Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?;
                    cli.workloads = vec![kind];
                }
            }
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--trace" => cli.traced = num::<u8>(flag, value()?)? != 0,
            "--trace-out" => cli.trace_out = Some(value()?.into()),
            "--out" => cli.out = Some(value()?.into()),
            "--calibrate" => cli.calibrate = Some(num(flag, value()?)?),
            "--compare" => cli.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Scratch directory next to the executable, so everything the benchmark
/// writes stays inside the build directory of its checkout.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let dir = exe.parent().expect("executable has a directory");
    dir.join(format!("hsbench_tmp_{}", std::process::id()))
}

fn settings(cli: &Cli, seed: u64, traced: bool) -> Settings {
    Settings {
        sf: SF,
        seed,
        seconds: cli.seconds,
        traced,
        setup_groups: SETUP_GROUPS,
        tmp: scratch_dir(),
    }
}

fn print_outcome(kind: Kind, s: &Settings, outcome: &Outcome, defs: &[MetricDef]) {
    println!(
        "hsbench {}: TPC-H sf {}, seed {}, parallelism({}), vectorized, fsync {}, {} s, \
         closed loop, 1 client thread pinned with the server's, {} CPUs, tracing {}",
        kind.name(),
        s.sf,
        s.seed,
        engine::PARALLELISM,
        engine::FSYNC.name(),
        s.seconds,
        placement::cpus(),
        if s.traced { "on" } else { "off" },
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for d in defs {
        println!(
            "  {:<30} {:>16.4} {}",
            d.name, outcome.values[d.name], d.unit
        );
    }
    if let (false, Some(p50)) = (s.traced, outcome.values.get("query_p50_ms")) {
        println!("  {:<30} {p50:>16.4} ms (not bounded)", "query_p50_ms");
    }
    println!(
        "  failed_frac {} ({} of {} queries)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.problems {
        println!("  INVARIANT VIOLATED: {problem}");
    }
}

/// Run the selected workloads, printing each one's result line last.
fn run_workloads(cli: &Cli) -> std::io::Result<()> {
    let defs = if cli.traced { PER_LAYER } else { END_TO_END };
    for &kind in &cli.workloads {
        let s = settings(cli, cli.seed, cli.traced);
        let outcome = workloads::run(kind, &s);
        let _ = std::fs::remove_dir_all(&s.tmp);
        print_outcome(kind, &s, &outcome, defs);
        if cli.traced {
            let path = cli.trace_out.clone().unwrap_or_else(|| {
                let name = format!("hsbench_spans_{}.jsonl", kind.name());
                s.tmp.with_file_name(name)
            });
            let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            metrics::write_spans(&mut file, &outcome.spans)?;
            println!("  {} spans -> {}", outcome.spans.len(), path.display());
        }
        if let Some(path) = &cli.out {
            let extra = format!(
                "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
                kind.name(),
                cli.seed,
                u8::from(cli.traced)
            );
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{}", report::result_line(&extra, &outcome, defs))?;
        }
        println!("{}", report::result_line("", &outcome, defs));
    }
    Ok(())
}

/// `--calibrate N`: N untraced runs per workload on seeds `seed..seed+N`,
/// then write the measured bounds into `./BENCHMARK.json`.
fn calibrate(cli: &Cli, n: usize) -> std::io::Result<()> {
    let mut runs: BTreeMap<String, Vec<Values>> = BTreeMap::new();
    for &kind in &cli.workloads {
        for i in 0..n as u64 {
            let s = settings(cli, cli.seed + i, false);
            let outcome = workloads::run(kind, &s);
            let _ = std::fs::remove_dir_all(&s.tmp);
            print_outcome(kind, &s, &outcome, END_TO_END);
            runs.entry(kind.name().to_string())
                .or_default()
                .push(outcome.values);
        }
    }
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    let text = report::calibrated(&text, &runs).map_err(std::io::Error::other)?;
    std::fs::write("BENCHMARK.json", text)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match report::compare(a, b) {
            Ok((table, regressed)) => {
                print!("{table}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("hsbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    placement::pin_client();
    let done = match cli.calibrate {
        Some(n) => calibrate(&cli, n),
        None => run_workloads(&cli),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hsbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(benchmark: &Json, key: &str) -> BTreeSet<String> {
        let list = benchmark.get(key).expect("key present").items();
        list.iter()
            .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
            .collect()
    }

    /// All four workloads, both metric sets, at a scale that takes seconds.
    /// What the run emits must be exactly what `BENCHMARK.json` declares.
    #[test]
    fn smoke_all_workloads_match_benchmark_json() {
        let benchmark = Json::parse(report::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(declared(&benchmark, "end_to_end"), names(END_TO_END));
        assert_eq!(declared(&benchmark, "per_layer"), names(PER_LAYER));
        let kinds = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(declared(&benchmark, "workloads"), kinds);

        for kind in Kind::ALL {
            for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let s = Settings {
                    sf: 0.005,
                    seed: 7,
                    seconds: 0.5,
                    traced,
                    setup_groups: 1,
                    tmp: scratch_dir().join(format!("{}_{traced}", kind.name())),
                };
                let outcome = workloads::run(kind, &s);
                let _ = std::fs::remove_dir_all(&s.tmp);
                let what = format!("{} traced={traced}", kind.name());
                assert_eq!(outcome.failed, 0, "{what}: failed queries");
                assert!(outcome.attempted > 0, "{what}: nothing attempted");
                assert!(
                    outcome.problems.is_empty(),
                    "{what}: {:?}",
                    outcome.problems
                );
                // Every declared metric is measured and the line parses.
                let line = report::result_line("", &outcome, defs);
                let parsed = Json::parse(&line).expect("result line parses");
                assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)), "{what}");
                assert_eq!(traced, !outcome.spans.is_empty(), "{what}: spans");
                if traced && matches!(kind, Kind::TraceHigh | Kind::TraceLow) {
                    let unattributed = outcome.values["core.unattributed_share"];
                    assert!(unattributed.abs() <= 0.10, "{what}: {unattributed}");
                }
                let durable = outcome.values.get("durability.flush_ms_p50");
                if traced {
                    let measured = durable.is_some_and(|v| *v > 0.0);
                    assert_eq!(measured, kind == Kind::RestartCycle, "{what}");
                }
            }
        }
    }

    #[test]
    fn cli_takes_the_contract_arguments() {
        let args = "--workload trace_low --seed 9 --seconds 3 --trace 1";
        let args: Vec<String> = args.split(' ').map(str::to_string).collect();
        let cli = parse_cli(&args).expect("parses");
        assert_eq!(cli.workloads, vec![Kind::TraceLow]);
        assert_eq!((cli.seed, cli.seconds, cli.traced), (9, 3.0, true));
        assert!(parse_cli(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
