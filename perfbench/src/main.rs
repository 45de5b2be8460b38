//! Benchmark of the ExplFrame attack simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload pfa-ttable|sweep-rfm|all] [--seed N] \
//!     [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! Each workload boots its machines from seeds `seed`, `seed + 1`, … and
//! runs whole passes of its trials on one thread until `--seconds` have
//! elapsed. A run exits with a failure code after its result line when the
//! outputs are not correct. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced passes with traced ones and prints the per-layer
//! metrics. The last line of standard output is one JSON object. See
//! `perfbench/README.md` for the workloads and what each metric means.

#![forbid(unsafe_code)]

mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use explframe_core::{AttackError, AttackOutcome, AttackReport};

use stats::{median, percentile, ratio};
use trace::Recorder;
use workload::{digest, pass_digest, Prepared, Workload, DEFAULT_SEED, WORKLOADS};

/// Before every pass a run sets its workload up afresh, at least once and
/// for at least this long; `setup_s` is the median of all set-ups. Spread
/// over the run, the set-ups see the host over the same window as the
/// trials, and where a set-up is a boot of a few milliseconds the median
/// covers hundreds of them.
const SETUP_SLICE_SECONDS: f64 = 0.2;

const USAGE: &str = "usage: perfbench [--workload pfa-ttable|sweep-rfm|all] \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: "all".into(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            spans: None,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => out.workload = value,
                "--seed" => out.seed = value.parse().map_err(|_| bad)?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad.clone())?;
                    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                        return Err(bad);
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad),
                    }
                }
                "--spans" => out.spans = Some(value),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if out.spans.is_some() && !out.trace {
            return Err("--spans needs --trace 1".into());
        }
        if out.workload != "all" && workload::find(&out.workload).is_none() {
            return Err(format!("unknown workload {}", out.workload));
        }
        Ok(out)
    }
}

/// One pass over a workload's trials.
struct Pass {
    trial_ns: Vec<u64>,
    wall_ns: u64,
    results: Vec<Result<AttackReport, AttackError>>,
}

impl Pass {
    fn run(
        prep: &mut Prepared,
        mut trial: impl FnMut(&mut Prepared, u64) -> Result<AttackReport, AttackError>,
    ) -> Self {
        let start = Instant::now();
        let mut trial_ns = Vec::new();
        let mut results = Vec::new();
        for t in 0..prep.workload.batch {
            let t0 = Instant::now();
            results.push(trial(prep, t));
            trial_ns.push(nanos(t0));
        }
        Pass {
            trial_ns,
            wall_ns: nanos(start),
            results,
        }
    }

    fn digests(&self) -> Vec<u64> {
        self.results.iter().map(digest).collect()
    }
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).expect("pass shorter than 584 years")
}

/// Trials per second over a set of passes.
fn throughput<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> f64 {
    let (trials, wall) = passes.into_iter().fold((0, 0), |(trials, wall), p| {
        (trials + p.results.len(), wall + p.wall_ns)
    });
    ratio(trials as f64, wall as f64 / 1e9)
}

/// The set-ups of one run, and how long each took.
struct Setups {
    workload: &'static Workload,
    seed: u64,
    seconds: Vec<f64>,
}

impl Setups {
    /// Drops `old`, then sets the workload up for one slice and keeps the
    /// last set-up. One set-up is alive at a time, so `peak_rss_mib` sees
    /// one.
    fn fresh(&mut self, old: Option<Prepared>) -> Result<Prepared, AttackError> {
        drop(old);
        let slice = Instant::now();
        loop {
            let start = Instant::now();
            let prep = Prepared::new(self.workload, self.seed)?;
            self.seconds.push(start.elapsed().as_secs_f64());
            if slice.elapsed().as_secs_f64() >= SETUP_SLICE_SECONDS {
                return Ok(prep);
            }
        }
    }
}

/// What one workload's run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    notes: Vec<String>,
    trace: Recorder,
}

/// Measures the workload for `seconds`, with a fresh set-up before each
/// pass.
fn measure(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, AttackError> {
    let mut setups = Setups {
        workload: w,
        seed,
        seconds: Vec::new(),
    };
    let mut prep = setups.fresh(None)?;

    // Whole passes only, so every trial weighs the same in every run; in
    // traced mode untraced and traced passes alternate. An untraced run
    // times at least `tail_trials`, so its tail percentile is the same in
    // every run however fast the build is.
    let min_timed = if traced { 0 } else { w.tail_trials };
    let mut untraced = vec![Pass::run(&mut prep, Prepared::run_trial)];
    let mut traced_passes = Vec::new();
    let mut rec = Recorder::new();
    let (mut memo_hits, mut id) = (0, 0);
    loop {
        let spent: u64 = untraced
            .iter()
            .chain(&traced_passes)
            .map(|p| p.wall_ns)
            .sum();
        let timed = untraced.len() * untraced[0].results.len();
        let owe_traced = traced && traced_passes.is_empty();
        if spent as f64 >= seconds * 1e9 && timed >= min_timed && !owe_traced {
            break;
        }
        prep = setups.fresh(Some(prep))?;
        if traced && traced_passes.len() < untraced.len() {
            let hits = prep.memo.hits();
            traced_passes.push(Pass::run(&mut prep, |prep, t| {
                id += 1;
                rec.trial(prep, t, id - 1)
            }));
            memo_hits += prep.memo.hits() - hits;
        } else {
            untraced.push(Pass::run(&mut prep, Prepared::run_trial));
        }
    }

    // Correctness: every pass, each on its own set-up, repeats the first
    // one report for report, traced or not; the first pass matches its golden on the default
    // seed; every recovered key is the victim's.
    let reference = untraced[0].digests();
    let all = || untraced.iter().chain(&traced_passes);
    let repeats = all().all(|p| p.digests() == reference);
    let pass = pass_digest(&reference);
    let golden_ok = seed != DEFAULT_SEED || pass == w.golden;
    let keys_ok = all()
        .flat_map(|p| &p.results)
        .flatten()
        .all(|r| r.outcome != AttackOutcome::KeyRecovered || r.key_correct);
    let attempted = all().map(|p| p.results.len() as u64).sum();
    let failed = all()
        .flat_map(|p| &p.results)
        .filter(|r| r.is_err())
        .count() as u64;

    let mut notes = vec![
        format!(
            "report digest {pass:#018x} ({})",
            if seed != DEFAULT_SEED {
                format!("no golden for seed {seed}; compare across builds")
            } else if golden_ok {
                "matches golden".to_string()
            } else {
                format!("MISMATCH, golden {:#018x}", w.golden)
            }
        ),
        format!(
            "passes repeat the first report for report: {} ({} untraced, {} traced)",
            if repeats { "yes" } else { "NO" },
            untraced.len(),
            traced_passes.len()
        ),
        format!(
            "error_rate {} ({failed} of {attempted} trials returned Err)",
            ratio(failed as f64, attempted as f64)
        ),
    ];
    if !keys_ok {
        notes.push("a recovered key differs from the victim's".into());
    }

    let metrics = if traced {
        let reports: Vec<AttackReport> = traced_passes
            .iter()
            .flat_map(|p| &p.results)
            .flatten()
            .cloned()
            .collect();
        let overhead = ratio(throughput(&traced_passes), throughput(&untraced));
        trace::layer_metrics(&rec.spans, &reports, memo_hits, overhead)
    } else {
        let trial_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|p| &p.trial_ns)
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let tail = w.tail_permille();
        notes.push(format!(
            "trial_ms.tail is p{:.1} of {} trials",
            tail as f64 / 10.0,
            trial_ms.len()
        ));
        end_to_end(
            &untraced[0].results,
            throughput(&untraced),
            &trial_ms,
            tail,
            median(&setups.seconds),
        )
    };
    Ok(Outcome {
        correct: repeats && golden_ok && keys_ok,
        attempted,
        failed,
        metrics,
        notes,
        trace: rec,
    })
}

/// The end-to-end metrics, from one pass's results (the attacker-cost
/// metrics, identical in every pass) and the host timings of all passes.
fn end_to_end(
    results: &[Result<AttackReport, AttackError>],
    trials_per_s: f64,
    trial_ms: &[f64],
    tail_permille: u64,
    setup_s: f64,
) -> Vec<Metric> {
    let reports: Vec<&AttackReport> = results.iter().flatten().collect();
    let keys = reports.iter().filter(|r| r.succeeded()).count() as f64;
    let per_key =
        |f: fn(&AttackReport) -> u64| ratio(reports.iter().map(|r| f(r)).sum::<u64>() as f64, keys);
    let metric = |name: &str, value: f64, unit| Metric {
        name: name.into(),
        value,
        unit,
    };
    vec![
        metric("trials_per_s", trials_per_s, "1/s"),
        metric("trial_ms.p50", percentile(trial_ms, 500), "ms"),
        metric("trial_ms.tail", percentile(trial_ms, tail_permille), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("key_rate", ratio(keys, results.len() as f64), "ratio"),
        metric("pairs_per_key", per_key(|r| r.hammer_pairs_spent), "pairs"),
        metric(
            "ciphertexts_per_key",
            per_key(|r| r.ciphertexts_collected),
            "ciphertexts",
        ),
        metric("sim_s_per_key", per_key(|r| r.elapsed) / 1e9, "s"),
    ]
}

/// Peak resident set of this process (`VmHWM`), 0 where unavailable.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Core count and load averages of the host, for the run record.
fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!("host: {cores} cores, load average {}", load.join(" "))
}

/// The result line: one JSON object.
fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(
                stats::valid_metric_name(&m.name),
                "bad metric name {}",
                m.name
            );
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&'static Workload> = match workload::find(&args.workload) {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    for w in workloads {
        println!(
            "workload {}  seed {}  seconds {}  trace {}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let outcome = match measure(w, args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("{}: set-up failed: {err}", w.name);
                return ExitCode::FAILURE;
            }
        };
        for note in &outcome.notes {
            println!("  {note}");
        }
        for m in &outcome.metrics {
            println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("  {}", host_line());
        if let Some(path) = &args.spans {
            if let Err(err) = std::fs::write(path, outcome.trace.to_json()) {
                eprintln!("cannot write spans to {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
        println!("{}", json_line(&outcome));
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("outputs are not correct; see the notes above the metrics");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::Json;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn contract(key: &str) -> Vec<(String, String)> {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Some(Json::Arr(metrics)) = bench.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        metrics
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_metric_is_emitted_for_every_workload() {
        let (e2e, layers) = (contract("end_to_end"), contract("per_layer"));
        for (name, _) in e2e.iter().chain(&layers) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        for w in &WORKLOADS {
            let mut prep = Prepared::new(w, DEFAULT_SEED).expect("set-up");
            let untraced = prep.run_trial(0);
            let mut rec = Recorder::new();
            let hits = prep.memo.hits();
            let traced = rec.trial(&mut prep, 0, 0);
            assert_eq!(
                digest(&untraced),
                digest(&traced),
                "{}: traced report differs",
                w.name
            );
            let report = traced.expect("trial completes");
            assert!(report.succeeded(), "{}: {report:?}", w.name);

            let memo_hits = prep.memo.hits() - hits;
            assert_eq!(memo_hits, u64::from(w.driver == workload::Driver::Memo));
            let layer = trace::layer_metrics(&rec.spans, &[report], memo_hits, 0.9);
            assert_eq!(named(&layer), layers, "{}", w.name);
            let end = end_to_end(&[untraced], 4.0, &[250.0], 500, 0.1);
            assert_eq!(named(&end), e2e, "{}", w.name);
            for m in end.iter().chain(&layer) {
                assert!(m.value.is_finite() && m.value >= 0.0, "{}: {m:?}", w.name);
            }
        }
    }

    #[test]
    fn each_workload_reports_one_fixed_tail_above_the_median() {
        for w in &WORKLOADS {
            assert!(w.tail_permille() > 500, "{}: tail is the median", w.name);
        }
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "trials_per_s".into(),
                value: 4.25,
                unit: "1/s",
            }],
            notes: Vec::new(),
            trace: Recorder::new(),
        };
        let line = Json::parse(&json_line(&outcome)).expect("valid JSON");
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        let m = line
            .get("metrics")
            .and_then(|m| m.get("trials_per_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(4.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload sweep-rfm --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("sweep-rfm", 7, true)
        );
        assert_eq!(args.seconds, 2.5);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seconds NaN",
            "--seed",
            "--spans out.json",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
