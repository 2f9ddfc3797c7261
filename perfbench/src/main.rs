//! Live-pipeline benchmark for InvaliDB.
//!
//! ```text
//! perfbench --workload <quaestor_ranges|shared_filters|sorted_churn>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test
//! ```
//!
//! Drives the real in-process `Cluster` (+ `AppServer` + `Store`, + the TCP
//! event layer for `quaestor_ranges`) with an open-loop load generator and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced run
//! reports per-layer metrics and writes its spans under `.perfbench_out/`.
//! Progress and diagnostics go to standard error.

mod drive;
mod layers;
mod procfs;
mod rig;
mod selftest;
mod stats;
mod workload;

use drive::{latencies, LoadGen};
use invalidb_common::{Document, Value};
use rig::{Deployment, Rig};
use stats::{json_number, json_string, median, percentile};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Benchmark settings: seeds, calibrated rates, thread-name → layer map.
const CONFIG: &str = include_str!("../config.json");

/// Length of one SLA ladder rung (traced run), seconds.
const RUNG_SECONDS: f64 = 1.0;
/// Warm-up at the nominal rate before any window is measured, seconds.
const WARMUP_SECONDS: f64 = 3.0;
/// Slices of the nominal window whose latency quantiles are medianed.
const SUB_WINDOWS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: None, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value()? != "0",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The parsed `config.json`.
pub struct Config {
    doc: Document,
}

impl Config {
    fn load() -> Config {
        let doc = invalidb_json::parse_document(CONFIG).expect("config.json parses");
        Config { doc }
    }

    fn num(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("config `{key}`"))
    }

    fn workload(&self, name: &str) -> Option<&Document> {
        self.doc.get("workloads")?.as_object()?.get(name)?.as_object()
    }

    /// `(thread-name prefix, layer)` pairs.
    pub fn thread_layers(&self) -> Vec<(String, String)> {
        self.doc
            .get("thread_layers")
            .and_then(Value::as_array)
            .expect("config `thread_layers`")
            .iter()
            .filter_map(|pair| {
                let pair = pair.as_array()?;
                Some((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_str()?.to_string()))
            })
            .collect()
    }
}

/// One workload's settings.
pub struct Plan {
    pub name: String,
    pub seed: u64,
    pub seconds: f64,
    pub deployment: Deployment,
    pub nominal_rate: f64,
    pub ladder_start: f64,
    pub churn_per_s: f64,
    pub sla_us: f64,
    pub ladder_step: f64,
    pub setup_repeats: usize,
}

impl Plan {
    fn new(config: &Config, args: &Args) -> Result<Plan, String> {
        let name = args.workload.clone().ok_or("--workload is required")?;
        let w = config.workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
        let num = |k: &str| w.get(k).and_then(Value::as_f64).ok_or_else(|| format!("{name}: `{k}`"));
        let deployment = match w.get("deployment").and_then(Value::as_str) {
            Some("app_over_tcp") => Deployment::AppOverTcp,
            Some("app_in_process") => Deployment::AppInProcess,
            Some("standalone") => Deployment::Standalone,
            other => return Err(format!("{name}: bad deployment {other:?}")),
        };
        Ok(Plan {
            seed: args.seed.unwrap_or(config.num("default_seed") as u64),
            seconds: args.seconds,
            deployment,
            nominal_rate: num("nominal_rate")?,
            ladder_start: num("ladder_start_rate")?,
            churn_per_s: num("churn_per_s")?,
            sla_us: config.num("sla_p99_ms") * 1_000.0,
            ladder_step: config.num("ladder_step"),
            setup_repeats: config.num("setup_repeats") as usize,
            name,
        })
    }

    pub fn generator(&self) -> Box<dyn workload::Generator> {
        workload::generator(&self.name, self.seed).expect("known workload")
    }
}

/// The result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median over `SUB_WINDOWS` equal slices of `[start_us, end_us)` of the
/// `q`-quantile of the notification latencies due in each slice: one
/// scheduler hiccup on a shared host moves one slice, not the figure.
pub fn windowed_quantile(rig: &Rig, start_us: u64, end_us: u64, q: f64) -> f64 {
    let step = (end_us - start_us) / SUB_WINDOWS;
    let per_slice: Vec<f64> = (0..SUB_WINDOWS)
        .map(|i| percentile(&latencies(rig, start_us + i * step, start_us + (i + 1) * step), q))
        .collect();
    eprintln!("latency q{q} per slice: {per_slice:?}");
    median(&per_slice)
}

/// Collector-detected failures of a rig so far.
pub fn rig_failures(rig: &Rig) -> u64 {
    let s = &rig.shared;
    s.missing.load(Ordering::Relaxed)
        + s.duplicates.load(Ordering::Relaxed)
        + s.subscribe_errors.load(Ordering::Relaxed)
}

/// Subscribe latencies (µs) a rig observed.
pub fn subscribe_latencies(rig: &Rig) -> Vec<f64> {
    rig.shared
        .subscribe
        .lock()
        .expect("samples")
        .iter()
        .map(|(s, r)| r.saturating_sub(*s) as f64)
        .collect()
}

/// Indices of the initial subscriptions the churn schedule may replace.
pub fn churn_slots(plan: &Plan) -> Vec<usize> {
    let mut gen = plan.generator();
    gen.subscriptions().iter().enumerate().filter(|(_, s)| !s.sort.is_empty()).map(|(i, _)| i).collect()
}

/// Sets the workload up `setup_repeats` times (reporting the median
/// set-up time) and keeps the last deployment running.
pub fn set_up(plan: &Plan) -> (Rig, Box<dyn workload::Generator>, Vec<f64>) {
    let mut setups = Vec::new();
    for round in 0..plan.setup_repeats.max(1) {
        let mut gen = plan.generator();
        let t = Instant::now();
        let rig = Rig::start(plan.deployment, gen.as_mut(), 0);
        setups.push(t.elapsed().as_secs_f64());
        eprintln!("{}: set-up {} took {:.3}s", plan.name, round + 1, setups[round]);
        if round + 1 == plan.setup_repeats.max(1) {
            return (rig, gen, setups);
        }
        rig.stop();
    }
    unreachable!("the last round returns")
}

fn end_to_end(plan: &Plan) -> Outcome {
    let (rig, mut gen, setups) = set_up(plan);
    let nominal_s = plan.seconds;
    let mut load = LoadGen::new(&rig, gen.as_mut(), plan.seed, plan.churn_per_s, churn_slots(plan));
    let warm = load.window(plan.nominal_rate, WARMUP_SECONDS);
    let mut attempted = warm.writes + warm.churns;
    let mut refused = warm.refused;
    let mut window = load.window(plan.nominal_rate, nominal_s);
    for _ in 0..2 {
        if window.on_schedule() {
            break;
        }
        eprintln!(
            "{}: generator fell behind (lag p99 {:.0}us); window discarded",
            plan.name,
            percentile(&window.lag_us, 0.99)
        );
        attempted += window.writes + window.churns;
        refused += window.refused;
        window = load.window(plan.nominal_rate, nominal_s);
    }
    attempted += window.writes + window.churns;
    refused += window.refused;
    let quiet = rig.quiesce(Duration::from_millis(300), Duration::from_secs(10));
    let (checked, mismatches) = rig.oracle(&load.records);
    let collector_failures = rig_failures(&rig);
    let subs = (rig.subscription_count() * plan.setup_repeats.max(1)) as u64;
    attempted += subs + checked;
    let failed = refused + collector_failures + mismatches;
    eprintln!(
        "{}: oracle checked {checked} subscriptions, {mismatches} diverged; refused {refused}, missing {}, duplicates {}, subscribe errors {}, quiesced {quiet}",
        plan.name,
        rig.shared.missing.load(Ordering::Relaxed),
        rig.shared.duplicates.load(Ordering::Relaxed),
        rig.shared.subscribe_errors.load(Ordering::Relaxed),
    );
    let lat = latencies(&rig, window.start_us, window.end_us);
    let notify_p50 = windowed_quantile(&rig, window.start_us, window.end_us, 0.5);
    let peak_rss_mb = procfs::peak_rss_mb();
    let cpu_us_per_write = window.cpu_s * 1e6 / window.writes.max(1) as f64;
    eprintln!(
        "{}: nominal {:.0}/s for {:.1}s: {} writes, {} notifications, lag p50/p99 {:.0}/{:.0}us",
        plan.name,
        plan.nominal_rate,
        nominal_s,
        window.writes,
        lat.len(),
        percentile(&window.lag_us, 0.5),
        percentile(&window.lag_us, 0.99)
    );
    drop(load);
    rig.stop();
    let metrics = vec![
        ("setup_s".to_string(), median(&setups), "s"),
        ("notify_p50_us".to_string(), notify_p50, "us"),
        ("cpu_us_per_write".to_string(), cpu_us_per_write, "us"),
        ("peak_rss_mb".to_string(), peak_rss_mb, "MB"),
    ];
    let correct = failed == 0 && !lat.is_empty();
    Outcome { correct, attempted, failed, metrics }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let config = Config::load();
    if args.self_test {
        std::process::exit(selftest::run(&config));
    }
    let plan = match Plan::new(&config, &args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace { layers::traced(&plan, &config) } else { end_to_end(&plan) };
    println!("{}", outcome.to_json());
}
