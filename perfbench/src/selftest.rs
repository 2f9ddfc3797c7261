//! `perfbench --self-test`: checks of the measurement itself.
//!
//! 1. The sender alone, feeding a no-op sink, sustains far more than the
//!    highest rate any ladder offers, so a failing rung is the system's.
//! 2. A delivery stall injected with `Broker::with_chaos` (every envelope
//!    on the cluster topic held back) shows up in the latency of every
//!    write queued behind it: latencies count from the due time.
//! 3. A stall of the sender itself is charged to every write that fell
//!    due during it, not hidden by stamping the late send time
//!    (coordinated omission).
//!
//! Exits 0 when all checks hold.

use crate::drive::{open_loop, LoadGen, Tick};
use crate::rig::{Deployment, Rig};
use crate::stats::{median, percentile};
use crate::workload::{Generator, QuaestorRanges, SharedFilters};
use crate::Config;
use invalidb_broker::{Broker, ChaosConfig, ChaosScope, CLUSTER_TOPIC};
use invalidb_common::trace::now_micros;
use invalidb_common::Value;
use std::time::Duration;

/// Delay every cluster-topic envelope suffers in the delivery-stall check.
const DELIVERY_STALL: Duration = Duration::from_millis(25);
/// Length of the sender stall in the coordinated-omission check.
const SENDER_STALL: Duration = Duration::from_millis(100);

/// Runs every check; returns the process exit code.
pub fn run(config: &Config) -> i32 {
    let checks = [sender_capacity(config), delivery_stall(), sender_stall()];
    if checks.iter().all(|ok| *ok) {
        eprintln!("self-test: all checks passed");
        0
    } else {
        eprintln!("self-test: FAILED");
        1
    }
}

fn report(name: &str, ok: bool, detail: String) -> bool {
    eprintln!("self-test {name}: {} ({detail})", if ok { "ok" } else { "FAILED" });
    ok
}

/// The highest rate a ladder offers in practice: its start ten steps up.
fn highest_offered(config: &Config) -> f64 {
    let step = config.num("ladder_step");
    let workloads = config.doc.get("workloads").and_then(Value::as_object).expect("config `workloads`");
    workloads
        .iter()
        .filter_map(|(_, w)| w.as_object()?.get("ladder_start_rate")?.as_f64())
        .fold(0.0, f64::max)
        * step.powi(10)
}

fn sender_capacity(config: &Config) -> bool {
    let mut gen = QuaestorRanges::new(1, 2_000, 0.05);
    let schedule = open_loop(5_000_000.0, 0.0, 1.0, now_micros(), |tick| {
        if let Tick::Write { .. } = tick {
            std::hint::black_box(gen.next_op());
        }
    });
    let span = schedule.last_write_s - schedule.first_write_s;
    let achieved = (schedule.writes.saturating_sub(1)) as f64 / span.max(1e-9);
    let highest = highest_offered(config);
    report(
        "sender-capacity",
        achieved >= 5.0 * highest,
        format!("no-op sink took {achieved:.0} writes/s; highest offered rate {highest:.0}/s"),
    )
}

/// `(due_us, latency_us)` of the notifications of a short standalone
/// window on `broker`, optionally with a sender stall before write
/// `stall.0`, and the window's start.
fn standalone_window(
    broker: Broker,
    rate: f64,
    stall: Option<(u64, Duration)>,
) -> (Vec<(u64, f64)>, u64) {
    let mut gen = SharedFilters::new(7, 1_500, 200);
    let rig = Rig::start_on(broker, Deployment::Standalone, &mut gen, 0);
    let mut load = LoadGen::new(&rig, &mut gen, 7, 0.0, Vec::new());
    load.window(rate, 0.5);
    load.stall = stall;
    let w = load.window(rate, 1.5);
    rig.quiesce(Duration::from_millis(200), Duration::from_secs(5));
    let samples = rig
        .shared
        .notify
        .lock()
        .expect("samples")
        .iter()
        .filter(|(due, _)| *due >= w.start_us && *due < w.end_us)
        .map(|(due, got)| (*due, got.saturating_sub(*due) as f64))
        .collect();
    drop(load);
    rig.stop();
    (samples, w.start_us)
}

fn latencies_of(samples: &[(u64, f64)]) -> Vec<f64> {
    samples.iter().map(|(_, l)| *l).collect()
}

fn delivery_stall() -> bool {
    let base = latencies_of(&standalone_window(Broker::new(), 300.0, None).0);
    let chaos = Broker::with_chaos(ChaosConfig {
        seed: 1,
        delay: Some((DELIVERY_STALL, DELIVERY_STALL)),
        drop_probability: 0.0,
        scope: ChaosScope::TopicPrefix(CLUSTER_TOPIC.into()),
    });
    let held = latencies_of(&standalone_window(chaos, 300.0, None).0);
    let stall_us = DELIVERY_STALL.as_micros() as f64;
    let min_held = held.iter().cloned().fold(f64::INFINITY, f64::min);
    let ok =
        !base.is_empty() && !held.is_empty() && median(&base) < stall_us / 2.0 && min_held >= stall_us;
    report(
        "delivery-stall",
        ok,
        format!(
            "median {:.0}us without chaos; with {}ms held back: min {:.0}us over {} notifications",
            median(&base),
            DELIVERY_STALL.as_millis(),
            min_held,
            held.len()
        ),
    )
}

fn sender_stall() -> bool {
    let rate = 400.0;
    let at = 200u64; // due 0.5 s into the window
    let (samples, start_us) = standalone_window(Broker::new(), rate, Some((at, SENDER_STALL)));
    let stall_us = SENDER_STALL.as_micros() as u64;
    let stall_from = start_us + (at as f64 / rate * 1e6) as u64;
    // Every write due during the stall is sent after it: its latency must
    // cover the rest of the stall.
    let behind: Vec<(u64, f64)> = samples
        .iter()
        .copied()
        .filter(|(due, _)| *due >= stall_from && *due < stall_from + stall_us)
        .collect();
    let charged =
        behind.iter().filter(|(due, lat)| *lat >= (stall_from + stall_us - due) as f64).count();
    let rest = latencies_of(&samples);
    let ok =
        !behind.is_empty() && charged == behind.len() && percentile(&rest, 0.5) < stall_us as f64 / 4.0;
    report(
        "sender-stall",
        ok,
        format!(
            "{}ms sender stall: {charged} of {} notifications due during it carry the rest of the stall; median of all {:.0}us",
            SENDER_STALL.as_millis(),
            behind.len(),
            percentile(&rest, 0.5)
        ),
    )
}
