//! The open-loop load generator and the SLA rate ladder.
//!
//! Write *i* of a window is due at `t0 + i / rate`, whatever the system
//! does; the sender sleeps until a write is due and, when it wakes late,
//! sends every overdue write back to back. Each write carries its due time
//! as `ts`, and latency is measured from there, so a stall in the system
//! is charged to every write queued behind it (no coordinated omission).
//! How late the sender itself ran is reported as generator lag.

use crate::procfs;
use crate::rig::Rig;
use crate::stats::percentile;
use crate::workload::{Generator, Op};
use invalidb_common::trace::now_micros;
use invalidb_common::{Document, Key};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A sender whose p99 lag exceeds this fell behind its schedule.
pub const MAX_GENERATOR_LAG_US: f64 = 5_000.0;
/// How often queue depths and the ingress backlog are sampled.
const SAMPLE_EVERY: f64 = 0.005;

/// What one measured window sent and saw.
#[derive(Debug, Default)]
pub struct Window {
    pub start_us: u64,
    pub end_us: u64,
    pub writes: u64,
    pub refused: u64,
    pub churns: u64,
    /// Sender lateness per operation, µs.
    pub lag_us: Vec<f64>,
    /// Duration of each write call into the program, µs.
    pub call_us: Vec<f64>,
    /// Process CPU seconds used during the window.
    pub cpu_s: f64,
    /// Peak sampled queue depth per stream component.
    pub queue_peaks: BTreeMap<String, u64>,
    /// Peak and final sampled ingress backlog (writes sent, not yet taken
    /// off the event layer by the cluster).
    pub backlog_peak: u64,
    pub backlog_end: u64,
    /// The writes, when recording for replay.
    pub ops: Vec<Op>,
    /// When the first and the last write left the sender, seconds into
    /// the window.
    pub first_send_s: f64,
    pub last_send_s: f64,
}

impl Window {
    /// True when the sender kept to its schedule.
    pub fn on_schedule(&self) -> bool {
        percentile(&self.lag_us, 0.99) <= MAX_GENERATOR_LAG_US
    }

    /// Writes per second the sender actually delivered, from the send
    /// times of the first and last write.
    pub fn achieved_rate(&self) -> f64 {
        let span = self.last_send_s - self.first_send_s;
        if self.writes < 2 || span <= 0.0 {
            return 0.0;
        }
        (self.writes - 1) as f64 / span
    }
}

/// Drives one rig with one generator.
pub struct LoadGen<'a> {
    pub rig: &'a Rig,
    gen: &'a mut dyn Generator,
    seq: u64,
    churn_per_s: f64,
    churn_slots: Vec<usize>,
    rng: StdRng,
    /// Final document per key (standalone oracle input).
    pub records: HashMap<Key, Document>,
    pub record_ops: bool,
    /// Pause the sender for the given time before write number `.0` of the
    /// next window (the coordinated-omission self-test).
    pub stall: Option<(u64, Duration)>,
}

impl<'a> LoadGen<'a> {
    pub fn new(
        rig: &'a Rig,
        gen: &'a mut dyn Generator,
        seed: u64,
        churn_per_s: f64,
        churn_slots: Vec<usize>,
    ) -> Self {
        Self {
            rig,
            gen,
            seq: 0,
            churn_per_s,
            churn_slots,
            rng: StdRng::seed_from_u64(seed ^ 0xC4_0C4),
            records: HashMap::new(),
            record_ops: false,
            stall: None,
        }
    }

    /// Offers `rate` writes per second (plus the churn schedule) for
    /// `seconds`, open loop.
    pub fn window(&mut self, rate: f64, seconds: f64) -> Window {
        let rig = self.rig;
        let mut w = Window::default();
        let cpu0 = procfs::process_cpu_seconds();
        let sent0 = rig.cluster_sent.load(Ordering::Relaxed);
        let processed0 = rig.ingress_processed();
        let t0_us = now_micros();
        w.start_us = t0_us;
        let (gen, rng, slots, stall) =
            (&mut *self.gen, &mut self.rng, &self.churn_slots, self.stall.take());
        let (seq, records, record_ops) = (&mut self.seq, &mut self.records, self.record_ops);
        let schedule = open_loop(rate, self.churn_per_s, seconds, t0_us, |tick| match tick {
            Tick::Idle => {
                for (name, m) in &rig.components {
                    let depth = m.queue_depth.load(Ordering::Relaxed);
                    let peak = w.queue_peaks.entry(name.clone()).or_default();
                    *peak = (*peak).max(depth);
                }
                let sent = rig.cluster_sent.load(Ordering::Relaxed) - sent0;
                let backlog = sent.saturating_sub(rig.ingress_processed().saturating_sub(processed0));
                w.backlog_peak = w.backlog_peak.max(backlog);
                w.backlog_end = backlog;
            }
            Tick::Churn { due_us } => {
                let slot = slots[rng.gen_range(0..slots.len())];
                let spec = gen.churn_spec().expect("churning workload");
                rig.churn(slot, spec, due_us);
                w.churns += 1;
            }
            Tick::Write { due_us } => {
                if let Some((at, pause)) = stall {
                    if w.writes == at {
                        std::thread::sleep(pause);
                    }
                }
                let op = gen.next_op();
                let call = Instant::now();
                let ok = rig.exec(&op, *seq, due_us);
                w.call_us.push(call.elapsed().as_secs_f64() * 1e6);
                *seq += 1;
                if !ok {
                    w.refused += 1;
                }
                if let Op::Publish { key, doc, .. } = &op {
                    records.insert(key.clone(), doc.clone());
                }
                if record_ops {
                    w.ops.push(op);
                }
                w.writes += 1;
            }
        });
        w.end_us = t0_us + (seconds * 1e6) as u64;
        w.lag_us = schedule.lag_us;
        w.first_send_s = schedule.first_write_s;
        w.last_send_s = schedule.last_write_s;
        w.cpu_s = procfs::process_cpu_seconds() - cpu0;
        w
    }
}

/// One step of an open-loop schedule.
pub enum Tick {
    /// Nothing is due yet (called at most every 5 ms while waiting).
    Idle,
    /// A write is due at `due_us` (unix microseconds).
    Write { due_us: u64 },
    /// A subscription churn is due at `due_us`.
    Churn { due_us: u64 },
}

/// Timing of a finished schedule.
pub struct Schedule {
    /// Lateness of every operation behind its due time, µs.
    pub lag_us: Vec<f64>,
    /// When the first and the last write were handed to `step`, seconds
    /// after the start.
    pub first_write_s: f64,
    pub last_write_s: f64,
    pub writes: u64,
}

/// Runs an open-loop schedule: write *i* is due `i / rate` seconds after
/// `t0_us`, churn *j* `j / churn_per_s` seconds after it. `step` receives
/// every operation when it is due (all overdue ones back to back when the
/// sender wakes late) and an `Idle` tick at most every 5 ms while waiting.
/// Returns once the window's length has passed.
pub fn open_loop(
    rate: f64,
    churn_per_s: f64,
    seconds: f64,
    t0_us: u64,
    mut step: impl FnMut(Tick),
) -> Schedule {
    let t0 = Instant::now();
    let mut s = Schedule { lag_us: Vec::new(), first_write_s: 0.0, last_write_s: 0.0, writes: 0 };
    let (mut i, mut j) = (0u64, 0u64);
    let mut next_idle = 0.0;
    loop {
        let t_write = i as f64 / rate;
        let t_churn = if churn_per_s > 0.0 { j as f64 / churn_per_s } else { f64::INFINITY };
        let (is_churn, due_s) = if t_churn < t_write { (true, t_churn) } else { (false, t_write) };
        if due_s >= seconds {
            break;
        }
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= next_idle {
                step(Tick::Idle);
                next_idle = elapsed + SAMPLE_EVERY;
            }
            let wait = due_s - elapsed;
            if wait <= 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(wait.min(next_idle - elapsed).max(0.0)));
        }
        let due_us = t0_us + (due_s * 1e6) as u64;
        s.lag_us.push(now_micros().saturating_sub(due_us) as f64);
        if is_churn {
            step(Tick::Churn { due_us });
            j += 1;
        } else {
            let sent_s = t0.elapsed().as_secs_f64();
            if s.writes == 0 {
                s.first_write_s = sent_s;
            }
            s.last_write_s = sent_s;
            step(Tick::Write { due_us });
            s.writes += 1;
            i += 1;
        }
    }
    // Wait out the scheduled end so every window spans its length.
    let rest = seconds - t0.elapsed().as_secs_f64();
    if rest > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(rest));
    }
    step(Tick::Idle);
    s
}

/// Notification latencies (µs) of writes due inside `[start_us, end_us)`.
pub fn latencies(rig: &Rig, start_us: u64, end_us: u64) -> Vec<f64> {
    rig.shared
        .notify
        .lock()
        .expect("samples")
        .iter()
        .filter(|(due, _)| *due >= start_us && *due < end_us)
        .map(|(due, got)| got.saturating_sub(*due) as f64)
        .collect()
}

/// One rung of the rate ladder.
#[derive(Debug)]
pub struct Rung {
    pub offered: f64,
    pub achieved: f64,
    pub p99_us: f64,
    pub tail_p90_us: f64,
    pub lag_p99_us: f64,
    pub backlog_end: u64,
    pub pass: bool,
}

/// Runs one ladder rung: drain, offer `rate` for `seconds`, let stragglers
/// arrive, then judge it against the SLA: notify p99 within `sla_us`, the
/// last quarter of the rung not drifting past it (no growing backlog),
/// an ingress backlog at the end below the SLA's worth of writes, and a
/// sender that delivered the offered rate. Sender lateness needs no test
/// of its own: latency counts from the due time.
pub fn rung(load: &mut LoadGen<'_>, rate: f64, seconds: f64, sla_us: f64) -> Rung {
    load.rig.quiesce(Duration::from_millis(100), Duration::from_secs(3));
    let w = load.window(rate, seconds);
    load.rig.quiesce(Duration::from_millis(50), Duration::from_secs(1));
    let all = latencies(load.rig, w.start_us, w.end_us);
    let tail_start = w.end_us - ((w.end_us - w.start_us) / 4);
    let tail = latencies(load.rig, tail_start, w.end_us);
    let p99 = percentile(&all, 0.99);
    let tail_p90 = percentile(&tail, 0.90);
    let lag = percentile(&w.lag_us, 0.99);
    let backlog_allowance = (rate * sla_us / 1e6).max(50.0) as u64;
    let pass = !all.is_empty()
        && p99 <= sla_us
        && tail_p90 <= sla_us
        && w.achieved_rate() >= 0.97 * rate
        && w.backlog_end <= backlog_allowance;
    Rung {
        offered: rate,
        achieved: w.achieved_rate(),
        p99_us: p99,
        tail_p90_us: tail_p90,
        lag_p99_us: lag,
        backlog_end: w.backlog_end,
        pass,
    }
}

/// Staircase search from `start`: rungs at `start · step^k`, moving up
/// while rungs pass and down while they fail, until a passing rung sits
/// next to a failing one or the budget is spent. `start` lies a little
/// below the knee: an overloaded rung leaves retained writes and grown
/// queues behind that slow the rungs after it, so the search approaches
/// the knee from below and meets overload only at its last rung.
/// Returns the achieved rate of the highest passing rung and every rung.
pub fn ladder(
    load: &mut LoadGen<'_>,
    start: f64,
    step: f64,
    rung_s: f64,
    budget_s: f64,
    sla_us: f64,
) -> (f64, Vec<Rung>) {
    let started = Instant::now();
    let mut results: BTreeMap<i32, bool> = BTreeMap::new();
    let mut rungs = Vec::new();
    let mut best: Option<f64> = None;
    let mut k = 0i32;
    loop {
        let r = rung(load, start * step.powi(k), rung_s, sla_us);
        eprintln!(
            "ladder: offered {:.0}/s achieved {:.1}/s p99 {:.0}us tail-p90 {:.0}us lag-p99 {:.0}us backlog {} -> {}",
            r.offered,
            r.achieved,
            r.p99_us,
            r.tail_p90_us,
            r.lag_p99_us,
            r.backlog_end,
            if r.pass { "pass" } else { "FAIL" }
        );
        results.insert(k, r.pass);
        if r.pass {
            best = Some(best.map_or(r.achieved, |b: f64| b.max(r.achieved)));
        }
        let pass = r.pass;
        rungs.push(r);
        let next = if pass { k + 1 } else { k - 1 };
        let bracketed = results.contains_key(&next);
        let out_of_time = started.elapsed().as_secs_f64() + rung_s > budget_s;
        if bracketed || (out_of_time && best.is_some()) || k <= -24 {
            break;
        }
        k = next;
    }
    (best.unwrap_or(0.0), rungs)
}
