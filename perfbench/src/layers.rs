//! The traced run: per-layer attribution from three sources.
//!
//! * **Counts and busy time** come from an untraced window at the nominal
//!   rate: counters diffed from the shared metrics registry and the
//!   broker, queue depths sampled by the sender, and per-thread CPU from
//!   `/proc/self/task`, grouped into layers by thread name.
//! * **Hop spans** come from a second, traced window: every traced write
//!   carries `TraceContext` stage stamps, and each hop (the destination
//!   stage's wait + service) becomes a span under the write's root span.
//! * **Replay spans** come from replaying the untraced window's writes,
//!   single-threaded, through each layer's public functions; they give
//!   service time, and their sum per write is the single-threaded
//!   baseline.
//!
//! Spans stay in memory and are written once at the end to
//! `.perfbench_out/spans_<workload>_<seed>.jsonl`, followed by one line of
//! self time per span name.
//! The difference in CPU per write between the two windows is the
//! tracing overhead.

use crate::drive::{ladder, latencies, LoadGen, Window};
use crate::procfs;
use crate::rig::{query_hash, Rig};
use crate::stats::{json_number, json_string, mean, percentile};
use crate::workload::{stamped, Op};
use crate::{churn_slots, rig_failures, Config, Outcome, Plan};
use invalidb_broker::Broker;
use invalidb_common::trace::now_micros;
use invalidb_common::{
    AfterImage, ClusterMessage, Key, QueryHash, QuerySpec, Stage, TenantId, TraceContext, Value,
};
use invalidb_core::ingest::decode_cluster_payload;
use invalidb_core::query_index::QueryIndex;
use invalidb_core::SortedWindow;
use invalidb_json::WireCodec;
use invalidb_query::{MongoQueryEngine, PreparedQuery, QueryEngine};
use invalidb_store::{Store, UpdateSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every traced write carries stage stamps at this sampling rate.
const TRACE_EVERY: u64 = 4;
/// Replay spans kept per function (the rest only feed the averages).
const SPANS_PER_FUNCTION: usize = 2_000;
/// Slack the app server gives sorted bootstrap queries by default.
const DEFAULT_SLACK: u64 = 3;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("client.insert_call_us.p50", "us"),
    ("client.insert_call_us.p99", "us"),
    ("client.delivery_hop_us.p50", "us"),
    ("client.delivery_hop_us.p99", "us"),
    ("client.dispatch.busy_pct", "%"),
    ("client.other.busy_pct", "%"),
    ("client.subscribe_call_us.p50", "us"),
    ("client.subscribe_call_us.p99", "us"),
    ("client.renewals", "count"),
    ("client.subscribe_retries", "count"),
    ("store.write_us.p50", "us"),
    ("store.execute_us.p50", "us"),
    ("store.execute_us.p99", "us"),
    ("json.encode_ns_per_write", "ns"),
    ("json.decode_ns_per_write", "ns"),
    ("json.bytes_per_write", "B"),
    ("net.broker_hop_us.p50", "us"),
    ("net.broker_hop_us.p99", "us"),
    ("net.busy_pct", "%"),
    ("broker.publish_ns", "ns"),
    ("broker.dropped", "count"),
    ("ingest.hop_us.p50", "us"),
    ("ingest.hop_us.p99", "us"),
    ("ingest.busy_pct", "%"),
    ("ingest.decode_errors", "count"),
    ("matching.hop_us.p50", "us"),
    ("matching.hop_us.p99", "us"),
    ("matching.busy_pct", "%"),
    ("matching.busy_skew", "ratio"),
    ("matching.candidates_per_write", "count"),
    ("matching.useful_ratio", "ratio"),
    ("matching.probe_ns_per_write", "ns"),
    ("matching.eval_ns_per_write", "ns"),
    ("matching.pred_cache_hits_per_write", "count"),
    ("matching.eq_lane_hits_per_write", "count"),
    ("matching.scanned_queries", "count"),
    ("matching.queue_depth.peak", "count"),
    ("sorting.hop_us.p50", "us"),
    ("sorting.hop_us.p99", "us"),
    ("sorting.busy_pct", "%"),
    ("sorting.apply_ns", "ns"),
    ("sorting.maintenance_errors", "count"),
    ("sorting.pending_shed", "count"),
    ("aggregation.hop_us.p50", "us"),
    ("aggregation.busy_pct", "%"),
    ("notifier.hop_us.p50", "us"),
    ("notifier.hop_us.p99", "us"),
    ("notifier.busy_pct", "%"),
    ("notifier.published_per_write", "count"),
    ("stream.ingress.queue_depth.peak", "count"),
    ("stream.write-ingest.queue_depth.peak", "count"),
    ("stream.matching.queue_depth.peak", "count"),
    ("stream.sorting.queue_depth.peak", "count"),
    ("stream.notifier.queue_depth.peak", "count"),
    ("trace.overhead_pct", "%"),
    ("bench.busy_pct", "%"),
    ("bench.lag_us.p50", "us"),
    ("bench.lag_us.p99", "us"),
    ("unmapped.busy_pct", "%"),
    ("replay.us_per_write", "us"),
    ("oracle.failed", "count"),
    ("e2e.sla_writes_per_s", "1/s"),
    ("e2e.notify_p99_us", "us"),
    ("e2e.subscribe_p50_us", "us"),
    ("e2e.subscribe_p99_us", "us"),
    ("props.notifications_per_write", "count"),
    ("props.candidates_per_write", "count"),
    ("props.distinct_filter_share", "ratio"),
    ("props.duplicated_subscription_share", "ratio"),
    ("props.insert_share", "ratio"),
    ("props.update_share", "ratio"),
    ("props.delete_share", "ratio"),
    ("props.sorted_subscription_share", "ratio"),
    ("props.aggregate_subscription_share", "ratio"),
];

/// A span: name, trace id, own id, parent id (0 = root), start and end.
struct Span {
    name: String,
    trace: u64,
    id: u64,
    parent: u64,
    start_us: u64,
    end_us: u64,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    next_id: u64,
}

impl Spans {
    fn push(&mut self, name: &str, trace: u64, parent: u64, start_us: u64, end_us: u64) -> u64 {
        self.next_id += 1;
        self.spans.push(Span { name: name.into(), trace, id: self.next_id, parent, start_us, end_us });
        self.next_id
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval its children cover (children never overlap here: hops are
    /// consecutive and replay calls sequential).
    fn self_time_us(&self) -> BTreeMap<String, (u64, u64)> {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end_us.saturating_sub(s.start_us);
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let own = s
                .end_us
                .saturating_sub(s.start_us)
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"name\": {}, \"trace\": {}, \"id\": {}, \"parent\": {}, \"start_us\": {}, \"end_us\": {}}}",
                json_string(&s.name),
                s.trace,
                s.id,
                s.parent,
                s.start_us,
                s.end_us
            )?;
        }
        for (name, (count, own)) in self.self_time_us() {
            writeln!(
                f,
                "{{\"self_time\": {}, \"spans\": {count}, \"self_us\": {own}}}",
                json_string(&name)
            )?;
        }
        f.flush()
    }
}

/// Hop latencies per destination stage, from delivered traces.
fn hop_spans(traces: &[TraceContext], spans: &mut Spans) -> HashMap<Stage, Vec<f64>> {
    let mut hops: HashMap<Stage, Vec<f64>> = HashMap::new();
    let mut seen = HashSet::new();
    for t in traces {
        if t.stamps.len() < 2 || !seen.insert(t.trace_id) {
            continue;
        }
        let root = spans.push(
            "write",
            t.trace_id,
            0,
            t.stamps[0].at_micros,
            t.stamps.last().expect("two stamps").at_micros,
        );
        for w in t.stamps.windows(2) {
            if w[1].at_micros < w[0].at_micros {
                continue; // clock skew, not latency
            }
            spans.push(w[1].stage.as_str(), t.trace_id, root, w[0].at_micros, w[1].at_micros);
            hops.entry(w[1].stage).or_default().push((w[1].at_micros - w[0].at_micros) as f64);
        }
    }
    hops
}

/// Times `f` and records a replay span (the first few per function).
fn timed<T>(
    spans: &mut Spans,
    totals: &mut HashMap<&'static str, (u64, f64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start_us = now_micros();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as f64;
    let e = totals.entry(name).or_default();
    e.0 += 1;
    e.1 += ns;
    if (e.0 as usize) <= SPANS_PER_FUNCTION {
        spans.push(name, 0, 0, start_us, start_us + (ns / 1_000.0).ceil() as u64);
    }
    out
}

/// What the single-threaded replay measured.
#[derive(Default)]
struct Replay {
    /// Total ns and call count per replayed function.
    totals: HashMap<&'static str, (u64, f64)>,
    store_write_us: Vec<f64>,
    store_execute_us: Vec<f64>,
    bytes: u64,
    writes: u64,
}

impl Replay {
    fn per_write_ns(&self, name: &str) -> f64 {
        self.totals.get(name).map(|(_, ns)| ns / self.writes.max(1) as f64).unwrap_or(0.0)
    }

    fn per_call_ns(&self, name: &str) -> f64 {
        self.totals.get(name).map(|(n, ns)| ns / (*n).max(1) as f64).unwrap_or(0.0)
    }
}

fn prepare(spec: &QuerySpec) -> Arc<dyn PreparedQuery> {
    MongoQueryEngine.prepare(spec).expect("generated specs are valid")
}

/// Replays `ops` single-threaded through the layers' public functions.
fn replay(plan: &Plan, ops: &[Op], spans: &mut Spans) -> Replay {
    let mut gen = plan.generator();
    let collection = gen.collection();
    let app = plan.deployment != crate::rig::Deployment::Standalone;
    let store = Store::new();
    for field in gen.store_indexes() {
        store.collection(collection).create_index(field).expect("fresh index");
    }
    for (key, doc) in gen.preload() {
        store.insert(collection, key, doc).expect("preload");
    }
    let specs = gen.subscriptions();
    // Whole-query-set index and prepared queries (one per distinct query).
    let mut index: QueryIndex<QueryHash> = QueryIndex::default();
    let mut prepared: HashMap<QueryHash, Arc<dyn PreparedQuery>> = HashMap::new();
    for spec in &specs {
        let h = query_hash(spec);
        if prepared.insert(h, prepare(spec)).is_none() {
            index.insert(h, &spec.filter);
        }
    }
    // Sorted windows, per category value of their filter.
    let mut windows: Vec<(QuerySpec, SortedWindow)> = Vec::new();
    let mut by_category: HashMap<String, Vec<usize>> = HashMap::new();
    let mut seen_sorted = HashSet::new();
    for spec in specs.iter().filter(|s| s.needs_sorting_stage()) {
        if !seen_sorted.insert(query_hash(spec)) {
            continue;
        }
        let initial = store.execute(&spec.rewrite_for_bootstrap(DEFAULT_SLACK)).expect("bootstrap");
        let cat = spec.filter.get("category").and_then(Value::as_str).unwrap_or_default().to_string();
        by_category.entry(cat).or_default().push(windows.len());
        windows.push((spec.clone(), SortedWindow::new(prepare(spec), DEFAULT_SLACK, &initial)));
    }
    let broker = Broker::new();
    let sink = broker.subscribe("replay");
    let codec = WireCodec::default();
    let tenant = TenantId::new(crate::rig::TENANT);
    let mut r = Replay::default();
    let mut candidates = Vec::new();
    let category_of = |store: &Store, key: &Key| -> Option<String> {
        store
            .collection(collection)
            .get(key)
            .and_then(|(_, d)| d.get("category").and_then(Value::as_str).map(str::to_string))
    };
    for op in ops {
        let due = now_micros();
        // 1. The store write (app-server workloads) yields the after-image.
        let (key, version, doc, old_category) = match op {
            Op::Publish { key, version, doc } => (key.clone(), *version, Some(stamped(doc, due)), None),
            _ if !app => unreachable!("standalone replays publish only"),
            op => {
                let key = match op {
                    Op::Insert { key, .. } | Op::Update { key, .. } | Op::Delete { key } => key.clone(),
                    Op::Publish { .. } => unreachable!(),
                };
                let old_category = category_of(&store, &key);
                let t = Instant::now();
                let w = match op {
                    Op::Insert { key, doc } => store.insert(collection, key.clone(), stamped(doc, due)),
                    Op::Update { key, inc } => {
                        let update = UpdateSpec::from_document(&invalidb_common::doc! {
                            "$inc" => invalidb_common::doc! { "score" => *inc },
                            "$set" => invalidb_common::doc! { "ts" => due as i64 }
                        })
                        .expect("valid update");
                        store.update(collection, key.clone(), &update)
                    }
                    Op::Delete { key } => store.delete(collection, key.clone()),
                    Op::Publish { .. } => unreachable!(),
                };
                r.store_write_us.push(t.elapsed().as_secs_f64() * 1e6);
                let w = w.expect("replayed write succeeds");
                (w.key, w.version, w.doc, old_category)
            }
        };
        r.writes += 1;
        // 2. Envelope encode, event-layer publish and ingest decode.
        let img = AfterImage {
            tenant: tenant.clone(),
            collection: collection.into(),
            key: key.clone(),
            version,
            doc: doc.clone(),
            written_at: due,
            trace: None,
        };
        let payload = timed(spans, &mut r.totals, "replay.encode", || {
            codec.encode(&ClusterMessage::Write(img).to_document())
        });
        r.bytes += payload.len() as u64;
        timed(spans, &mut r.totals, "replay.publish", || broker.publish("replay", payload.clone()));
        while sink.try_recv().is_some() {}
        let decoded = timed(spans, &mut r.totals, "replay.decode", || decode_cluster_payload(&payload));
        std::hint::black_box(decoded);
        // 3. Matching: index probe, then predicate evaluation.
        if let Some(d) = &doc {
            candidates.clear();
            timed(spans, &mut r.totals, "replay.probe", || index.candidates(d, &mut candidates));
            let hits = timed(spans, &mut r.totals, "replay.eval", || {
                candidates.iter().filter(|h| prepared[h].matches(d)).count()
            });
            std::hint::black_box(hits);
        }
        // 4. Sorting windows of the record's old and new category.
        let new_category =
            doc.as_ref().and_then(|d| d.get("category").and_then(Value::as_str)).map(str::to_string);
        let mut touched: Vec<usize> = Vec::new();
        for cat in [old_category, new_category].into_iter().flatten() {
            for &i in by_category.get(&cat).into_iter().flatten() {
                if !touched.contains(&i) {
                    touched.push(i);
                }
            }
        }
        for i in touched {
            let outcome = timed(spans, &mut r.totals, "replay.window_apply", || {
                windows[i].1.apply(&key, version, doc.as_ref())
            });
            if outcome.error.is_some() {
                // Renewal: reseed from the store, as the app server would.
                let spec = windows[i].0.clone();
                let fresh =
                    store.execute(&spec.rewrite_for_bootstrap(DEFAULT_SLACK)).expect("bootstrap");
                windows[i].1 = SortedWindow::new(prepare(&spec), DEFAULT_SLACK, &fresh);
            }
        }
    }
    // 5. Pull-query executions, as subscribe and renewal run them.
    if app {
        for spec in &specs {
            let mut rewritten =
                spec.rewrite_for_bootstrap(if spec.needs_sorting_stage() { DEFAULT_SLACK } else { 0 });
            rewritten.aggregate = None;
            let t = Instant::now();
            let rows = store.execute(&rewritten).expect("pull query");
            r.store_execute_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(rows);
        }
    }
    r
}

fn counter(snap: &invalidb_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn counters_ending(snap: &invalidb_obs::MetricsSnapshot, suffix: &str) -> u64 {
    snap.counters.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| *v).sum()
}

/// Runs the untraced reference window; returns it with busy shares,
/// counter deltas and broker drops over the window.
struct Reference {
    window: Window,
    busy: BTreeMap<String, f64>,
    matching_threads: Vec<f64>,
    unmapped: Vec<String>,
    delta: BTreeMap<String, u64>,
    scanned_queries: u64,
    notifications: usize,
    notify_p99_us: f64,
    subscribe_us: Vec<f64>,
    sla_writes_per_s: f64,
    failed: u64,
    attempted: u64,
}

fn reference(plan: &Plan, config: &Config, seconds: f64) -> Reference {
    let mut gen = plan.generator();
    let rig = Rig::start(plan.deployment, gen.as_mut(), 0);
    let mut load = LoadGen::new(&rig, gen.as_mut(), plan.seed, plan.churn_per_s, churn_slots(plan));
    // Record from the warm-up on: the replay must see every write the
    // window's writes build on.
    load.record_ops = true;
    let mut warm = load.window(plan.nominal_rate, crate::WARMUP_SECONDS);
    let before = rig.metrics();
    let broker_before = rig.broker.stats();
    let decode_before = rig.cluster.as_ref().map(|c| c.decode_errors()).unwrap_or(0);
    let threads_before = procfs::thread_cpu();
    let t = Instant::now();
    let mut window = load.window(plan.nominal_rate, seconds);
    let mut ops = std::mem::take(&mut warm.ops);
    ops.append(&mut window.ops);
    window.ops = ops;
    let wall = t.elapsed().as_secs_f64();
    let threads_after = procfs::thread_cpu();
    rig.quiesce(Duration::from_millis(300), Duration::from_secs(10));
    let after = rig.metrics();
    let broker_after = rig.broker.stats();
    let decode_after = rig.cluster.as_ref().map(|c| c.decode_errors()).unwrap_or(0);
    let (checked, mismatches) = rig.oracle(&load.records);
    let layers = config.thread_layers();
    let (busy, by_thread, unmapped) =
        procfs::busy_by_layer(&threads_before, &threads_after, wall, &layers);
    let matching_threads = by_thread
        .iter()
        .filter(|(name, _)| name.starts_with("bolt-matching-"))
        .map(|(_, v)| *v)
        .collect();
    let mut delta = BTreeMap::new();
    for name in [
        "matching.matched",
        "matching.filtered",
        "matching.index.pred_cache_hits",
        "matching.index.eq_lane_hits",
        "sorting.maintenance_errors",
        "sorting.pending_shed",
        "notifier.published",
        "appserver.renewals",
        "appserver.subscribe_retries",
        "ingress.decode_errors",
    ] {
        delta.insert(name.to_string(), counter(&after, name).saturating_sub(counter(&before, name)));
    }
    let link_drops =
        counters_ending(&after, ".dropped").saturating_sub(counters_ending(&before, ".dropped"));
    delta.insert("broker.dropped".into(), (broker_after.2 - broker_before.2) + link_drops);
    delta.insert("decode_errors".into(), decode_after - decode_before);
    let scanned_queries = after.gauges.get("matching.index.scanned_queries").copied().unwrap_or(0);
    let notifications = latencies(&rig, window.start_us, window.end_us).len();
    let notify_p99_us = crate::windowed_quantile(&rig, window.start_us, window.end_us, 0.99);
    let subscribe_us = crate::subscribe_latencies(&rig);
    let failed = warm.refused + window.refused + rig_failures(&rig) + mismatches;
    let attempted = warm.writes
        + warm.churns
        + window.writes
        + window.churns
        + rig.subscription_count() as u64
        + checked;
    // The SLA ladder runs last: its overload rungs must not reach any
    // figure above, and the oracle does not cover it (overload may shed).
    load.record_ops = false;
    let (sla_writes_per_s, _) = ladder(
        &mut load,
        plan.ladder_start,
        plan.ladder_step,
        crate::RUNG_SECONDS,
        seconds,
        plan.sla_us,
    );
    drop(load);
    rig.stop();
    Reference {
        window,
        busy,
        matching_threads,
        unmapped,
        delta,
        scanned_queries,
        notifications,
        notify_p99_us,
        subscribe_us,
        sla_writes_per_s,
        failed,
        attempted,
    }
}

/// The traced window: stage-stamped writes; returns CPU per write, the
/// delivered traces and the write-call and subscribe-call durations.
fn traced_window(plan: &Plan, seconds: f64) -> (f64, Vec<TraceContext>, Vec<f64>, Vec<f64>, u64, u64) {
    let mut gen = plan.generator();
    let rig = Rig::start(plan.deployment, gen.as_mut(), TRACE_EVERY);
    let mut load = LoadGen::new(&rig, gen.as_mut(), plan.seed, plan.churn_per_s, churn_slots(plan));
    let warm = load.window(plan.nominal_rate, crate::WARMUP_SECONDS);
    let traces_from = rig.shared.traces.lock().expect("traces").len();
    let window = load.window(plan.nominal_rate, seconds);
    rig.quiesce(Duration::from_millis(300), Duration::from_secs(10));
    let (checked, mismatches) = rig.oracle(&load.records);
    let traces = rig.shared.traces.lock().expect("traces")[traces_from..].to_vec();
    let calls = rig.shared.subscribe_calls.lock().expect("calls").clone();
    let cpu_per_write = window.cpu_s * 1e6 / window.writes.max(1) as f64;
    let failed = warm.refused + window.refused + rig_failures(&rig) + mismatches;
    let attempted = warm.writes
        + warm.churns
        + window.writes
        + window.churns
        + rig.subscription_count() as u64
        + checked;
    drop(load);
    rig.stop();
    (cpu_per_write, traces, window.call_us, calls, failed, attempted)
}

/// The `--trace 1` run.
pub fn traced(plan: &Plan, config: &Config) -> Outcome {
    let seconds = plan.seconds / 2.0;
    let reference = reference(plan, config, seconds);
    let (cpu_traced, traces, call_us, subscribe_calls, traced_failed, traced_attempted) =
        traced_window(plan, seconds);
    let mut spans = Spans::default();
    let hops = hop_spans(&traces, &mut spans);
    let replay = replay(plan, &reference.window.ops, &mut spans);
    let path =
        std::path::Path::new(".perfbench_out").join(format!("spans_{}_{}.jsonl", plan.name, plan.seed));
    if let Err(e) = spans.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!("{}: {} spans written to {}", plan.name, spans.spans.len(), path.display());
    if !reference.unmapped.is_empty() {
        eprintln!("{}: threads mapped to no layer: {:?}", plan.name, reference.unmapped);
    }

    let w = &reference.window;
    let writes = w.writes.max(1) as f64;
    let d = |k: &str| reference.delta.get(k).copied().unwrap_or(0) as f64;
    let busy = |k: &str| reference.busy.get(k).copied().unwrap_or(0.0);
    let hop = |s: Stage, q: f64| hops.get(&s).map(|v| percentile(v, q)).unwrap_or(0.0);
    let candidates = d("matching.matched") + d("matching.filtered");
    let cpu_reference = w.cpu_s * 1e6 / writes;
    let mut gen = plan.generator();
    let specs = gen.subscriptions();
    let mut hash_count: HashMap<QueryHash, usize> = HashMap::new();
    for s in &specs {
        *hash_count.entry(query_hash(s)).or_default() += 1;
    }
    let subs = specs.len().max(1) as f64;
    let duplicated = specs.iter().filter(|s| hash_count[&query_hash(s)] > 1).count() as f64;
    let mut seen_keys: HashSet<Key> = gen.preload().into_iter().map(|(k, _)| k).collect();
    let recorded = w.ops.len().max(1) as f64;
    let (mut inserts, mut updates, mut deletes) = (0.0, 0.0, 0.0);
    for op in &w.ops {
        match op {
            Op::Insert { .. } => inserts += 1.0,
            Op::Update { .. } => updates += 1.0,
            Op::Delete { .. } => deletes += 1.0,
            Op::Publish { key, .. } => {
                if seen_keys.insert(key.clone()) {
                    inserts += 1.0
                } else {
                    updates += 1.0
                }
            }
        }
    }
    let matching = &reference.matching_threads;
    let skew = if matching.is_empty() || mean(matching) <= 0.0 {
        0.0
    } else {
        matching.iter().cloned().fold(0.0, f64::max) / mean(matching)
    };
    let replay_us_per_write =
        replay.totals.values().map(|(_, ns)| ns).sum::<f64>() / 1_000.0 / replay.writes.max(1) as f64
            + replay.store_write_us.iter().sum::<f64>() / replay.writes.max(1) as f64;
    let app = plan.deployment != crate::rig::Deployment::Standalone;
    let values: HashMap<&str, f64> = HashMap::from([
        ("client.insert_call_us.p50", if app { percentile(&call_us, 0.5) } else { 0.0 }),
        ("client.insert_call_us.p99", if app { percentile(&call_us, 0.99) } else { 0.0 }),
        ("client.delivery_hop_us.p50", hop(Stage::Delivery, 0.5)),
        ("client.delivery_hop_us.p99", hop(Stage::Delivery, 0.99)),
        ("client.dispatch.busy_pct", busy("client.dispatch")),
        ("client.other.busy_pct", busy("client.other")),
        ("client.subscribe_call_us.p50", percentile(&subscribe_calls, 0.5)),
        ("client.subscribe_call_us.p99", percentile(&subscribe_calls, 0.99)),
        ("client.renewals", d("appserver.renewals")),
        ("client.subscribe_retries", d("appserver.subscribe_retries")),
        ("store.write_us.p50", percentile(&replay.store_write_us, 0.5)),
        ("store.execute_us.p50", percentile(&replay.store_execute_us, 0.5)),
        ("store.execute_us.p99", percentile(&replay.store_execute_us, 0.99)),
        ("json.encode_ns_per_write", replay.per_write_ns("replay.encode")),
        ("json.decode_ns_per_write", replay.per_write_ns("replay.decode")),
        ("json.bytes_per_write", replay.bytes as f64 / replay.writes.max(1) as f64),
        ("net.broker_hop_us.p50", hop(Stage::Broker, 0.5)),
        ("net.broker_hop_us.p99", hop(Stage::Broker, 0.99)),
        ("net.busy_pct", busy("net")),
        ("broker.publish_ns", replay.per_call_ns("replay.publish")),
        ("broker.dropped", d("broker.dropped")),
        ("ingest.hop_us.p50", hop(Stage::Ingestion, 0.5)),
        ("ingest.hop_us.p99", hop(Stage::Ingestion, 0.99)),
        ("ingest.busy_pct", busy("ingest")),
        ("ingest.decode_errors", d("decode_errors")),
        ("matching.hop_us.p50", hop(Stage::Matching, 0.5)),
        ("matching.hop_us.p99", hop(Stage::Matching, 0.99)),
        ("matching.busy_pct", busy("matching")),
        ("matching.busy_skew", skew),
        ("matching.candidates_per_write", candidates / writes),
        (
            "matching.useful_ratio",
            if candidates > 0.0 { d("matching.matched") / candidates } else { 0.0 },
        ),
        ("matching.probe_ns_per_write", replay.per_write_ns("replay.probe")),
        ("matching.eval_ns_per_write", replay.per_write_ns("replay.eval")),
        ("matching.pred_cache_hits_per_write", d("matching.index.pred_cache_hits") / writes),
        ("matching.eq_lane_hits_per_write", d("matching.index.eq_lane_hits") / writes),
        ("matching.scanned_queries", reference.scanned_queries as f64),
        ("matching.queue_depth.peak", w.queue_peaks.get("matching").copied().unwrap_or(0) as f64),
        ("sorting.hop_us.p50", hop(Stage::Sorting, 0.5)),
        ("sorting.hop_us.p99", hop(Stage::Sorting, 0.99)),
        ("sorting.busy_pct", busy("sorting")),
        ("sorting.apply_ns", replay.per_call_ns("replay.window_apply")),
        ("sorting.maintenance_errors", d("sorting.maintenance_errors")),
        ("sorting.pending_shed", d("sorting.pending_shed")),
        ("aggregation.hop_us.p50", hop(Stage::Aggregation, 0.5)),
        ("aggregation.busy_pct", busy("aggregation")),
        ("notifier.hop_us.p50", hop(Stage::Notifier, 0.5)),
        ("notifier.hop_us.p99", hop(Stage::Notifier, 0.99)),
        ("notifier.busy_pct", busy("notifier")),
        ("notifier.published_per_write", d("notifier.published") / writes),
        ("stream.ingress.queue_depth.peak", w.backlog_peak as f64),
        (
            "stream.write-ingest.queue_depth.peak",
            w.queue_peaks.get("write-ingest").copied().unwrap_or(0) as f64,
        ),
        ("stream.matching.queue_depth.peak", w.queue_peaks.get("matching").copied().unwrap_or(0) as f64),
        ("stream.sorting.queue_depth.peak", w.queue_peaks.get("sorting").copied().unwrap_or(0) as f64),
        ("stream.notifier.queue_depth.peak", w.queue_peaks.get("notifier").copied().unwrap_or(0) as f64),
        ("trace.overhead_pct", 100.0 * (cpu_traced / cpu_reference.max(1e-9) - 1.0)),
        ("bench.busy_pct", busy("bench")),
        ("bench.lag_us.p50", percentile(&w.lag_us, 0.5)),
        ("bench.lag_us.p99", percentile(&w.lag_us, 0.99)),
        ("unmapped.busy_pct", busy("unmapped")),
        ("replay.us_per_write", replay_us_per_write),
        ("oracle.failed", (reference.failed + traced_failed) as f64),
        ("e2e.sla_writes_per_s", reference.sla_writes_per_s),
        ("e2e.notify_p99_us", reference.notify_p99_us),
        ("e2e.subscribe_p50_us", percentile(&reference.subscribe_us, 0.5)),
        ("e2e.subscribe_p99_us", percentile(&reference.subscribe_us, 0.99)),
        ("props.notifications_per_write", reference.notifications as f64 / writes),
        ("props.candidates_per_write", candidates / writes),
        ("props.distinct_filter_share", hash_count.len() as f64 / subs),
        ("props.duplicated_subscription_share", duplicated / subs),
        ("props.insert_share", inserts / recorded),
        ("props.update_share", updates / recorded),
        ("props.delete_share", deletes / recorded),
        (
            "props.sorted_subscription_share",
            specs.iter().filter(|s| s.needs_sorting_stage()).count() as f64 / subs,
        ),
        (
            "props.aggregate_subscription_share",
            specs.iter().filter(|s| s.needs_aggregation_stage()).count() as f64 / subs,
        ),
    ]);
    let metrics: Vec<(String, f64, &'static str)> =
        PER_LAYER.iter().map(|(name, unit)| (name.to_string(), values[name], *unit)).collect();
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<40} {} {unit}", json_number(*value));
    }
    let failed = reference.failed + traced_failed;
    Outcome { correct: failed == 0, attempted: reference.attempted + traced_attempted, failed, metrics }
}
