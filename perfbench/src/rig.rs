//! Deployments under test, the notification collector and the
//! correctness oracle.
//!
//! A [`Rig`] is one running deployment: the in-process `Cluster` (grid
//! QP = 2 × WP = 2), plus — for the app-server workloads — a `Store` and an
//! `AppServer`, plus — for `quaestor_ranges` — a loopback `BrokerServer`
//! that the cluster and the app server each reach through their own
//! `RemoteBroker` connection.
//!
//! The collector thread taps the tenant's notify topic on the same event
//! layer endpoint the subscriber uses. In the app-server workloads it then
//! takes the matching event off the subscriber's `Subscription`, so a
//! notification is timed when the subscriber receives it; in the
//! standalone workload the tap *is* the subscriber.

use crate::workload::{stamped, Generator, Op};
use invalidb_broker::{notify_topic, Broker, BrokerHandle, CLUSTER_TOPIC};
use invalidb_client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb_common::trace::now_micros;
use invalidb_common::{
    doc, AfterImage, ClusterMessage, Document, Key, MatchType, Notification, NotificationKind,
    QueryHash, QuerySpec, SubscriptionId, SubscriptionRequest, TenantId, TraceContext, Value,
};
use invalidb_core::{Cluster, ClusterConfig};
use invalidb_json::{PayloadView, WireCodec};
use invalidb_net::{BrokerServer, BrokerServerConfig, RemoteBroker, RemoteBrokerConfig};
use invalidb_obs::{ComponentMetrics, MetricsRegistry, MetricsSnapshot};
use invalidb_query::{normalize_spec, MongoQueryEngine, QueryEngine};
use invalidb_store::{Store, UpdateSpec};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tenant every workload runs under.
pub const TENANT: &str = "bench";
/// Grid shape of every deployment (the paper's 2-D scheme at two cores).
pub const QP: usize = 2;
pub const WP: usize = 2;
/// Subscriptions in flight during set-up: one, so subscribe latency is
/// the round trip, not a queue position.
const SUBSCRIBE_WINDOW: u64 = 1;
/// Longest the collector waits for the subscriber to receive a
/// notification the tap already saw before counting it as missing.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(2);
/// Subscription TTL of standalone subscriptions (outlives every run).
const STANDALONE_TTL_US: u64 = 600_000_000;

/// How a workload is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// `AppServer` + `Store` + cluster over a loopback TCP event layer.
    AppOverTcp,
    /// `AppServer` + `Store` + cluster on the in-process broker.
    AppInProcess,
    /// The cluster alone; the benchmark publishes envelopes itself.
    Standalone,
}

/// What the collector observed, shared with the sender.
#[derive(Default)]
pub struct Shared {
    /// `(due_us, received_us)` per delivered change notification.
    pub notify: Mutex<Vec<(u64, u64)>>,
    /// `(start_us, received_us)` per initial result of a subscription.
    pub subscribe: Mutex<Vec<(u64, u64)>>,
    /// Initial results received.
    pub initials: AtomicU64,
    /// Wall clock of the last non-heartbeat notification.
    pub last_event_us: AtomicU64,
    /// Notifications the tap saw that never reached the subscriber.
    pub missing: AtomicU64,
    /// Notifications received twice for the same record version.
    pub duplicates: AtomicU64,
    /// Subscriptions the app server refused.
    pub subscribe_errors: AtomicU64,
    /// Traces carried by delivered notifications (traced runs only).
    pub traces: Mutex<Vec<TraceContext>>,
    /// `(call_start_us, due_us)` per app-server write, to find the due time
    /// of notifications that carry no document (deletes, aggregates).
    pub write_log: Mutex<Vec<(u64, u64)>>,
    /// `AppServer::subscribe` call durations, µs.
    pub subscribe_calls: Mutex<Vec<f64>>,
}

impl Shared {
    fn due_of_write_at(&self, written_at: u64) -> Option<u64> {
        let log = self.write_log.lock().expect("write log");
        let i = log.partition_point(|(start, _)| *start <= written_at);
        (i > 0).then(|| log[i - 1].1)
    }

    fn record_change(&self, due_us: u64, now: u64) {
        self.notify.lock().expect("samples").push((due_us, now));
    }
}

fn ts_of(doc: Option<&Document>) -> Option<u64> {
    doc?.get("ts")?.as_i64().map(|t| t as u64)
}

/// One app-server subscription owned by the collector.
struct Slot {
    sub: Subscription,
    spec: QuerySpec,
    /// Start of a subscribe whose initial result has not arrived yet.
    pending_since: Option<u64>,
    /// `(key, version, match type)` already delivered (unsorted only).
    seen: HashSet<(Vec<u8>, u64, u8)>,
    last_trace: u64,
}

enum Cmd {
    /// Take ownership of a subscription made on another thread.
    Adopt {
        slot: usize,
        sub: Box<Subscription>,
        spec: QuerySpec,
        start_us: u64,
    },
    Stop,
}

#[derive(Default)]
struct AppState {
    slots: Vec<Option<Slot>>,
    by_id: HashMap<SubscriptionId, usize>,
    /// Cancelled subscriptions: their in-flight notifications are dropped
    /// by the app server, and by the collector too.
    retired: HashSet<SubscriptionId>,
}

/// Standalone subscriptions, folded from their notification streams.
#[derive(Default)]
struct FoldState {
    /// Per subscription: key → (newest version, currently in result).
    results: Vec<HashMap<Key, (u64, bool)>>,
    /// Per subscription: when its Subscribe envelope was published.
    start_us: Vec<u64>,
}

/// A running deployment.
pub struct Rig {
    pub broker: Broker,
    pub registry: MetricsRegistry,
    pub cluster: Option<Cluster>,
    pub app: Option<Arc<AppServer>>,
    pub store: Option<Arc<Store>>,
    net: Option<(BrokerServer, RemoteBroker, RemoteBroker)>,
    pub shared: Arc<Shared>,
    inbox: mpsc::Sender<Cmd>,
    collector: Option<std::thread::JoinHandle<()>>,
    app_state: Arc<Mutex<AppState>>,
    fold: Arc<Mutex<FoldState>>,
    specs: Vec<QuerySpec>,
    collection: &'static str,
    codec: WireCodec,
    /// Messages the benchmark caused on the cluster topic (writes).
    pub cluster_sent: AtomicU64,
    /// Stream components whose queue depth is sampled.
    pub components: Vec<(String, Arc<ComponentMetrics>)>,
    ingress: Arc<ComponentMetrics>,
    trace_every: u64,
}

fn engine_prepare(spec: &QuerySpec) -> Arc<dyn invalidb_query::PreparedQuery> {
    MongoQueryEngine.prepare(spec).expect("generated specs are valid")
}

/// Hash under which the cluster groups a spec (as the app server does).
pub fn query_hash(spec: &QuerySpec) -> QueryHash {
    normalize_spec(spec).stable_hash()
}

impl Rig {
    /// Starts a deployment, preloads the store, registers every
    /// subscription and returns once all of them are live: the summed
    /// `matching.<qp>x<wp>.active_queries` gauges reach the expected count
    /// and every subscription has delivered its initial result.
    pub fn start(deployment: Deployment, gen: &mut dyn Generator, trace_every: u64) -> Rig {
        Rig::start_on(Broker::new(), deployment, gen, trace_every)
    }

    /// [`Rig::start`] on a given in-process broker (e.g. one injecting
    /// chaos delays).
    pub fn start_on(
        broker: Broker,
        deployment: Deployment,
        gen: &mut dyn Generator,
        trace_every: u64,
    ) -> Rig {
        let registry = MetricsRegistry::new();
        let mut cluster_cfg = ClusterConfig::new(QP, WP);
        cluster_cfg.metrics = registry.clone();
        // TTL extensions go out for every subscription at once; a 60 s
        // refresh keeps that burst out of every measured window (a run is
        // shorter), so windows never depend on where the burst fell.
        let app_cfg = AppServerConfig {
            metrics: registry.clone(),
            trace_sample_every: trace_every,
            ttl: Duration::from_secs(120),
            ttl_refresh_interval: Duration::from_secs(60),
            ..AppServerConfig::default()
        };
        let store = (deployment != Deployment::Standalone).then(|| {
            let store = Arc::new(Store::new());
            for field in gen.store_indexes() {
                store.collection(gen.collection()).create_index(field).expect("fresh index");
            }
            for (key, doc) in gen.preload() {
                store.insert(gen.collection(), key, doc).expect("preload insert");
            }
            store
        });
        let (cluster, app, net, tap) = match deployment {
            Deployment::AppOverTcp => {
                let server = BrokerServer::bind(
                    "127.0.0.1:0",
                    broker.clone(),
                    BrokerServerConfig { metrics: registry.clone(), ..BrokerServerConfig::default() },
                )
                .expect("bind loopback broker server");
                let addr = server.local_addr().to_string();
                let link = |name: &str| {
                    let remote = RemoteBroker::connect(
                        addr.clone(),
                        RemoteBrokerConfig {
                            client_name: name.into(),
                            metrics: registry.clone(),
                            ..RemoteBrokerConfig::default()
                        },
                    );
                    assert!(remote.wait_connected(Duration::from_secs(10)), "{name} link connects");
                    remote
                };
                let cluster_link = link("cluster");
                let app_link = link("app");
                let cluster = Cluster::start(BrokerHandle::new(cluster_link.clone()), cluster_cfg);
                let app = AppServer::start(
                    TENANT,
                    store.clone().expect("store"),
                    BrokerHandle::new(app_link.clone()),
                    app_cfg,
                );
                let tap = app_link.subscribe(&notify_topic(TENANT));
                // Both directions must be routed by the server before the
                // first envelope is sent: the server relays nothing it
                // receives before a peer subscribed.
                wait_until(Duration::from_secs(10), || {
                    broker.subscriber_count(CLUSTER_TOPIC) > 0
                        && broker.subscriber_count(&notify_topic(TENANT)) > 0
                });
                (cluster, Some(Arc::new(app)), Some((server, cluster_link, app_link)), tap)
            }
            Deployment::AppInProcess => {
                let cluster = Cluster::start(broker.clone(), cluster_cfg);
                let app =
                    AppServer::start(TENANT, store.clone().expect("store"), broker.clone(), app_cfg);
                let tap = broker.subscribe(&notify_topic(TENANT));
                (cluster, Some(Arc::new(app)), None, tap)
            }
            Deployment::Standalone => {
                let cluster = Cluster::start(broker.clone(), cluster_cfg);
                let tap = broker.subscribe(&notify_topic(TENANT));
                (cluster, None, None, tap)
            }
        };
        let topology = cluster.topology_metrics();
        let components = ["write-ingest", "matching", "sorting", "aggregation", "notifier"]
            .iter()
            .map(|c| (c.to_string(), topology.component(c)))
            .collect();
        let ingress = topology.component("ingress");
        let specs = gen.subscriptions();
        let shared = Arc::new(Shared::default());
        let app_state = Arc::new(Mutex::new(AppState {
            slots: (0..specs.len()).map(|_| None).collect(),
            by_id: HashMap::new(),
            retired: HashSet::new(),
        }));
        let fold = Arc::new(Mutex::new(FoldState {
            results: vec![HashMap::new(); specs.len()],
            start_us: vec![0; specs.len()],
        }));
        let (inbox, rx) = mpsc::channel();
        let collector = {
            let shared = Arc::clone(&shared);
            let app = app.clone();
            let app_state = Arc::clone(&app_state);
            let fold = Arc::clone(&fold);
            std::thread::Builder::new()
                .name("bench-collector".into())
                .spawn(move || match app {
                    Some(app) => app_collector(tap, app, app_state, shared, rx),
                    None => standalone_collector(tap, fold, shared, rx),
                })
                .expect("spawn collector")
        };
        let mut rig = Rig {
            broker,
            registry,
            cluster: Some(cluster),
            app,
            store,
            net,
            shared,
            inbox,
            collector: Some(collector),
            app_state,
            fold,
            specs,
            collection: gen.collection(),
            codec: WireCodec::default(),
            cluster_sent: AtomicU64::new(0),
            components,
            ingress,
            trace_every,
        };
        rig.subscribe_all();
        rig
    }

    fn subscribe_all(&mut self) {
        let specs = self.specs.clone();
        for (i, spec) in specs.iter().enumerate() {
            while (i as u64).saturating_sub(self.shared.initials.load(Ordering::Relaxed))
                >= SUBSCRIBE_WINDOW
            {
                std::thread::sleep(Duration::from_micros(50));
            }
            let start_us = now_micros();
            match &self.app {
                Some(_) => {
                    if !self.subscribe_slot(i, spec.clone(), start_us) {
                        self.shared.initials.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    self.fold.lock().expect("fold").start_us[i] = start_us;
                    let msg = ClusterMessage::Subscribe(SubscriptionRequest {
                        tenant: TenantId::new(TENANT),
                        subscription: SubscriptionId(i as u64 + 1),
                        query_hash: query_hash(spec),
                        spec: spec.clone(),
                        initial: Vec::new(),
                        slack: 0,
                        ttl_micros: STANDALONE_TTL_US,
                        renewal: false,
                    });
                    self.broker.publish(CLUSTER_TOPIC, self.codec.encode(&msg.to_document()));
                }
            }
        }
        let n = specs.len() as u64;
        let live =
            wait_until(Duration::from_secs(60), || self.shared.initials.load(Ordering::Relaxed) >= n);
        assert!(live, "every subscription delivers its initial result");
        let distinct: HashSet<QueryHash> = specs.iter().map(query_hash).collect();
        let expected = (distinct.len() * WP) as u64;
        let registered = wait_until(Duration::from_secs(60), || self.active_queries() >= expected);
        assert!(registered, "matching grid reports {expected} active query cells");
    }

    /// Sum of the `matching.<qp>x<wp>.active_queries` gauges.
    pub fn active_queries(&self) -> u64 {
        let snap = self.metrics();
        snap.gauges
            .iter()
            .filter(|(k, _)| k.starts_with("matching.") && k.ends_with(".active_queries"))
            .map(|(_, v)| *v)
            .sum()
    }

    /// The shared registry snapshot (cluster, app server and net layer).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Messages the ingress has taken off the event layer.
    pub fn ingress_processed(&self) -> u64 {
        self.ingress.processed.load(Ordering::Relaxed)
    }

    /// Number of initial subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.specs.len()
    }

    /// Sends one write, stamped with its due time. Returns `false` when the
    /// program refused it.
    pub fn exec(&self, op: &Op, seq: u64, due_us: u64) -> bool {
        let ok = match (&self.app, op) {
            (Some(app), op) => {
                let start = now_micros();
                let result = match op {
                    Op::Insert { key, doc } => {
                        app.insert(self.collection, key.clone(), stamped(doc, due_us))
                    }
                    Op::Update { key, inc } => {
                        let update = UpdateSpec::from_document(&doc! {
                            "$inc" => doc! { "score" => *inc },
                            "$set" => doc! { "ts" => due_us as i64 }
                        })
                        .expect("valid update");
                        app.update(self.collection, key.clone(), &update)
                    }
                    Op::Delete { key } => app.delete(self.collection, key.clone()),
                    Op::Publish { .. } => unreachable!("standalone op on an app-server rig"),
                };
                self.shared.write_log.lock().expect("write log").push((start, due_us));
                result.is_ok()
            }
            (None, Op::Publish { key, version, doc }) => {
                let traced = self.trace_every > 0 && seq.is_multiple_of(self.trace_every);
                let img = AfterImage {
                    tenant: TenantId::new(TENANT),
                    collection: self.collection.into(),
                    key: key.clone(),
                    version: *version,
                    doc: Some(stamped(doc, due_us)),
                    written_at: now_micros(),
                    trace: traced.then(|| TraceContext::start(seq + 1)),
                };
                self.broker.publish(
                    CLUSTER_TOPIC,
                    self.codec.encode(&ClusterMessage::Write(img).to_document()),
                );
                true
            }
            (None, _) => unreachable!("app-server op on a standalone rig"),
        };
        self.cluster_sent.fetch_add(1, Ordering::Relaxed);
        ok
    }

    /// Subscribes `spec` through the app server and hands the
    /// subscription to the collector as `slot`, cancelling the one it
    /// replaces. Returns `false` when the app server refused it.
    fn subscribe_slot(&self, slot: usize, spec: QuerySpec, start_us: u64) -> bool {
        let app = self.app.as_ref().expect("app-server rig");
        let call = Instant::now();
        let result = app.subscribe(&spec);
        self.shared.subscribe_calls.lock().expect("calls").push(call.elapsed().as_secs_f64() * 1e6);
        match result {
            Ok(sub) => {
                let _ = self.inbox.send(Cmd::Adopt { slot, sub: Box::new(sub), spec, start_us });
                true
            }
            Err(_) => {
                self.shared.subscribe_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Replaces subscription `slot` with a fresh one (`sorted_churn`); the
    /// subscribe latency counts from `due_us`.
    pub fn churn(&self, slot: usize, spec: QuerySpec, due_us: u64) {
        self.subscribe_slot(slot, spec, due_us);
    }

    /// Waits until notifications stopped arriving for `quiet` and no
    /// sorted subscription waits for a renewal, at most `limit`.
    pub fn quiesce(&self, quiet: Duration, limit: Duration) -> bool {
        let quiet_us = quiet.as_micros() as u64;
        wait_until(limit, || {
            let idle = now_micros().saturating_sub(self.shared.last_event_us.load(Ordering::Relaxed))
                >= quiet_us;
            idle && !self.any_degraded()
        })
    }

    fn any_degraded(&self) -> bool {
        let state = self.app_state.lock().expect("app state");
        state.slots.iter().flatten().any(|s| s.sub.result().is_degraded() || s.pending_since.is_some())
    }

    /// Compares every subscription with a pull re-run of its query and
    /// returns `(subscriptions checked, mismatches)`. `records` is the
    /// final state of the standalone workload's key space.
    pub fn oracle(&self, records: &HashMap<Key, Document>) -> (u64, u64) {
        match &self.store {
            Some(store) => self.app_oracle(store),
            None => self.standalone_oracle(records),
        }
    }

    fn app_oracle(&self, store: &Store) -> (u64, u64) {
        let state = self.app_state.lock().expect("app state");
        let mut checked = 0;
        let mut mismatches = 0;
        for slot in state.slots.iter().flatten() {
            checked += 1;
            let ok = if slot.spec.needs_aggregation_stage() {
                let plain = QuerySpec { aggregate: None, ..slot.spec.clone() };
                let expected = store.execute(&plain).map(|rows| rows.len() as u64).ok();
                slot.sub.aggregate().map(|(_, count)| *count) == expected
            } else {
                let expected: Vec<(Key, u64)> = store
                    .execute(&slot.spec)
                    .map(|rows| rows.into_iter().map(|r| (r.key, r.version)).collect())
                    .unwrap_or_default();
                let mut got: Vec<(Key, u64)> =
                    slot.sub.result().entries().iter().map(|e| (e.key.clone(), e.version)).collect();
                if slot.spec.sort.is_empty() {
                    let mut expected = expected;
                    expected.sort_by(|a, b| a.0.cmp(&b.0));
                    got.sort_by(|a, b| a.0.cmp(&b.0));
                    got == expected
                } else {
                    got == expected
                }
            };
            if !ok {
                mismatches += 1;
            }
        }
        (checked, mismatches)
    }

    fn standalone_oracle(&self, records: &HashMap<Key, Document>) -> (u64, u64) {
        let fold = self.fold.lock().expect("fold");
        let mut by_hash: HashMap<QueryHash, HashSet<Key>> = HashMap::new();
        let mut mismatches = 0;
        for (i, spec) in self.specs.iter().enumerate() {
            let expected = by_hash.entry(query_hash(spec)).or_insert_with(|| {
                let prepared = engine_prepare(spec);
                records.iter().filter(|(_, d)| prepared.matches(d)).map(|(k, _)| k.clone()).collect()
            });
            let got: HashSet<Key> = fold.results[i]
                .iter()
                .filter(|(_, (_, present))| *present)
                .map(|(k, _)| k.clone())
                .collect();
            if &got != expected {
                mismatches += 1;
            }
        }
        (self.specs.len() as u64, mismatches)
    }

    /// Stops the deployment and joins every thread it started.
    pub fn stop(mut self) {
        let _ = self.inbox.send(Cmd::Stop);
        if let Some(c) = self.collector.take() {
            c.join().expect("collector exits cleanly");
        }
        self.app_state.lock().expect("app state").slots.clear();
        if let Some(app) = self.app.take() {
            drop(Arc::try_unwrap(app).ok().expect("collector released the app server"));
        }
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
        if let Some((mut server, cluster_link, app_link)) = self.net.take() {
            app_link.shutdown();
            cluster_link.shutdown();
            server.shutdown();
        }
    }
}

/// Polls `cond` every millisecond until it holds or `limit` passes.
pub fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Decodes a tap payload; `None` for heartbeats and undecodable bytes.
fn decode_notification(payload: &bytes::Bytes) -> Option<Notification> {
    let view = PayloadView::new(payload).ok()?;
    if let Ok(Some(Value::String(t))) = view.get_path("type") {
        if t == "heartbeat" {
            return None;
        }
    }
    let d = view.to_document().ok()?;
    Notification::from_document(&d).ok()
}

fn app_collector(
    tap: invalidb_broker::Subscription,
    app: Arc<AppServer>,
    state: Arc<Mutex<AppState>>,
    shared: Arc<Shared>,
    inbox: mpsc::Receiver<Cmd>,
) {
    // Applies one command; `false` on Stop.
    let apply = |cmd: Cmd, state: &mut AppState| -> bool {
        match cmd {
            Cmd::Adopt { slot, sub, spec, start_us } => {
                // Churn: the subscription this one replaces is cancelled.
                if let Some(old) = state.slots[slot].take() {
                    app.unsubscribe(&old.sub);
                    state.by_id.remove(&old.sub.id());
                    state.retired.insert(old.sub.id());
                }
                state.by_id.insert(sub.id(), slot);
                state.slots[slot] = Some(Slot {
                    sub: *sub,
                    spec,
                    pending_since: Some(start_us),
                    seen: HashSet::new(),
                    last_trace: 0,
                });
            }
            Cmd::Stop => return false,
        }
        true
    };
    loop {
        {
            let mut st = state.lock().expect("app state");
            while let Ok(cmd) = inbox.try_recv() {
                if !apply(cmd, &mut st) {
                    return;
                }
            }
        }
        let Some(payload) = tap.recv_timeout(Duration::from_millis(2)) else {
            continue;
        };
        let Some(n) = decode_notification(&payload) else {
            continue;
        };
        let mut st = state.lock().expect("app state");
        // The subscriber may not have handed its subscription over yet.
        let idx = loop {
            if let Some(i) = st.by_id.get(&n.subscription) {
                break Some(*i);
            }
            if st.retired.contains(&n.subscription) {
                break None;
            }
            match inbox.recv_timeout(Duration::from_millis(200)) {
                Ok(cmd) => {
                    if !apply(cmd, &mut st) {
                        return;
                    }
                }
                Err(_) => break None,
            }
        };
        let Some(idx) = idx else { continue };
        let slot = st.slots[idx].as_mut().expect("indexed slot");
        let event = slot.sub.events().timeout(DELIVERY_TIMEOUT).next();
        let now = now_micros();
        shared.last_event_us.store(now, Ordering::Relaxed);
        match event {
            None => {
                shared.missing.fetch_add(1, Ordering::Relaxed);
            }
            Some(ClientEvent::Initial(_)) => {
                if let Some(start) = slot.pending_since.take() {
                    shared.subscribe.lock().expect("samples").push((start, now));
                    shared.initials.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(ClientEvent::Aggregate { .. }) if n.caused_by_write_at == 0 => {
                if let Some(start) = slot.pending_since.take() {
                    shared.subscribe.lock().expect("samples").push((start, now));
                    shared.initials.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(ClientEvent::Aggregate { .. }) => {
                if let Some(due) = shared.due_of_write_at(n.caused_by_write_at) {
                    shared.record_change(due, now);
                }
            }
            Some(ClientEvent::Change(c)) => {
                // The causing write, not the item's own `ts`: a record pushed
                // out of a sorted window carries its last write's document.
                let due =
                    shared.due_of_write_at(n.caused_by_write_at).or_else(|| ts_of(c.item.doc.as_ref()));
                if let Some(due) = due {
                    shared.record_change(due, now);
                }
                if slot.spec.sort.is_empty()
                    && !slot.seen.insert((
                        c.item.key.canonical_bytes(),
                        c.item.version,
                        match_code(c.match_type),
                    ))
                {
                    shared.duplicates.fetch_add(1, Ordering::Relaxed);
                }
            }
            // The app server renews the subscription; the renewal's
            // initial result follows.
            Some(ClientEvent::MaintenanceError(_)) => {}
            Some(ClientEvent::ConnectionLost) => {
                shared.missing.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(t) = slot.sub.last_trace() {
            if t.trace_id != slot.last_trace {
                slot.last_trace = t.trace_id;
                shared.traces.lock().expect("traces").push(t.clone());
            }
        }
    }
}

fn match_code(m: MatchType) -> u8 {
    match m {
        MatchType::Add => 0,
        MatchType::Change => 1,
        MatchType::Remove => 2,
        MatchType::ChangeIndex => 3,
    }
}

fn standalone_collector(
    tap: invalidb_broker::Subscription,
    fold: Arc<Mutex<FoldState>>,
    shared: Arc<Shared>,
    inbox: mpsc::Receiver<Cmd>,
) {
    loop {
        if let Ok(Cmd::Stop) = inbox.try_recv() {
            return;
        }
        let Some(payload) = tap.recv_timeout(Duration::from_millis(2)) else {
            continue;
        };
        let Some(n) = decode_notification(&payload) else {
            continue;
        };
        let now = now_micros();
        shared.last_event_us.store(now, Ordering::Relaxed);
        let idx = n.subscription.0.wrapping_sub(1) as usize;
        let mut fold = fold.lock().expect("fold");
        if idx >= fold.results.len() {
            continue;
        }
        match &n.kind {
            NotificationKind::InitialResult { .. } => {
                shared.subscribe.lock().expect("samples").push((fold.start_us[idx], now));
                shared.initials.fetch_add(1, Ordering::Relaxed);
            }
            NotificationKind::Change(c) => {
                if let Some(due) = ts_of(c.item.doc.as_ref()) {
                    shared.record_change(due, now);
                }
                let present = c.match_type != MatchType::Remove;
                let entry = fold.results[idx].entry(c.item.key.clone()).or_insert((0, false));
                if c.item.version == entry.0 {
                    shared.duplicates.fetch_add(1, Ordering::Relaxed);
                } else if c.item.version > entry.0 {
                    *entry = (c.item.version, present);
                }
            }
            // Filter queries raise no maintenance errors and no aggregates.
            NotificationKind::Error(_) | NotificationKind::Aggregate { .. } => {}
        }
        if let Some(t) = &n.trace {
            shared.traces.lock().expect("traces").push(t.clone());
        }
    }
}
