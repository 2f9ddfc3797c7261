//! Cluster assembly: wires ingestion, the matching grid, the sorting stage
//! and the notifier into one stream topology connected to the event layer.
//!
//! Cell hosting is abstracted behind [`CellHost`]: the classic in-process
//! deployment hosts the [`FullGrid`], while a multi-process worker hosts a
//! [`CellSet`] — only its assigned cells receive events, and staged
//! (sorted/aggregate) output from cells whose query-partition row lives on
//! another worker is shuffled through the event layer instead of an
//! in-process channel.

use crate::aggregation::AggregationNode;
use crate::config::ClusterConfig;
use crate::event::{Event, FilterChange};
use crate::matching::MatchingNode;
use crate::notifier::Notifier;
use crate::sorting::SortingNode;
use invalidb_broker::{shuffle_topic, BrokerHandle, CLUSTER_TOPIC};
use invalidb_common::partition::partition_of;
use invalidb_common::{ClusterMessage, GridCoord, GridShape, Stage, SystemClock};
use invalidb_obs::{
    AdminConfig, AdminServer, FlightRecorder, MetricsRegistry, MetricsSnapshot, SlowQueryLog,
};
use invalidb_stream::{
    Bolt, BoltContext, Grouping, RunningTopology, Source, TopologyBuilder, TopologyConfig,
    TopologyMetrics,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decides which matching-grid cells this process hosts.
///
/// The 2-D grid (§5.1) is position-addressed: cell `(qp, wp)` sees every
/// (query, write) pair for its partitions regardless of where it runs. A
/// `CellHost` tells the topology which cells are local, so the same
/// assembly code serves both the single-process grid and a remote worker
/// hosting an assigned subset.
pub trait CellHost: Send + Sync {
    /// True when the matching cell with this task index runs here.
    fn owns_cell(&self, task: usize) -> bool;
    /// True when query-partition row `qp` is *anchored* here: the row owner
    /// hosts the row's sorting/aggregation state and emits its initial
    /// results. By convention the owner of cell `(qp, 0)` owns the row.
    fn owns_row(&self, qp: usize) -> bool;
    /// True when every cell of the grid is hosted here (no shuffle needed).
    fn is_complete(&self) -> bool;
}

/// The classic single-process host: every cell of the grid lives here.
pub struct FullGrid;

impl CellHost for FullGrid {
    fn owns_cell(&self, _task: usize) -> bool {
        true
    }
    fn owns_row(&self, _qp: usize) -> bool {
        true
    }
    fn is_complete(&self) -> bool {
        true
    }
}

/// A subset host for multi-process deployment: hosts exactly the matching
/// cells named by their task indices (row-major, see
/// [`GridShape::task_index`]).
#[derive(Debug, Clone)]
pub struct CellSet {
    grid: GridShape,
    cells: BTreeSet<usize>,
}

impl CellSet {
    /// Creates a host for the given cells of a grid. Out-of-range indices
    /// are rejected.
    pub fn new(grid: GridShape, cells: impl IntoIterator<Item = usize>) -> CellSet {
        let cells: BTreeSet<usize> = cells.into_iter().collect();
        assert!(
            cells.iter().all(|&t| t < grid.nodes()),
            "cell index out of range for {}x{} grid",
            grid.query_partitions,
            grid.write_partitions
        );
        CellSet { grid, cells }
    }

    /// The hosted cell indices, ascending.
    pub fn cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells.iter().copied()
    }
}

impl CellHost for CellSet {
    fn owns_cell(&self, task: usize) -> bool {
        self.cells.contains(&task)
    }
    fn owns_row(&self, qp: usize) -> bool {
        qp < self.grid.query_partitions
            && self.cells.contains(&self.grid.task_index(GridCoord { qp, wp: 0 }))
    }
    fn is_complete(&self) -> bool {
        self.cells.len() == self.grid.nodes()
    }
}

/// A running InvaliDB cluster.
///
/// The cluster is reachable *only* through the event layer: publish
/// [`ClusterMessage`]s (JSON documents) to [`CLUSTER_TOPIC`]; notifications
/// arrive on per-tenant `invalidb.notify.<tenant>` topics. Dropping the
/// handle shuts the cluster down — application servers and the database are
/// unaffected (isolated failure domain, §5).
pub struct Cluster {
    topology: Option<RunningTopology>,
    grid: GridShape,
    decode_errors: Arc<AtomicU64>,
    registry: MetricsRegistry,
    admin: Option<AdminServer>,
}

impl Cluster {
    /// Starts a cluster with the given configuration, attached to an event
    /// layer — an in-process [`invalidb_broker::Broker`], a
    /// [`BrokerHandle`], or any other [`invalidb_broker::EventLayer`]
    /// implementation (e.g. `invalidb-net`'s TCP-backed `RemoteBroker`).
    pub fn start(broker: impl Into<BrokerHandle>, config: ClusterConfig) -> Cluster {
        Cluster::start_with_host(broker, config, Arc::new(FullGrid))
    }

    /// Starts a cluster hosting only the cells a [`CellHost`] claims.
    ///
    /// With [`FullGrid`] this is exactly [`Cluster::start`]. With a
    /// [`CellSet`] the topology still declares every matching task (unowned
    /// ones stay empty — they never receive an event), but routing is
    /// filtered to owned cells, initial results and the sorting/aggregation
    /// stages run only for owned rows, and staged output from owned cells
    /// whose row is anchored elsewhere leaves through the per-row shuffle
    /// topic ([`invalidb_broker::shuffle_topic`]).
    pub fn start_with_host(
        broker: impl Into<BrokerHandle>,
        config: ClusterConfig,
        host: Arc<dyn CellHost>,
    ) -> Cluster {
        let broker: BrokerHandle = broker.into();
        let grid = GridShape::new(config.query_partitions, config.write_partitions);
        let clock = Arc::new(SystemClock::new());
        let decode_errors = Arc::new(AtomicU64::new(0));
        let complete = host.is_complete();

        let mut b = TopologyBuilder::<Event>::new().with_config(TopologyConfig {
            queue_capacity: config.queue_capacity,
            tick_interval: config.tick_interval,
            source_poll_timeout: Duration::from_millis(10),
            max_batch: config.max_batch,
        });

        // Ingress: decode opaque event-layer payloads into cluster events.
        b.add_source(
            "ingress",
            IngressSource {
                subscription: broker.subscribe(CLUSTER_TOPIC),
                decode_errors: Arc::clone(&decode_errors),
                metrics: config.metrics.clone(),
                identity: config.worker_identity.clone(),
            },
        );

        // Shuffle ingress (subset hosts only): staged output published by
        // *other* workers' matching cells for rows anchored here.
        if !complete {
            let subscriptions = (0..grid.query_partitions)
                .filter(|&qp| host.owns_row(qp))
                .map(|qp| broker.subscribe(&shuffle_topic(qp)))
                .collect::<Vec<_>>();
            b.add_source(
                "shuffle-ingress",
                ShuffleIngress {
                    subscriptions,
                    decode_errors: Arc::clone(&decode_errors),
                    metrics: config.metrics.clone(),
                },
            );
        }

        // Stateless ingestion tiers (§5.1): they "merely receive data items,
        // compute their partitions by hashing static attributes, and forward
        // the items to the corresponding matching nodes" — the hashing lives
        // in the grouping functions of their outgoing connections.
        b.add_bolt("query-ingest", config.query_ingest_nodes.max(1), |_| Box::new(Forwarder));
        b.add_bolt("write-ingest", config.write_ingest_nodes.max(1), |_| Box::new(Forwarder));

        // The QP × WP matching grid (filtering stage).
        {
            let config = config.clone();
            let clock = clock.clone();
            b.add_bolt("matching", grid.nodes(), move |task| {
                Box::new(MatchingNode::new(task, grid, config.clone(), clock.clone() as _))
            });
        }

        // Shuffle egress (subset hosts only): staged output from owned
        // cells whose row is anchored on another worker leaves through the
        // event layer here.
        if !complete {
            let config = config.clone();
            let broker = broker.clone();
            b.add_bolt("shuffle-egress", 1, move |_| {
                Box::new(ShuffleEgress { broker: broker.clone(), grid, config: config.clone() })
            });
        }

        // Sorting stage, partitioned by query.
        {
            let config = config.clone();
            let clock = clock.clone();
            b.add_bolt("sorting", config.sorting_tasks.max(1), move |task| {
                Box::new(SortingNode::new(task, config.clone(), clock.clone() as _))
            });
        }

        // Aggregation stage (extension, §8.1), partitioned by query.
        {
            let config = config.clone();
            let clock = clock.clone();
            b.add_bolt("aggregation", config.aggregation_tasks.max(1), move |_| {
                Box::new(AggregationNode::new(config.clone(), clock.clone() as _))
            });
        }

        // Notification sink.
        {
            let config = config.clone();
            let broker = broker.clone();
            let clock = clock.clone();
            b.add_bolt("notifier", 1, move |_| {
                Box::new(Notifier::new(broker.clone(), config.clone(), clock.clone() as _))
            });
        }

        // Split ingress traffic to the two ingestion tiers.
        b.connect(
            "ingress",
            "query-ingest",
            Grouping::direct(|e: &Event, n| match e {
                Event::Subscribe(req) => vec![partition_of(req.query_hash.0, n)],
                Event::Unsubscribe { query_hash, .. } | Event::ExtendTtl { query_hash, .. } => {
                    vec![partition_of(query_hash.0, n)]
                }
                _ => vec![],
            }),
        );
        b.connect(
            "ingress",
            "write-ingest",
            Grouping::direct(|e: &Event, n| match e {
                Event::Write(img) => vec![partition_of(img.key.stable_hash(), n)],
                _ => vec![],
            }),
        );

        // Query ingestion → notifier FIRST: emits route in declaration order,
        // so the initial result is enqueued at the (single, FIFO) notifier
        // before the matching/sorting nodes even receive the subscription —
        // no change notification can overtake the initial result. Only the
        // row owner emits the initial result: on a subset host, the same
        // subscription fans out to every worker with a cell in the row, and
        // exactly one of them must answer.
        {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "query-ingest",
                "notifier",
                Grouping::direct(move |e: &Event, _n| match e {
                    Event::Subscribe(req)
                        if host.owns_row(grid_rows.query_partition(req.query_hash)) =>
                    {
                        vec![0]
                    }
                    _ => vec![],
                }),
            );
        }
        // Query ingestion → the grid row of the query partition, trimmed to
        // the cells hosted here.
        {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "query-ingest",
                "matching",
                Grouping::direct(move |e: &Event, _n| {
                    let owned =
                        |tasks: Vec<usize>| tasks.into_iter().filter(|&t| host.owns_cell(t)).collect();
                    match e {
                        Event::Subscribe(req) => owned(grid_rows.tasks_for_query(req.query_hash)),
                        Event::Unsubscribe { query_hash, .. } | Event::ExtendTtl { query_hash, .. } => {
                            owned(grid_rows.tasks_for_query(*query_hash))
                        }
                        _ => vec![],
                    }
                }),
            );
        }
        // Query ingestion → sorting (sorted queries own exactly one task on
        // the worker anchoring their row).
        {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "query-ingest",
                "sorting",
                Grouping::direct(move |e: &Event, n| match e {
                    Event::Subscribe(req)
                        if req.spec.needs_sorting_stage()
                            && host.owns_row(grid_rows.query_partition(req.query_hash)) =>
                    {
                        vec![partition_of(req.query_hash.0, n)]
                    }
                    Event::Unsubscribe { query_hash, .. } | Event::ExtendTtl { query_hash, .. }
                        if host.owns_row(grid_rows.query_partition(*query_hash)) =>
                    {
                        vec![partition_of(query_hash.0, n)]
                    }
                    _ => vec![],
                }),
            );
        }
        // Query ingestion → aggregation (aggregate queries own one task on
        // the worker anchoring their row).
        {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "query-ingest",
                "aggregation",
                Grouping::direct(move |e: &Event, n| match e {
                    Event::Subscribe(req)
                        if req.spec.needs_aggregation_stage()
                            && host.owns_row(grid_rows.query_partition(req.query_hash)) =>
                    {
                        vec![partition_of(req.query_hash.0, n)]
                    }
                    Event::Unsubscribe { query_hash, .. } | Event::ExtendTtl { query_hash, .. }
                        if host.owns_row(grid_rows.query_partition(*query_hash)) =>
                    {
                        vec![partition_of(query_hash.0, n)]
                    }
                    _ => vec![],
                }),
            );
        }

        // Write ingestion → the grid column of the write partition, trimmed
        // to the cells hosted here.
        {
            let host = Arc::clone(&host);
            let grid_cols = grid;
            b.connect(
                "write-ingest",
                "matching",
                Grouping::direct(move |e: &Event, _n| match e {
                    Event::Write(img) => grid_cols
                        .tasks_for_key(&img.key)
                        .into_iter()
                        .filter(|&t| host.owns_cell(t))
                        .collect(),
                    _ => vec![],
                }),
            );
        }

        // Filtering stage → shuffle egress: staged output for rows anchored
        // on another worker crosses the event layer.
        if !complete {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "matching",
                "shuffle-egress",
                Grouping::direct(move |e: &Event, _n| match e {
                    Event::FilterChange(fc)
                        if !host.owns_row(grid_rows.query_partition(fc.query_hash)) =>
                    {
                        vec![0]
                    }
                    _ => vec![],
                }),
            );
        }

        // Filtering stage → sorting stage (partitioned by query hash) and
        // → notifier (finished notifications of self-maintainable queries).
        {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "matching",
                "sorting",
                Grouping::direct(move |e: &Event, n| match e {
                    Event::FilterChange(fc)
                        if host.owns_row(grid_rows.query_partition(fc.query_hash)) =>
                    {
                        vec![partition_of(fc.query_hash.0, n)]
                    }
                    _ => vec![],
                }),
            );
        }
        {
            let host = Arc::clone(&host);
            let grid_rows = grid;
            b.connect(
                "matching",
                "aggregation",
                Grouping::direct(move |e: &Event, n| match e {
                    Event::FilterChange(fc)
                        if host.owns_row(grid_rows.query_partition(fc.query_hash)) =>
                    {
                        vec![partition_of(fc.query_hash.0, n)]
                    }
                    _ => vec![],
                }),
            );
        }

        // Shuffle ingress → the row owner's sorting/aggregation stages.
        if !complete {
            b.connect(
                "shuffle-ingress",
                "sorting",
                Grouping::direct(|e: &Event, n| match e {
                    Event::FilterChange(fc) => vec![partition_of(fc.query_hash.0, n)],
                    _ => vec![],
                }),
            );
            b.connect(
                "shuffle-ingress",
                "aggregation",
                Grouping::direct(|e: &Event, n| match e {
                    Event::FilterChange(fc) => vec![partition_of(fc.query_hash.0, n)],
                    _ => vec![],
                }),
            );
        }
        b.connect(
            "matching",
            "notifier",
            Grouping::direct(|e: &Event, _n| match e {
                Event::Out(_) => vec![0],
                _ => vec![],
            }),
        );
        b.connect(
            "sorting",
            "notifier",
            Grouping::direct(|e: &Event, _n| match e {
                Event::Out(_) => vec![0],
                _ => vec![],
            }),
        );
        b.connect(
            "aggregation",
            "notifier",
            Grouping::direct(|e: &Event, _n| match e {
                Event::Out(_) => vec![0],
                _ => vec![],
            }),
        );

        let registry = config.metrics.clone();
        let topology = b.start();
        registry.attach_topology("cluster", Arc::clone(topology.metrics()));
        // Optional admin plane. A failed bind does not abort the cluster
        // (the pipeline is the product; the admin endpoint is a window into
        // it) but is recorded so it cannot go unnoticed.
        let admin = config.admin_addr.as_deref().and_then(|addr| {
            match AdminServer::bind(addr, registry.clone(), AdminConfig::default()) {
                Ok(server) => Some(server),
                Err(_) => {
                    registry.inc("admin.bind_errors");
                    None
                }
            }
        });
        Cluster { topology: Some(topology), grid, decode_errors, registry, admin }
    }

    /// The grid shape this cluster runs.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// A point-in-time snapshot of every cluster metric: per-stage latency
    /// histograms (when tracing is enabled), matched/filtered/dropped
    /// counters, per-partition gauges, and the topology's per-component
    /// processed/emitted counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The live registry this cluster reports into (shared with whatever
    /// was passed via [`ClusterConfig::builder`]'s `metrics` setter).
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.clone()
    }

    /// Raw topology metrics (per-component processed/emitted counters).
    pub fn topology_metrics(&self) -> Arc<TopologyMetrics> {
        Arc::clone(self.topology.as_ref().expect("running").metrics())
    }

    /// Count of event-layer payloads that failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// The slow-query log: per-query cost accounting fed by the matching
    /// and sorting stages. `top(k)` returns the heaviest queries.
    pub fn slow_queries(&self) -> SlowQueryLog {
        self.registry.slow_queries()
    }

    /// The flight recorder: a bounded ring of recent structured pipeline
    /// events (reconnects, drops, decode errors, health transitions).
    pub fn flight(&self) -> FlightRecorder {
        self.registry.flight()
    }

    /// Where the admin endpoint actually listens (useful with a `:0` bind),
    /// or `None` when [`ClusterConfig::admin_addr`] was unset or the bind
    /// failed (counted as `admin.bind_errors`).
    pub fn admin_addr(&self) -> Option<std::net::SocketAddr> {
        self.admin.as_ref().map(|a| a.local_addr())
    }

    /// The hosted admin server, when one is running.
    pub fn admin(&self) -> Option<&AdminServer> {
        self.admin.as_ref()
    }

    /// Stops the cluster, draining in-flight work.
    pub fn shutdown(mut self) {
        if let Some(mut admin) = self.admin.take() {
            admin.shutdown();
        }
        if let Some(t) = self.topology.take() {
            t.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(t) = self.topology.take() {
            t.shutdown();
        }
    }
}

/// Decodes event-layer payloads into topology events.
struct IngressSource {
    subscription: invalidb_broker::Subscription,
    decode_errors: Arc<AtomicU64>,
    metrics: MetricsRegistry,
    /// Worker identity for trace stamps in multi-process deployments.
    identity: Option<crate::config::WorkerIdentity>,
}

impl Source<Event> for IngressSource {
    fn poll(&mut self, timeout: Duration) -> Vec<Event> {
        let first = match self.subscription.recv_timeout(timeout) {
            Some(payload) => payload,
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity(8);
        // Binary write envelopes take the zero-copy lazy path (only the
        // `key`/`doc`/`trace` subtrees are materialized); everything else
        // falls back to the eager decoder with identical error accounting.
        let mut decode = |payload: bytes::Bytes| match crate::ingest::decode_cluster_payload(&payload) {
            Some(mut msg) => {
                // Sampled traces get their ingestion stamp the moment the
                // envelope is decoded off the event layer.
                if let ClusterMessage::Write(img) = &mut msg {
                    if let Some(trace) = img.trace.as_mut() {
                        match &self.identity {
                            Some(id) => id.stamp(trace, Stage::Ingestion),
                            None => trace.stamp(Stage::Ingestion),
                        }
                        self.metrics.inc("ingress.traced_writes");
                    }
                }
                out.push(msg.into());
            }
            None => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                self.metrics.inc("ingress.decode_errors");
            }
        };
        decode(first);
        while let Some(payload) = self.subscription.try_recv() {
            decode(payload);
        }
        out
    }
}

impl From<ClusterMessage> for Event {
    fn from(msg: ClusterMessage) -> Self {
        match msg {
            ClusterMessage::Subscribe(req) => Event::Subscribe(Arc::new(req)),
            ClusterMessage::Unsubscribe { tenant, subscription, query_hash } => {
                Event::Unsubscribe { tenant, subscription, query_hash }
            }
            ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
                Event::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
            }
            ClusterMessage::Write(img) => Event::Write(Arc::new(img)),
        }
    }
}

/// Stateless pass-through bolt (ingestion tier).
struct Forwarder;

impl Bolt<Event> for Forwarder {
    fn execute(&mut self, input: Event, ctx: &mut BoltContext<'_, Event>) {
        ctx.emit(input);
    }
}

/// Publishes staged output for rows anchored on other workers to the
/// per-row shuffle topic.
struct ShuffleEgress {
    broker: BrokerHandle,
    grid: GridShape,
    config: ClusterConfig,
}

impl Bolt<Event> for ShuffleEgress {
    fn execute(&mut self, input: Event, _ctx: &mut BoltContext<'_, Event>) {
        if let Event::FilterChange(fc) = input {
            let qp = self.grid.query_partition(fc.query_hash);
            let payload = self.config.wire_codec.encode(&fc.to_document());
            self.broker.publish(&shuffle_topic(qp), payload);
            self.config.metrics.inc("shuffle.egress");
        }
    }
}

/// Receives staged output published by other workers for rows anchored
/// here and re-injects it into the local topology.
struct ShuffleIngress {
    subscriptions: Vec<invalidb_broker::Subscription>,
    decode_errors: Arc<AtomicU64>,
    metrics: MetricsRegistry,
}

impl Source<Event> for ShuffleIngress {
    fn poll(&mut self, timeout: Duration) -> Vec<Event> {
        let mut out = Vec::new();
        if self.subscriptions.is_empty() {
            std::thread::sleep(timeout);
            return out;
        }
        let deadline = Instant::now() + timeout;
        loop {
            for sub in &self.subscriptions {
                while let Some(payload) = sub.try_recv() {
                    match invalidb_json::payload_to_document(&payload)
                        .ok()
                        .and_then(|d| FilterChange::from_document(&d).ok())
                    {
                        Some(fc) => {
                            self.metrics.inc("shuffle.ingress");
                            out.push(Event::FilterChange(Arc::new(fc)));
                        }
                        None => {
                            self.decode_errors.fetch_add(1, Ordering::Relaxed);
                            self.metrics.inc("shuffle.decode_errors");
                        }
                    }
                }
            }
            if !out.is_empty() || Instant::now() >= deadline {
                return out;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
