//! The sorting stage (§5.2).
//!
//! Sorting nodes receive filtering-stage output *partitioned by query* —
//! each sorted query is owned by exactly one sorting task (fields grouping
//! on the query hash), which therefore holds the query's full
//! offset+result+slack window and can detect positional changes
//! (`changeIndex`), boundary crossings, and maintenance errors.

use crate::config::ClusterConfig;
use crate::event::{Event, FilterChange, OutMsg};
use crate::window::{apply_events, SortedWindow, VisibleEvent, WindowItem};
use invalidb_common::{
    ChangeItem, Clock, MaintenanceError, MatchType, Notification, NotificationKind, QueryHash,
    ResultItem, Stage, SubscriptionId, SubscriptionRequest, TenantId, Timestamp, TraceContext,
};
use invalidb_obs::SlowQueryScratch;
use invalidb_query::PreparedQuery;
use invalidb_stream::{Bolt, BoltContext};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

struct SubState {
    tenant: TenantId,
    expires_at: Timestamp,
}

struct SortGroup {
    /// Human-readable rendering of the query spec, captured at subscribe
    /// time for the slow-query log.
    spec_display: String,
    prepared: Arc<dyn PreparedQuery>,
    window: SortedWindow,
    /// What subscribed clients currently hold (maintained by applying the
    /// same edit scripts that are sent out).
    client_state: Vec<WindowItem>,
    /// False after a maintenance error, until renewal re-activates.
    active: bool,
    /// Filter changes that arrived while deactivated, in arrival order.
    /// The renewal's fresh snapshot is read from the store *before* the
    /// Subscribe is published, so a change generated from a later write
    /// can still reach this task first (it travels on the matching
    /// channel, the Subscribe on the query-ingest channel). Discarding it
    /// would freeze its key at the snapshot's state forever; instead it
    /// is replayed — version-guarded — right after the reseed.
    pending: Vec<Arc<FilterChange>>,
    slack: u64,
    subscriptions: HashMap<SubscriptionId, SubState>,
}

/// Bound on buffered filter changes per deactivated query. On overflow
/// the oldest buffered change is shed: the next renewal's snapshot is
/// read later than anything shed, so it covers the loss.
const PENDING_CAP: usize = 4096;

/// The sorting-stage bolt.
pub struct SortingNode {
    task: usize,
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    groups: HashMap<(TenantId, QueryHash), SortGroup>,
    /// Observability: maintenance errors raised.
    maintenance_errors: u64,
    /// Locally accumulated slow-query charges, flushed to the shared log
    /// on tick so the per-filter-change hot path never takes its lock.
    slow_scratch: SlowQueryScratch,
    /// Cluster-shared gauge of sort windows serving more than one
    /// subscription (shared sort windows: normalization collapses
    /// equivalent specs onto one query hash, so their subscriptions attach
    /// to one maintained window). Published as a tick delta, like the
    /// matching stage's `matching.index.*` gauges.
    metric_shared: Arc<AtomicU64>,
    last_shared: u64,
}

impl SortingNode {
    /// Creates the sorting node for task index `task`.
    pub fn new(task: usize, config: ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        let metric_shared = config.metrics.gauge("matching.index.shared_windows");
        Self {
            task,
            config,
            clock,
            groups: HashMap::new(),
            maintenance_errors: 0,
            slow_scratch: SlowQueryScratch::new(),
            metric_shared,
            last_shared: 0,
        }
    }

    /// Number of sorted queries owned by this node.
    pub fn active_queries(&self) -> usize {
        self.groups.len()
    }

    /// Maintenance errors raised so far.
    pub fn maintenance_errors(&self) -> u64 {
        self.maintenance_errors
    }

    fn handle_subscribe(&mut self, req: &SubscriptionRequest, ctx: &mut BoltContext<'_, Event>) {
        if !req.spec.needs_sorting_stage() {
            return; // unsorted queries live entirely in the filtering stage
        }
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        let group_key = (req.tenant.clone(), req.query_hash);
        if let Some(group) = self.groups.get_mut(&group_key) {
            group
                .subscriptions
                .insert(req.subscription, SubState { tenant: req.tenant.clone(), expires_at });
            if group.active {
                // Late joiner: its initial result (fresh from the database)
                // may differ from the group's maintained window. Send the
                // correction delta to this subscription only.
                let fresh = SortedWindow::new(Arc::clone(&group.prepared), req.slack, &req.initial);
                let delta = crate::window::diff_visible(fresh.visible(), &group.client_state);
                let tenant = req.tenant.clone();
                for ev in &delta {
                    ctx.emit(to_notification_event(&tenant, req.subscription, ev, 0, None));
                }
            } else {
                // Renewal: re-seed from the fresh result. On the wire a
                // renewal is indistinguishable from a fresh subscribe, so
                // the notifier has already re-sent the initial result and
                // the client's list is reset wholesale — emitting a delta
                // from the pre-error state on top of that replacement
                // would corrupt the client's list.
                let _ = group.window.reseed(req.slack, &req.initial, &group.client_state);
                group.active = true;
                group.slack = req.slack;
                group.client_state = group.window.snapshot_visible();
                // Replay changes buffered while deactivated. Per-key FIFO
                // order is preserved, and the window's version guard drops
                // whatever the fresh snapshot already reflects. A nested
                // maintenance error mid-replay re-buffers the remainder
                // for the next renewal.
                let pending = std::mem::take(&mut group.pending);
                for fc in pending {
                    if group.active {
                        Self::apply_filter_change(
                            group,
                            &fc,
                            &self.config,
                            &mut self.maintenance_errors,
                            &mut self.slow_scratch,
                            ctx,
                        );
                    } else {
                        group.pending.push(fc);
                    }
                }
            }
            return;
        }
        let prepared = match self.config.engine.prepare(&req.spec) {
            Ok(p) => p,
            Err(_) => return, // the filtering stage already reported this
        };
        let window = SortedWindow::new(Arc::clone(&prepared), req.slack, &req.initial);
        let client_state = window.snapshot_visible();
        let mut subscriptions = HashMap::new();
        subscriptions.insert(req.subscription, SubState { tenant: req.tenant.clone(), expires_at });
        self.groups.insert(
            group_key,
            SortGroup {
                spec_display: req.spec.to_string(),
                prepared,
                window,
                client_state,
                active: true,
                pending: Vec::new(),
                slack: req.slack,
                subscriptions,
            },
        );
    }

    fn handle_filter_change(&mut self, fc: &Arc<FilterChange>, ctx: &mut BoltContext<'_, Event>) {
        let group = match self.groups.get_mut(&(fc.tenant.clone(), fc.query_hash)) {
            Some(g) => g,
            None => return, // unknown query
        };
        if !group.active {
            // Awaiting renewal: buffer instead of discarding — the
            // renewal's snapshot may have been read before the write that
            // produced this change (see the `pending` field).
            if group.pending.len() >= PENDING_CAP {
                group.pending.remove(0);
                self.config.metrics.inc("sorting.pending_shed");
            }
            group.pending.push(Arc::clone(fc));
            return;
        }
        Self::apply_filter_change(
            group,
            fc,
            &self.config,
            &mut self.maintenance_errors,
            &mut self.slow_scratch,
            ctx,
        );
    }

    /// Applies one filter change to an active group's window, emitting the
    /// visible edit script (or a maintenance error, which deactivates).
    fn apply_filter_change(
        group: &mut SortGroup,
        fc: &FilterChange,
        config: &ClusterConfig,
        maintenance_errors: &mut u64,
        slow_scratch: &mut SlowQueryScratch,
        ctx: &mut BoltContext<'_, Event>,
    ) {
        // Slow-query accounting: the window maintenance below is the
        // sorting stage's per-query cost.
        let started = std::time::Instant::now();
        let outcome = group.window.apply(&fc.key, fc.version, fc.doc.as_ref());
        // Stamp the sorting stage once per filter change on sampled traces.
        let trace: Option<TraceContext> = fc.trace.clone().map(|mut t| {
            t.stamp(Stage::Sorting);
            t
        });
        if let Some(reason) = outcome.error {
            // Query maintenance error: deactivate and ask for renewal. The
            // client's list stays at the last valid state (client_state).
            group.active = false;
            *maintenance_errors += 1;
            config.metrics.inc("sorting.maintenance_errors");
            for (sub, state) in &group.subscriptions {
                ctx.emit(Event::Out(Arc::new(OutMsg::Notify(Notification {
                    tenant: state.tenant.clone(),
                    subscription: *sub,
                    kind: NotificationKind::Error(MaintenanceError { reason: reason.clone() }),
                    caused_by_write_at: fc.written_at,
                    trace: trace.clone(),
                }))));
            }
            slow_scratch.charge(
                &fc.tenant.0,
                fc.query_hash.0,
                || group.spec_display.clone(),
                started.elapsed().as_nanos() as u64,
            );
            return;
        }
        Self::broadcast(group, &outcome.events, fc.written_at, trace.as_ref(), ctx);
        apply_events(&mut group.client_state, &outcome.events);
        slow_scratch.charge(
            &fc.tenant.0,
            fc.query_hash.0,
            || group.spec_display.clone(),
            started.elapsed().as_nanos() as u64,
        );
    }

    fn broadcast(
        group: &SortGroup,
        events: &[VisibleEvent],
        written_at: u64,
        trace: Option<&TraceContext>,
        ctx: &mut BoltContext<'_, Event>,
    ) {
        for ev in events {
            for (sub, state) in &group.subscriptions {
                ctx.emit(to_notification_event(&state.tenant, *sub, ev, written_at, trace));
            }
        }
        let _ = &group.slack;
    }

    fn handle_unsubscribe(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
    ) {
        if let Some(group) = self.groups.get_mut(&(tenant.clone(), query_hash)) {
            group.subscriptions.remove(&subscription);
            if group.subscriptions.is_empty() {
                self.groups.remove(&(tenant.clone(), query_hash));
            }
        }
    }

    fn handle_extend_ttl(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
        ttl_micros: u64,
    ) {
        let now = self.clock.now();
        if let Some(group) = self.groups.get_mut(&(tenant.clone(), query_hash)) {
            if let Some(sub) = group.subscriptions.get_mut(&subscription) {
                sub.expires_at = now.after(std::time::Duration::from_micros(ttl_micros));
            }
        }
    }

    fn expire(&mut self) {
        let now = self.clock.now();
        self.groups.retain(|_, group| {
            group.subscriptions.retain(|_, sub| sub.expires_at > now);
            !group.subscriptions.is_empty()
        });
    }
}

/// Converts a window edit-script event into a per-subscription notification.
fn to_notification_event(
    tenant: &TenantId,
    subscription: SubscriptionId,
    ev: &VisibleEvent,
    written_at: u64,
    trace: Option<&TraceContext>,
) -> Event {
    let kind = match ev {
        VisibleEvent::Add { item, index } => NotificationKind::Change(ChangeItem {
            match_type: MatchType::Add,
            item: ResultItem {
                key: item.key.clone(),
                version: item.version,
                doc: Some(item.doc.clone()),
                index: Some(*index as u64),
            },
            old_index: None,
        }),
        VisibleEvent::Change { item, index } => NotificationKind::Change(ChangeItem {
            match_type: MatchType::Change,
            item: ResultItem {
                key: item.key.clone(),
                version: item.version,
                doc: Some(item.doc.clone()),
                index: Some(*index as u64),
            },
            old_index: None,
        }),
        VisibleEvent::ChangeIndex { item, old_index, index } => NotificationKind::Change(ChangeItem {
            match_type: MatchType::ChangeIndex,
            item: ResultItem {
                key: item.key.clone(),
                version: item.version,
                doc: Some(item.doc.clone()),
                index: Some(*index as u64),
            },
            old_index: Some(*old_index as u64),
        }),
        VisibleEvent::Remove { key, version, old_index } => NotificationKind::Change(ChangeItem {
            match_type: MatchType::Remove,
            item: ResultItem { key: key.clone(), version: *version, doc: None, index: None },
            old_index: Some(*old_index as u64),
        }),
    };
    Event::Out(Arc::new(OutMsg::Notify(Notification {
        tenant: tenant.clone(),
        subscription,
        kind,
        caused_by_write_at: written_at,
        trace: trace.cloned(),
    })))
}

impl Bolt<Event> for SortingNode {
    fn execute(&mut self, input: Event, ctx: &mut BoltContext<'_, Event>) {
        match input {
            Event::Subscribe(req) => self.handle_subscribe(&req, ctx),
            Event::FilterChange(fc) => self.handle_filter_change(&fc, ctx),
            Event::Unsubscribe { tenant, query_hash, subscription } => {
                self.handle_unsubscribe(&tenant, query_hash, subscription)
            }
            Event::ExtendTtl { tenant, query_hash, subscription, ttl_micros } => {
                self.handle_extend_ttl(&tenant, query_hash, subscription, ttl_micros)
            }
            Event::Write(_) | Event::Out(_) => {}
        }
    }

    fn tick(&mut self, _ctx: &mut BoltContext<'_, Event>) {
        self.expire();
        self.slow_scratch.flush(&self.config.metrics.slow_queries());
        // Per-task gauge, refreshed once per tick like the matching grid's.
        self.config
            .metrics
            .set_gauge(&format!("sorting.{}.active_queries", self.task), self.groups.len() as u64);
        let shared = self.groups.values().filter(|g| g.subscriptions.len() >= 2).count() as u64;
        crate::matching::publish_gauge_delta(&self.metric_shared, &mut self.last_shared, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FilterChangeKind;
    use invalidb_common::{doc, Document, Key, MatchType, MockClock, QuerySpec, SortDirection};
    use invalidb_stream::{Grouping, Source, TopologyBuilder};
    use parking_lot::Mutex;
    use std::time::Duration;

    struct Harness {
        tx: crossbeam::channel::Sender<Event>,
        out: Arc<Mutex<Vec<Event>>>,
        _topo: invalidb_stream::RunningTopology,
    }

    struct ChanSource(crossbeam::channel::Receiver<Event>);
    impl Source<Event> for ChanSource {
        fn poll(&mut self, timeout: Duration) -> Vec<Event> {
            match self.0.recv_timeout(timeout) {
                Ok(e) => {
                    let mut out = vec![e];
                    out.extend(self.0.try_iter());
                    out
                }
                Err(_) => Vec::new(),
            }
        }
    }

    struct Collector(Arc<Mutex<Vec<Event>>>);
    impl Bolt<Event> for Collector {
        fn execute(&mut self, input: Event, _ctx: &mut BoltContext<'_, Event>) {
            self.0.lock().push(input);
        }
    }

    fn harness(config: ClusterConfig) -> Harness {
        let (tx, rx) = crossbeam::channel::unbounded();
        let out = Arc::new(Mutex::new(Vec::new()));
        let clock = MockClock::new();
        let mut b = TopologyBuilder::new();
        b.add_source("src", ChanSource(rx));
        let cfg = config.clone();
        b.add_bolt("node", 1, move |task| {
            Box::new(SortingNode::new(task, cfg.clone(), Arc::new(clock.clone())))
        });
        let out2 = Arc::clone(&out);
        b.add_bolt("sink", 1, move |_| Box::new(Collector(Arc::clone(&out2))));
        b.connect("src", "node", Grouping::Broadcast);
        b.connect("node", "sink", Grouping::Shuffle);
        Harness { tx, out, _topo: b.start() }
    }

    fn subscribe_event(spec: &QuerySpec, slack: u64, initial: Vec<ResultItem>) -> Event {
        subscribe_as(spec, 1, slack, initial)
    }

    fn subscribe_as(spec: &QuerySpec, sub: u64, slack: u64, initial: Vec<ResultItem>) -> Event {
        Event::Subscribe(Arc::new(SubscriptionRequest {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(sub),
            query_hash: spec.stable_hash(),
            spec: spec.clone(),
            initial,
            slack,
            ttl_micros: 60_000_000,
            renewal: false,
        }))
    }

    fn change_event(
        spec: &QuerySpec,
        kind: FilterChangeKind,
        key: &str,
        version: u64,
        doc: Option<Document>,
    ) -> Event {
        Event::FilterChange(Arc::new(FilterChange {
            tenant: TenantId::new("app"),
            query_hash: spec.stable_hash(),
            kind,
            key: Key::of(key),
            version,
            doc,
            written_at: 7,
            trace: None,
        }))
    }

    fn item(key: &str, version: u64, n: i64) -> ResultItem {
        ResultItem { key: Key::of(key), version, doc: Some(doc! { "n" => n }), index: None }
    }

    fn notifications(h: &Harness, n: usize) -> Vec<Notification> {
        for _ in 0..400 {
            if h.out.lock().len() >= n {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        h.out
            .lock()
            .iter()
            .filter_map(|e| match e {
                Event::Out(msg) => match &**msg {
                    OutMsg::Notify(note) => Some(note.clone()),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    /// Regression test for the inactive-discard race: a filter change that
    /// reaches the sorting task while its query awaits renewal must be
    /// buffered and replayed after the reseed — the renewal's snapshot is
    /// read from the store before the Subscribe is published, so the change
    /// may postdate the snapshot and be the key's only chance to surface.
    #[test]
    fn changes_buffered_while_awaiting_renewal_replay_after_reseed() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec =
            QuerySpec::filter("t", Document::new()).sorted_by("n", SortDirection::Asc).with_limit(2);

        // Seed with zero slack and a full (hence incomplete) window: the
        // first remove exhausts the window and raises a maintenance error.
        h.tx.send(subscribe_event(&spec, 0, vec![item("k1", 1, 1), item("k2", 1, 2)])).unwrap();
        h.tx.send(change_event(&spec, FilterChangeKind::Remove, "k1", 2, None)).unwrap();
        let notes = notifications(&h, 1);
        assert_eq!(notes.len(), 1, "remove on an exhausted window must error: {notes:?}");
        assert!(
            matches!(notes[0].kind, NotificationKind::Error(_)),
            "expected maintenance error, got {:?}",
            notes[0].kind
        );

        // While the query is deactivated, two changes race the renewal:
        // one already covered by the upcoming snapshot (k2@1, stale) and
        // one that postdates it (k3). Both were silently discarded before.
        h.tx.send(change_event(&spec, FilterChangeKind::Change, "k2", 1, Some(doc! { "n" => 2i64 })))
            .unwrap();
        h.tx.send(change_event(&spec, FilterChangeKind::Add, "k3", 1, Some(doc! { "n" => 3i64 })))
            .unwrap();

        // Renewal: fresh snapshot read before k3's write reached the store.
        // Ample slack, window complete (1 item < cap).
        h.tx.send(subscribe_event(&spec, 2, vec![item("k2", 1, 2)])).unwrap();

        let notes = notifications(&h, 2);
        assert_eq!(notes.len(), 2, "exactly the buffered fresh change must surface: {notes:?}");
        match &notes[1].kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.match_type, MatchType::Add);
                assert_eq!(change.item.key, Key::of("k3"));
                assert_eq!(change.item.index, Some(1));
            }
            other => panic!("expected buffered add to replay, got {other:?}"),
        }
    }

    /// Shared-sort-window churn: two subscriptions share one window (same
    /// normalized query hash). One member leaves while the window is
    /// deactivated awaiting renewal; the survivor's renewal must re-seed
    /// the window, replay the `pending` buffer, and keep delivering
    /// ordered notifications — the window dies only with its last member.
    #[test]
    fn shared_window_survives_member_churn_mid_renewal() {
        let mut cfg = ClusterConfig::new(1, 1);
        cfg.tick_interval = Duration::from_millis(10);
        let metrics = cfg.metrics.clone();
        let h = harness(cfg);
        let spec =
            QuerySpec::filter("t", Document::new()).sorted_by("n", SortDirection::Asc).with_limit(2);

        // Two subscribers, one shared window.
        h.tx.send(subscribe_as(&spec, 1, 0, vec![item("k1", 1, 1), item("k2", 1, 2)])).unwrap();
        h.tx.send(subscribe_as(&spec, 2, 0, vec![item("k1", 1, 1), item("k2", 1, 2)])).unwrap();
        // The shared-windows gauge sees the group once both are attached.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if metrics.snapshot().gauges.get("matching.index.shared_windows").copied() == Some(1) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "shared_windows gauge never rose");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Exhaust the zero-slack window: maintenance error deactivates the
        // group and notifies both members.
        h.tx.send(change_event(&spec, FilterChangeKind::Remove, "k1", 2, None)).unwrap();
        let notes = notifications(&h, 2);
        assert_eq!(notes.len(), 2, "both members get the maintenance error: {notes:?}");
        assert!(notes.iter().all(|n| matches!(n.kind, NotificationKind::Error(_))));
        let erred: std::collections::HashSet<u64> = notes.iter().map(|n| n.subscription.0).collect();
        assert_eq!(erred, std::collections::HashSet::from([1, 2]));

        // While deactivated: a change postdating the upcoming snapshot is
        // buffered, and member 1 leaves mid-renewal.
        h.tx.send(change_event(&spec, FilterChangeKind::Add, "k3", 1, Some(doc! { "n" => 3i64 })))
            .unwrap();
        h.tx.send(Event::Unsubscribe {
            tenant: TenantId::new("app"),
            query_hash: spec.stable_hash(),
            subscription: SubscriptionId(1),
        })
        .unwrap();

        // The survivor renews: reseed + pending replay must still work.
        h.tx.send(subscribe_as(&spec, 2, 2, vec![item("k2", 1, 2)])).unwrap();
        let notes = notifications(&h, 3);
        assert_eq!(notes.len(), 3, "replay reaches only the survivor: {notes:?}");
        let replayed = &notes[2];
        assert_eq!(replayed.subscription, SubscriptionId(2), "departed member gets nothing");
        match &replayed.kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.match_type, MatchType::Add);
                assert_eq!(change.item.key, Key::of("k3"));
                assert_eq!(change.item.index, Some(1), "ordered position maintained");
            }
            other => panic!("expected buffered add to replay, got {other:?}"),
        }

        // Ordered maintenance continues for the survivor after churn.
        h.tx.send(change_event(&spec, FilterChangeKind::Add, "k0", 1, Some(doc! { "n" => 0i64 })))
            .unwrap();
        let notes = notifications(&h, 4);
        let last = notes.last().unwrap();
        assert_eq!(last.subscription, SubscriptionId(2));
        match &last.kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.item.key, Key::of("k0"));
                assert_eq!(change.item.index, Some(0), "sorts ahead of the window");
            }
            other => panic!("expected ordered add, got {other:?}"),
        }

        // With one member left the window no longer counts as shared.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if metrics.snapshot().gauges.get("matching.index.shared_windows").copied() == Some(0) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "shared_windows gauge never fell");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
