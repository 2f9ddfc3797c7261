//! The slow-query log: per-query latency/match-cost accounting.
//!
//! Thousands of continuous queries share one matching grid (the SharedDB
//! problem): when the pipeline slows down, the operator's first question
//! is *which query is eating the grid*. The matching and sorting stages
//! feed per-query evaluation costs here; the log keeps a bounded table
//! keyed by `(tenant, query hash)` and reports the top offenders by
//! cumulative cost.

use invalidb_common::trace::now_micros;
use invalidb_common::Document;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default maximum number of distinct queries tracked.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 512;

/// Accumulated cost accounting for one continuous query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowQueryEntry {
    /// Owning tenant (app-server id).
    pub tenant: String,
    /// The query's hash (`QueryHash` raw value).
    pub query_hash: u64,
    /// Human-readable query label (collection + predicate display),
    /// captured on first sighting.
    pub label: String,
    /// Number of evaluations charged to this query.
    pub evals: u64,
    /// Total microseconds spent evaluating this query.
    pub total_us: u64,
    /// Most expensive single evaluation, microseconds.
    pub max_us: u64,
    /// Cost of the most recent evaluation, microseconds.
    pub last_us: u64,
    /// Wall-clock microseconds of the most recent evaluation.
    pub last_seen_micros: u64,
}

impl SlowQueryEntry {
    /// Mean cost per evaluation, rounded, in microseconds.
    pub fn mean_us(&self) -> u64 {
        if self.evals == 0 {
            0
        } else {
            (self.total_us as f64 / self.evals as f64).round() as u64
        }
    }

    /// Encodes the entry as a document (the JSON object model).
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(9);
        d.insert("tenant", self.tenant.as_str());
        d.insert("query_hash", self.query_hash as i64);
        d.insert("label", self.label.as_str());
        d.insert("evals", self.evals as i64);
        d.insert("total_us", self.total_us as i64);
        d.insert("mean_us", self.mean_us() as i64);
        d.insert("max_us", self.max_us as i64);
        d.insert("last_us", self.last_us as i64);
        d.insert("last_seen_micros", self.last_seen_micros as i64);
        d
    }
}

struct SlowInner {
    capacity: usize,
    entries: Mutex<HashMap<(String, u64), SlowQueryEntry>>,
}

/// Bounded per-query cost accounting table. Cheap to clone (all clones
/// share state). When full, recording a *new* query evicts the entry with
/// the smallest total cost, so persistent offenders are never displaced
/// by one-off cheap queries.
#[derive(Clone)]
pub struct SlowQueryLog {
    inner: Arc<SlowInner>,
}

impl SlowQueryLog {
    /// A log tracking at most `capacity` distinct queries (minimum 1).
    pub fn with_capacity(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            inner: Arc::new(SlowInner {
                capacity: capacity.max(1),
                entries: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Charges one evaluation of `cost_us` microseconds to
    /// `(tenant, query_hash)`. `label` is called only when the query is
    /// seen for the first time.
    pub fn charge(&self, tenant: &str, query_hash: u64, label: impl FnOnce() -> String, cost_us: u64) {
        let mut entries = self.inner.entries.lock();
        let key = (tenant.to_owned(), query_hash);
        if let Some(e) = entries.get_mut(&key) {
            e.evals += 1;
            e.total_us += cost_us;
            e.max_us = e.max_us.max(cost_us);
            e.last_us = cost_us;
            e.last_seen_micros = now_micros();
            return;
        }
        if entries.len() >= self.inner.capacity {
            if let Some(victim) = entries.iter().min_by_key(|(_, e)| e.total_us).map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
            }
        }
        entries.insert(
            key,
            SlowQueryEntry {
                tenant: tenant.to_owned(),
                query_hash,
                label: label(),
                evals: 1,
                total_us: cost_us,
                max_us: cost_us,
                last_us: cost_us,
                last_seen_micros: now_micros(),
            },
        );
    }

    /// Forgets a query (it was unsubscribed and is not coming back).
    pub fn forget(&self, tenant: &str, query_hash: u64) {
        self.inner.entries.lock().remove(&(tenant.to_owned(), query_hash));
    }

    /// Number of distinct queries currently tracked.
    pub fn len(&self) -> usize {
        self.inner.entries.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` most expensive queries by total cost, most expensive first.
    /// Ties break by label so the order is deterministic.
    pub fn top(&self, k: usize) -> Vec<SlowQueryEntry> {
        let mut all: Vec<SlowQueryEntry> = self.inner.entries.lock().values().cloned().collect();
        all.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.label.cmp(&b.label)));
        all.truncate(k);
        all
    }

    /// Renders [`SlowQueryLog::top`] as a JSON array string.
    pub fn top_json(&self, k: usize) -> String {
        let docs: Vec<String> =
            self.top(k).iter().map(|e| invalidb_json::to_string(&e.to_document())).collect();
        format!("[{}]", docs.join(","))
    }
}

impl Default for SlowQueryLog {
    fn default() -> SlowQueryLog {
        SlowQueryLog::with_capacity(DEFAULT_SLOW_LOG_CAPACITY)
    }
}

struct PendingCharge {
    /// Captured on the query's first local sighting since the last flush;
    /// consumed when the flush creates the shared entry.
    label: Option<String>,
    evals: u64,
    total_ns: u64,
    max_ns: u64,
    last_ns: u64,
}

/// A per-task charge accumulator for pipeline stages.
///
/// The matching and sorting bolts evaluate queries on their hot paths;
/// charging the shared [`SlowQueryLog`] there would serialize every task
/// on one global lock per evaluation. Instead each bolt charges its own
/// (unsynchronized) scratch and flushes the batch on tick, so the shared
/// lock is taken once per tick interval rather than once per write×query.
/// Charges are in nanoseconds, because most evaluations take well under a
/// microsecond; the flush converts them to the log's microseconds.
#[derive(Default)]
pub struct SlowQueryScratch {
    /// Tenant → query hash → charge; nested so a charge looks the tenant
    /// up by `&str` instead of allocating a key.
    pending: HashMap<String, HashMap<u64, PendingCharge>>,
}

impl SlowQueryScratch {
    /// An empty scratch.
    pub fn new() -> SlowQueryScratch {
        SlowQueryScratch::default()
    }

    /// Charges one evaluation of `cost_ns` nanoseconds locally. `label` is
    /// called only on the query's first local sighting since the last
    /// flush.
    pub fn charge(
        &mut self,
        tenant: &str,
        query_hash: u64,
        label: impl FnOnce() -> String,
        cost_ns: u64,
    ) {
        self.charge_n(tenant, query_hash, label, 1, cost_ns);
    }

    /// Charges `evals` evaluations totalling `cost_ns` nanoseconds in one
    /// call. The batched matching path times a whole per-query candidate
    /// slice with a single clock-read pair; the per-evaluation cost is
    /// approximated by the slice mean for the max/last fields.
    pub fn charge_n(
        &mut self,
        tenant: &str,
        query_hash: u64,
        label: impl FnOnce() -> String,
        evals: u64,
        cost_ns: u64,
    ) {
        if evals == 0 {
            return;
        }
        let per_eval = cost_ns / evals;
        if let Some(p) = self.pending.get_mut(tenant).and_then(|by_hash| by_hash.get_mut(&query_hash)) {
            p.evals += evals;
            p.total_ns += cost_ns;
            p.max_ns = p.max_ns.max(per_eval);
            p.last_ns = per_eval;
            return;
        }
        self.pending.entry(tenant.to_owned()).or_default().insert(
            query_hash,
            PendingCharge {
                label: Some(label()),
                evals,
                total_ns: cost_ns,
                max_ns: per_eval,
                last_ns: per_eval,
            },
        );
    }

    /// Number of distinct queries with unflushed charges.
    pub fn len(&self) -> usize {
        self.pending.values().map(HashMap::len).sum()
    }

    /// Whether there is anything to flush.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drains every accumulated charge into `log` under a single lock
    /// acquisition. A no-op when nothing was charged. Queries new to the
    /// log are always admitted; when they do not fit, the cheapest existing
    /// entries make room, chosen in one selection pass per flush (and if
    /// the new queries alone exceed the capacity, only the costliest of
    /// them are kept).
    pub fn flush(&mut self, log: &SlowQueryLog) {
        if self.pending.is_empty() {
            return;
        }
        let now = now_micros();
        let mut entries = log.inner.entries.lock();
        let mut fresh: Vec<SlowQueryEntry> = Vec::new();
        for (tenant, by_hash) in self.pending.drain() {
            for (query_hash, p) in by_hash {
                let (total_us, max_us, last_us) = (p.total_ns / 1000, p.max_ns / 1000, p.last_ns / 1000);
                if let Some(e) = entries.get_mut(&(tenant.clone(), query_hash)) {
                    e.evals += p.evals;
                    e.total_us += total_us;
                    e.max_us = e.max_us.max(max_us);
                    e.last_us = last_us;
                    e.last_seen_micros = now;
                    continue;
                }
                fresh.push(SlowQueryEntry {
                    tenant: tenant.clone(),
                    query_hash,
                    label: p.label.unwrap_or_default(),
                    evals: p.evals,
                    total_us,
                    max_us,
                    last_us,
                    last_seen_micros: now,
                });
            }
        }
        let capacity = log.inner.capacity;
        if fresh.len() >= capacity {
            entries.clear();
            if fresh.len() > capacity {
                fresh.select_nth_unstable_by(capacity - 1, |a, b| b.total_us.cmp(&a.total_us));
                fresh.truncate(capacity);
            }
        } else {
            let overflow = (entries.len() + fresh.len()).saturating_sub(capacity);
            if overflow > 0 {
                // Evict the `overflow` cheapest: everything below the
                // overflow-th smallest cost, then ties at it as needed.
                let mut costs: Vec<u64> = entries.values().map(|e| e.total_us).collect();
                let cutoff = *costs.select_nth_unstable(overflow - 1).1;
                let mut ties = overflow - costs.iter().filter(|c| **c < cutoff).count();
                entries.retain(|_, e| {
                    if e.total_us != cutoff {
                        return e.total_us > cutoff;
                    }
                    if ties > 0 {
                        ties -= 1;
                        return false;
                    }
                    true
                });
            }
        }
        for e in fresh {
            entries.insert((e.tenant.clone(), e.query_hash), e);
        }
    }
}

impl std::fmt::Debug for SlowQueryScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryScratch").field("pending", &self.pending.len()).finish()
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog").field("tracked", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_query() {
        let log = SlowQueryLog::with_capacity(8);
        log.charge("t1", 42, || "a".into(), 100);
        log.charge("t1", 42, || "never".into(), 300);
        log.charge("t2", 42, || "b".into(), 50);
        assert_eq!(log.len(), 2);
        let top = log.top(10);
        assert_eq!(top[0].label, "a");
        assert_eq!(top[0].evals, 2);
        assert_eq!(top[0].total_us, 400);
        assert_eq!(top[0].max_us, 300);
        assert_eq!(top[0].mean_us(), 200);
        assert_eq!(top[1].label, "b");
    }

    #[test]
    fn eviction_keeps_expensive_queries() {
        let log = SlowQueryLog::with_capacity(2);
        log.charge("t", 1, || "heavy".into(), 10_000);
        log.charge("t", 2, || "medium".into(), 500);
        log.charge("t", 3, || "new".into(), 100);
        // The cheapest entry ("medium", 500us total) is evicted to make
        // room; the persistent offender ("heavy") survives.
        let top = log.top(10);
        let labels: Vec<&str> = top.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["heavy", "new"]);
    }

    #[test]
    fn forget_removes_entry() {
        let log = SlowQueryLog::with_capacity(4);
        log.charge("t", 1, || "q".into(), 10);
        log.forget("t", 1);
        assert!(log.is_empty());
    }

    #[test]
    fn scratch_batches_and_flushes() {
        let log = SlowQueryLog::with_capacity(8);
        let mut scratch = SlowQueryScratch::new();
        scratch.charge("t", 1, || "a".into(), 100_000);
        scratch.charge("t", 1, || "never".into(), 300_000);
        scratch.charge("t", 2, || "b".into(), 50_000);
        assert_eq!(scratch.len(), 2);
        assert!(log.is_empty(), "nothing reaches the shared log before flush");
        scratch.flush(&log);
        assert!(scratch.is_empty());
        let top = log.top(10);
        assert_eq!(top[0].label, "a");
        assert_eq!(top[0].evals, 2);
        assert_eq!(top[0].total_us, 400);
        assert_eq!(top[0].max_us, 300);
        assert_eq!(top[0].last_us, 300);
        assert_eq!(top[1].label, "b");
        // A second flush accumulates into the existing entries.
        scratch.charge("t", 1, || "ignored".into(), 50_000);
        scratch.flush(&log);
        let top = log.top(10);
        assert_eq!(top[0].evals, 3);
        assert_eq!(top[0].total_us, 450);
        assert_eq!(top[0].label, "a", "label captured once, kept across flushes");
    }

    #[test]
    fn scratch_flush_respects_capacity_eviction() {
        let log = SlowQueryLog::with_capacity(2);
        log.charge("t", 1, || "heavy".into(), 10_000);
        log.charge("t", 2, || "medium".into(), 500);
        let mut scratch = SlowQueryScratch::new();
        scratch.charge("t", 3, || "new".into(), 100);
        scratch.flush(&log);
        let labels: Vec<String> = log.top(10).into_iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["heavy", "new"]);
    }

    #[test]
    fn scratch_accumulates_sub_microsecond_charges() {
        let log = SlowQueryLog::with_capacity(8);
        let mut scratch = SlowQueryScratch::new();
        for _ in 0..1_000 {
            scratch.charge("t", 1, || "q".into(), 400);
        }
        scratch.flush(&log);
        let top = log.top(1);
        assert_eq!(top[0].evals, 1_000);
        assert_eq!(top[0].total_us, 400, "1,000 charges of 400 ns");
        assert_eq!(top[0].max_us, 0);
    }

    #[test]
    fn scratch_flush_admits_many_new_queries_in_one_pass() {
        let log = SlowQueryLog::with_capacity(512);
        for h in 0..100u64 {
            log.charge("t", h, || format!("old{h}"), 5);
        }
        let mut scratch = SlowQueryScratch::new();
        for i in 1..=2_000u64 {
            scratch.charge("t", 1_000 + i, || format!("new{i}"), i * 1_000);
        }
        scratch.flush(&log);
        assert_eq!(log.len(), 512);
        let top = log.top(512);
        // More new queries than capacity: the costliest 512 of them stay.
        assert!(top.iter().all(|e| e.label.starts_with("new")));
        assert_eq!(top[0].total_us, 2_000);
        assert_eq!(top[511].total_us, 1_489);

        // Fewer new queries than the overflow: only the cheapest existing
        // entries (totals 1,489..1,588) make room.
        for i in 1..=100u64 {
            scratch.charge("t", 10_000 + i, || format!("late{i}"), 1_000);
        }
        scratch.flush(&log);
        assert_eq!(log.len(), 512);
        let kept: Vec<SlowQueryEntry> = log.top(512);
        assert_eq!(kept.iter().filter(|e| e.label.starts_with("late")).count(), 100);
        let old_min = kept.iter().filter(|e| e.label.starts_with("new")).map(|e| e.total_us).min();
        assert_eq!(old_min, Some(1_589));
    }
}
