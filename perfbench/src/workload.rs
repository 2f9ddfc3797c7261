//! Seeded input generators for the three workloads.
//!
//! Every generator is a pure function of its seed: the subscription set,
//! the preloaded records and the operation stream are drawn from one
//! `StdRng`, so the same seed yields the same inputs no matter how many
//! operations a run consumes. The program under test only ever sees the
//! generated specs, documents and keys.

use invalidb_common::{doc, AggregateOp, Document, Key, QuerySpec, SortDirection, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated operation. `ts` (the due time) is added when it is sent.
#[derive(Debug, Clone)]
pub enum Op {
    /// `AppServer::insert` of a new record.
    Insert { key: Key, doc: Document },
    /// `AppServer::update` raising a record's `score` by `inc`.
    Update { key: Key, inc: i64 },
    /// `AppServer::delete` of an existing record.
    Delete { key: Key },
    /// A standalone after-image published straight to the cluster topic.
    Publish { key: Key, version: u64, doc: Document },
}

/// A workload's generator.
pub trait Generator: Send {
    /// Collection every spec and write targets.
    fn collection(&self) -> &'static str;
    /// Records present before any subscription.
    fn preload(&mut self) -> Vec<(Key, Document)>;
    /// The initial subscription set.
    fn subscriptions(&mut self) -> Vec<QuerySpec>;
    /// The next write.
    fn next_op(&mut self) -> Op;
    /// A fresh subscription for the churn schedule (`None`: no churn).
    fn churn_spec(&mut self) -> Option<QuerySpec> {
        None
    }
    /// Store fields to index before preloading.
    fn store_indexes(&self) -> &'static [&'static str] {
        &[]
    }
}

fn literal(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..10).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char).collect()
}

/// `quaestor_ranges`: the paper's §6.1 documents and range queries.
///
/// Query `q` covers `random ∈ [q·1000, q·1000 + 10)`. A matching write
/// draws its `random` inside exactly one such range; every other write
/// lands in the gaps between ranges, so it matches nothing.
pub struct QuaestorRanges {
    rng: StdRng,
    queries: usize,
    next: u64,
    match_share: f64,
}

/// Width of every `quaestor_ranges` query range.
const QUAESTOR_WIDTH: i64 = 10;
/// Spacing between `quaestor_ranges` query ranges.
const QUAESTOR_STRIDE: i64 = 1_000;

impl QuaestorRanges {
    pub fn new(seed: u64, queries: usize, match_share: f64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), queries, next: 0, match_share }
    }
}

impl Generator for QuaestorRanges {
    fn collection(&self) -> &'static str {
        "test"
    }

    fn preload(&mut self) -> Vec<(Key, Document)> {
        Vec::new()
    }

    fn subscriptions(&mut self) -> Vec<QuerySpec> {
        (0..self.queries as i64)
            .map(|q| {
                let lo = q * QUAESTOR_STRIDE;
                QuerySpec::filter(
                    "test",
                    doc! { "random" => doc! { "$gte" => lo, "$lt" => lo + QUAESTOR_WIDTH } },
                )
            })
            .collect()
    }

    fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let q = self.rng.gen_range(0..self.queries as i64);
        let random = if self.rng.gen::<f64>() < self.match_share {
            q * QUAESTOR_STRIDE + self.rng.gen_range(0..QUAESTOR_WIDTH)
        } else {
            q * QUAESTOR_STRIDE
                + QUAESTOR_WIDTH
                + self.rng.gen_range(0..QUAESTOR_STRIDE - 2 * QUAESTOR_WIDTH)
        };
        let rng = &mut self.rng;
        let doc = doc! {
            "s1" => literal(rng), "s2" => literal(rng), "s3" => literal(rng),
            "s4" => literal(rng), "s5" => literal(rng),
            "i1" => rng.gen_range(0..1_000i64), "i2" => rng.gen_range(0..1_000i64),
            "i3" => rng.gen_range(0..1_000i64), "i4" => rng.gen_range(0..1_000i64),
            "random" => random,
        };
        Op::Insert { key: Key::of(format!("w{i}")), doc }
    }

    fn store_indexes(&self) -> &'static [&'static str] {
        &["random"]
    }
}

/// `shared_filters`: many overlapping conjunctive filters over a bounded
/// key space, driven through the standalone cluster.
///
/// One third unique two-sided ranges on `x`; one third `status` equality
/// plus a `price` band; one third `tag` equality plus a `qty` band drawn
/// from a smaller pool of distinct filters, so subscriptions share
/// queries. Every write overwrites one of `keys` records with fresh
/// values, so records move in and out of results.
pub struct SharedFilters {
    rng: StdRng,
    subscriptions: usize,
    keys: usize,
    versions: Vec<u64>,
}

const STATUSES: [&str; 4] = ["new", "paid", "shipped", "returned"];
const TAGS: usize = 40;
const X_SPACE: i64 = 100_000;
const PRICE_SPACE: i64 = 10_000;
const QTY_SPACE: i64 = 1_000;

impl SharedFilters {
    pub fn new(seed: u64, subscriptions: usize, keys: usize) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), subscriptions, keys, versions: vec![0; keys] }
    }
}

/// Key of record `k` in `shared_filters`.
fn filter_key(k: usize) -> Key {
    Key::of(format!("r{k}"))
}

impl Generator for SharedFilters {
    fn collection(&self) -> &'static str {
        "items"
    }

    fn preload(&mut self) -> Vec<(Key, Document)> {
        Vec::new()
    }

    fn subscriptions(&mut self) -> Vec<QuerySpec> {
        let third = self.subscriptions / 3;
        let rng = &mut self.rng;
        let mut out = Vec::with_capacity(self.subscriptions);
        for _ in 0..third {
            let lo = rng.gen_range(0..X_SPACE);
            let width = rng.gen_range(20..60i64);
            out.push(QuerySpec::filter(
                "items",
                doc! { "x" => doc! { "$gte" => lo, "$lt" => lo + width } },
            ));
        }
        for _ in 0..third {
            let status = STATUSES[rng.gen_range(0..STATUSES.len())];
            let lo = rng.gen_range(0..PRICE_SPACE);
            let width = rng.gen_range(8..24i64);
            out.push(QuerySpec::filter(
                "items",
                doc! { "status" => status, "price" => doc! { "$gte" => lo, "$lt" => lo + width } },
            ));
        }
        // A pool of distinct tag/qty filters, about four subscriptions each.
        let pool: Vec<QuerySpec> = (0..(self.subscriptions - 2 * third).div_ceil(4))
            .map(|_| {
                let tag = format!("t{}", rng.gen_range(0..TAGS));
                let lo = rng.gen_range(0..QTY_SPACE);
                let width = rng.gen_range(8..24i64);
                QuerySpec::filter(
                    "items",
                    doc! { "tag" => tag, "qty" => doc! { "$gte" => lo, "$lt" => lo + width } },
                )
            })
            .collect();
        while out.len() < self.subscriptions {
            out.push(pool[rng.gen_range(0..pool.len())].clone());
        }
        out
    }

    fn next_op(&mut self) -> Op {
        let k = self.rng.gen_range(0..self.keys);
        self.versions[k] += 1;
        let rng = &mut self.rng;
        let doc = doc! {
            "x" => rng.gen_range(0..X_SPACE),
            "status" => STATUSES[rng.gen_range(0..STATUSES.len())],
            "price" => rng.gen_range(0..PRICE_SPACE),
            "tag" => format!("t{}", rng.gen_range(0..TAGS)),
            "qty" => rng.gen_range(0..QTY_SPACE),
        };
        Op::Publish { key: filter_key(k), version: self.versions[k], doc }
    }
}

/// `sorted_churn`: top-k windows and per-category counts over a
/// preloaded collection, with score increments (90 %), inserts (5 %),
/// deletes (5 %) and a steady subscription churn. Sorted subscriptions
/// pick a category and a limit of 5, 10 or 20, so some of them share a
/// query; count subscriptions pick a category.
pub struct SortedChurn {
    rng: StdRng,
    categories: usize,
    sorted_subs: usize,
    count_subs: usize,
    preload: usize,
    /// Live keys, for uniform picks; `slot` maps a key number to its index.
    live: Vec<u64>,
    slot: std::collections::HashMap<u64, usize>,
    next_key: u64,
}

const SCORE_SPACE: i64 = 1_000_000;
/// Upper bound of one score increment: scores only rise, so updates move
/// records up through the windows (and into them from below) while only
/// deletes take records out of a window from the inside.
const SCORE_STEP: i64 = 20_000;

impl SortedChurn {
    pub fn new(
        seed: u64,
        preload: usize,
        categories: usize,
        sorted_subs: usize,
        count_subs: usize,
    ) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            categories,
            sorted_subs,
            count_subs,
            preload,
            live: Vec::new(),
            slot: std::collections::HashMap::new(),
            next_key: 0,
        }
    }

    fn category(&mut self) -> String {
        format!("c{}", self.rng.gen_range(0..self.categories))
    }

    fn fresh_record(&mut self) -> (Key, Document) {
        let n = self.next_key;
        self.next_key += 1;
        self.slot.insert(n, self.live.len());
        self.live.push(n);
        let category = self.category();
        let doc = doc! {
            "category" => category,
            "score" => self.rng.gen_range(0..SCORE_SPACE),
            "name" => literal(&mut self.rng),
        };
        (Key::of(format!("k{n}")), doc)
    }

    fn pick_live(&mut self) -> u64 {
        self.live[self.rng.gen_range(0..self.live.len())]
    }

    fn remove_live(&mut self, n: u64) {
        let i = self.slot.remove(&n).expect("live key");
        let last = self.live.pop().expect("non-empty");
        if last != n {
            self.live[i] = last;
            self.slot.insert(last, i);
        }
    }

    fn top_k(&mut self) -> QuerySpec {
        let c = self.category();
        QuerySpec::filter("items", doc! { "category" => c })
            .sorted_by("score", SortDirection::Desc)
            .with_limit([5u64, 10, 20][self.rng.gen_range(0..3usize)])
    }
}

impl Generator for SortedChurn {
    fn collection(&self) -> &'static str {
        "items"
    }

    fn preload(&mut self) -> Vec<(Key, Document)> {
        (0..self.preload).map(|_| self.fresh_record()).collect()
    }

    fn subscriptions(&mut self) -> Vec<QuerySpec> {
        let mut out: Vec<QuerySpec> = (0..self.sorted_subs).map(|_| self.top_k()).collect();
        for _ in 0..self.count_subs {
            let c = self.category();
            out.push(
                QuerySpec::filter("items", doc! { "category" => c })
                    .aggregated(AggregateOp::Count, None),
            );
        }
        out
    }

    fn next_op(&mut self) -> Op {
        let roll = self.rng.gen_range(0..20);
        if roll == 0 || self.live.len() < 2 {
            let (key, doc) = self.fresh_record();
            Op::Insert { key, doc }
        } else if roll == 1 {
            let n = self.pick_live();
            self.remove_live(n);
            Op::Delete { key: Key::of(format!("k{n}")) }
        } else {
            let n = self.pick_live();
            Op::Update { key: Key::of(format!("k{n}")), inc: self.rng.gen_range(1..SCORE_STEP) }
        }
    }

    fn churn_spec(&mut self) -> Option<QuerySpec> {
        Some(self.top_k())
    }

    fn store_indexes(&self) -> &'static [&'static str] {
        &["category"]
    }
}

/// The generator of workload `name` for `seed`, or `None` when unknown.
pub fn generator(name: &str, seed: u64) -> Option<Box<dyn Generator>> {
    Some(match name {
        "quaestor_ranges" => Box::new(QuaestorRanges::new(seed, 2_000, 0.05)),
        "shared_filters" => Box::new(SharedFilters::new(seed, 2_500, 2_000)),
        "sorted_churn" => Box::new(SortedChurn::new(seed, 10_000, 50, 400, 100)),
        _ => return None,
    })
}

/// Attaches the due time to a document as `ts` (unix microseconds).
pub fn stamped(doc: &Document, due_us: u64) -> Document {
    let mut d = doc.clone();
    d.insert("ts", Value::Int(due_us as i64));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_query::{MongoQueryEngine, QueryEngine};

    #[test]
    fn same_seed_same_inputs() {
        let mut a = SharedFilters::new(7, 30, 50);
        let mut b = SharedFilters::new(7, 30, 50);
        assert_eq!(a.subscriptions(), b.subscriptions());
        for _ in 0..20 {
            assert_eq!(format!("{:?}", a.next_op()), format!("{:?}", b.next_op()));
        }
    }

    #[test]
    fn quaestor_writes_match_at_most_one_query() {
        let mut g = QuaestorRanges::new(3, 200, 0.5);
        let prepared: Vec<_> =
            g.subscriptions().iter().map(|q| MongoQueryEngine.prepare(q).expect("valid")).collect();
        let mut matched = 0;
        for _ in 0..400 {
            let Op::Insert { doc, .. } = g.next_op() else { panic!("inserts only") };
            let hits = prepared.iter().filter(|p| p.matches(&doc)).count();
            assert!(hits <= 1);
            matched += hits;
        }
        assert!(matched > 100 && matched < 300, "about half match: {matched}");
    }

    #[test]
    fn churn_keeps_live_set_consistent() {
        let mut g = SortedChurn::new(5, 100, 10, 5, 2);
        let pre = g.preload();
        assert_eq!(pre.len(), 100);
        let mut live: std::collections::HashSet<Key> = pre.into_iter().map(|(k, _)| k).collect();
        for _ in 0..2_000 {
            match g.next_op() {
                Op::Insert { key, .. } => assert!(live.insert(key)),
                Op::Delete { key } => assert!(live.remove(&key)),
                Op::Update { key, .. } => assert!(live.contains(&key)),
                Op::Publish { .. } => panic!("app-server workload"),
            }
        }
        assert_eq!(live.len(), g.live.len());
    }
}
