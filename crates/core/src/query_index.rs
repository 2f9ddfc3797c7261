//! Multi-query index for the filtering stage.
//!
//! A naive matching node evaluates *every* of its queries against every
//! incoming after-image — O(queries) per write. The InvaliDB thesis lists
//! *multi-query optimizations* for exactly this hot path; this module keeps
//! per-write cost sublinear in the number of registered queries:
//!
//! * **Interval lanes** (§6.1: thousands of range predicates over one
//!   attribute): range conditions are indexed in a per-attribute interval
//!   tree, so a write only visits the queries whose interval its attribute
//!   value stabs — O(log queries + hits).
//! * **Equality lanes**: `$eq`/scalar and all-scalar `$in` conditions hash
//!   their literal's canonical encoding into a per-attribute lane —
//!   O(1) per attribute, independent of how many distinct values exist.
//! * **Conjunctive anchoring**: a filter like `{status: "open", price:
//!   {$lt: 100}}` is decomposed into atoms ([`invalidb_query::predicate`])
//!   and registered under its most selective indexable atom — equality
//!   first, then `$in`, then the tightest range — with the remaining atoms
//!   as a residual that full verification (and the matching node's shared
//!   predicate cache) handles. Before, any conjunction fell onto the O(Q)
//!   scan list.
//! * **Residual ranges**: an equality-lane entry also carries its query's
//!   combined numeric bounds on one other top-level attribute (`price < 100`
//!   above), strictness kept. When many queries share one lane key (a
//!   thousand filters on `status: "open"` with different price bands), the
//!   probe drops the entries whose range the document's value certainly
//!   misses from the compact lane entry alone, without touching any
//!   per-query state.
//!
//! The index is *conservative*: it may return supersets, never misses.
//! Array-valued attributes fan out per MongoDB semantics, and since
//! different elements may satisfy different conjuncts of one condition
//! (`{a: {$gt: 5, $lt: 9}}` matches `{a: [4, 10]}`), interval lookups probe
//! the **envelope** `[min(elements), max(elements)]` for intersection
//! rather than stabbing per element — exact for scalars, superset for
//! arrays. A residual range rejects only on a scalar `Int`/`Float` value it
//! can compare exactly; missing, null, array, string, bool, NaN and
//! integers beyond ±2^53 keep the entry. Every candidate the index returns
//! is verified with the full predicate evaluation, and every query it drops
//! certainly fails one of its own atoms, so correctness never depends on
//! the index. Queries with no indexable atom fall into a scan list and are
//! evaluated the classic way.
//!
//! The interval trees are static and rebuilt lazily on the first lookup
//! after a subscription change — subscription churn is orders of magnitude
//! rarer than writes (the paper's measurement phases hold the query set
//! constant). Candidate generation fills caller-provided scratch buffers:
//! the steady-state write path performs no allocation here.

use invalidb_common::{canonical_cmp, Document, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

/// An inclusive value interval (conservatively widened from the query).
#[derive(Debug, Clone)]
struct Interval<Id> {
    lo: Value,
    hi: Value,
    id: Id,
}

/// Result of analyzing a filter document for indexability.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexableRange {
    /// The single attribute the filter constrains.
    pub attr: String,
    /// Inclusive lower bound.
    pub lo: Value,
    /// Inclusive upper bound.
    pub hi: Value,
}

/// Analyzes a filter document the way the index did before conjunctive
/// anchoring existed: indexable iff it is exactly one top-level condition
/// of the form `{attr: literal}` (scalar) or
/// `{attr: {$eq/$gt/$gte/$lt/$lte: scalar, ...}}` with only range
/// operators. Retained as the planner of [`IndexOptions::legacy`] — the
/// measured pre-optimization baseline of the Q-scaling bench.
pub fn analyze_filter(filter: &Document) -> Option<IndexableRange> {
    if filter.len() != 1 {
        return None;
    }
    let (attr, cond) = filter.iter().next()?;
    if attr.starts_with('$') || attr.contains('.') {
        return None; // dotted paths interact with array fan-out; keep scanned
    }
    let scalar = |v: &Value| matches!(v.type_rank(), 1 | 2); // numbers, strings
    match cond {
        Value::Object(obj) if obj.keys().any(|k| k.starts_with('$')) => {
            let mut lo: Option<Value> = None;
            let mut hi: Option<Value> = None;
            for (op, v) in obj.iter() {
                if !scalar(v) {
                    return None;
                }
                match op {
                    "$eq" => {
                        lo = Some(tighten(lo, v, Ordering::Greater));
                        hi = Some(tighten(hi, v, Ordering::Less));
                    }
                    // Conservative: strict bounds widen to inclusive.
                    "$gt" | "$gte" => lo = Some(tighten(lo, v, Ordering::Greater)),
                    "$lt" | "$lte" => hi = Some(tighten(hi, v, Ordering::Less)),
                    _ => return None,
                }
            }
            let lo = lo.unwrap_or(bracket_min());
            let hi = hi.unwrap_or(bracket_max());
            Some(IndexableRange { attr: attr.to_owned(), lo, hi })
        }
        literal if scalar(literal) => {
            Some(IndexableRange { attr: attr.to_owned(), lo: literal.clone(), hi: literal.clone() })
        }
        _ => None,
    }
}

fn tighten(current: Option<Value>, candidate: &Value, keep_if: Ordering) -> Value {
    match current {
        None => candidate.clone(),
        Some(cur) => {
            if canonical_cmp(candidate, &cur) == keep_if {
                candidate.clone()
            } else {
                cur
            }
        }
    }
}

/// Smallest scalar under the canonical order (NaN opens the number bracket).
fn bracket_min() -> Value {
    Value::Float(f64::NAN)
}

/// A value above every number and string: the empty object.
fn bracket_max() -> Value {
    Value::Object(Document::new())
}

/// Static centered interval tree (sorted by `lo`, max-`hi` augmented).
struct IntervalTree<Id> {
    /// Intervals sorted by `(lo, insertion order)`.
    intervals: Vec<Interval<Id>>,
    /// `max_hi[i]` = maximum `hi` in the segment-tree node `i` covers.
    max_hi: Vec<Option<Value>>,
}

impl<Id: Copy> IntervalTree<Id> {
    fn build(mut intervals: Vec<Interval<Id>>) -> Self {
        intervals.sort_by(|a, b| canonical_cmp(&a.lo, &b.lo));
        let mut tree = Self { max_hi: vec![None; intervals.len() * 4 + 4], intervals };
        if !tree.intervals.is_empty() {
            tree.augment(1, 0, tree.intervals.len() - 1);
        }
        tree
    }

    fn augment(&mut self, node: usize, l: usize, r: usize) -> Value {
        if l == r {
            let hi = self.intervals[l].hi.clone();
            self.max_hi[node] = Some(hi.clone());
            return hi;
        }
        let mid = (l + r) / 2;
        let left = self.augment(node * 2, l, mid);
        let right = self.augment(node * 2 + 1, mid + 1, r);
        let max = if canonical_cmp(&left, &right) == Ordering::Less { right } else { left };
        self.max_hi[node] = Some(max.clone());
        max
    }

    /// All intervals `[lo, hi]` intersecting the probe envelope
    /// `[min, max]`, i.e. `lo <= max && hi >= min`. A point stab is the
    /// degenerate envelope `min == max == v`.
    fn intersecting(&self, min: &Value, max: &Value, out: &mut Vec<Id>) {
        if self.intervals.is_empty() {
            return;
        }
        self.intersect_rec(1, 0, self.intervals.len() - 1, min, max, out);
    }

    fn intersect_rec(
        &self,
        node: usize,
        l: usize,
        r: usize,
        min: &Value,
        max: &Value,
        out: &mut Vec<Id>,
    ) {
        // Prune: no interval below this node reaches up to `min`.
        match &self.max_hi[node] {
            Some(max_hi) if canonical_cmp(max_hi, min) != Ordering::Less => {}
            _ => return,
        }
        // Prune: intervals are sorted by lo; if even the leftmost lo > max,
        // nothing here intersects the envelope.
        if canonical_cmp(&self.intervals[l].lo, max) == Ordering::Greater {
            return;
        }
        if l == r {
            // lo <= max (checked above) and hi >= min (max_hi == hi here).
            out.push(self.intervals[l].id);
            return;
        }
        let mid = (l + r) / 2;
        self.intersect_rec(node * 2, l, mid, min, max, out);
        self.intersect_rec(node * 2 + 1, mid + 1, r, min, max, out);
    }
}

/// Planner knobs. The defaults are the full optimization; [`IndexOptions::legacy`]
/// reproduces the pre-optimization planner so the Q-scaling bench can
/// measure the improvement against a faithful baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexOptions {
    /// O(1) per-attribute equality lanes for `$eq`/scalar/`$in` atoms.
    pub eq_lanes: bool,
    /// Anchor conjunctive (multi-atom) filters on their most selective
    /// indexable atom instead of sending them to the scan list.
    pub conjunctive: bool,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self { eq_lanes: true, conjunctive: true }
    }
}

impl IndexOptions {
    /// The pre-optimization planner: single-condition interval analysis
    /// only, everything else scans.
    pub fn legacy() -> Self {
        Self { eq_lanes: false, conjunctive: false }
    }
}

/// Canonical lane key of an equality literal.
fn eq_key(v: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    v.write_canonical(&mut bytes);
    bytes
}

/// Equality-lane-safe literals: numbers, strings, booleans. `null` matches
/// missing fields (no probe would run), arrays/objects have fan-out
/// equality shapes the lane cannot model — all stay out.
fn eq_lane_safe(v: &Value) -> bool {
    matches!(v.type_rank(), 1 | 2 | 5)
}

/// Interval-safe literals: numbers and strings (the bracketed ranks).
fn range_scalar(v: &Value) -> bool {
    matches!(v.type_rank(), 1 | 2)
}

/// `$in` lists longer than this stay on the scan path — each element costs
/// a lane registration.
const MAX_IN_LANE: usize = 128;

/// Integers up to this magnitude convert to `f64` exactly.
const EXACT_INT: i64 = 1 << 53;

/// A scalar number as an `f64` that compares against any other such value
/// exactly as [`canonical_cmp`] would: `Int`s within ±2^53 and non-NaN
/// `Float`s. Everything else (other types, NaN, larger integers) is `None`.
fn exact_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) if i.unsigned_abs() <= EXACT_INT as u64 => Some(*i as f64),
        Value::Float(f) if !f.is_nan() => Some(*f),
        _ => None,
    }
}

/// Combined numeric bounds of a conjunction on one attribute, strictness
/// kept. Starts unbounded; each bound only ever tightens it.
#[derive(Debug, Clone, Copy)]
struct NumRange {
    lo: f64,
    lo_strict: bool,
    hi: f64,
    hi_strict: bool,
}

impl NumRange {
    const ALL: NumRange =
        NumRange { lo: f64::NEG_INFINITY, lo_strict: false, hi: f64::INFINITY, hi_strict: false };

    fn raise_lo(&mut self, b: f64, strict: bool) {
        if b > self.lo || (b == self.lo && strict) {
            self.lo = b;
            self.lo_strict = strict;
        }
    }

    fn lower_hi(&mut self, b: f64, strict: bool) {
        if b < self.hi || (b == self.hi && strict) {
            self.hi = b;
            self.hi_strict = strict;
        }
    }

    /// Number of bounded sides (0 = no residual worth carrying).
    fn sides(&self) -> u8 {
        u8::from(self.lo != f64::NEG_INFINITY || self.lo_strict)
            + u8::from(self.hi != f64::INFINITY || self.hi_strict)
    }

    /// True when `x` (an [`exact_f64`] value) fails a bound, i.e. the
    /// scalar cannot satisfy the conjunction.
    fn excludes(&self, x: f64) -> bool {
        x < self.lo
            || (self.lo_strict && x == self.lo)
            || x > self.hi
            || (self.hi_strict && x == self.hi)
    }
}

/// A residual range and the slot of the attribute it constrains (see
/// [`QueryIndex::residual_attrs`]).
#[derive(Debug, Clone, Copy)]
struct Residual {
    slot: u32,
    range: NumRange,
}

/// One query registered under an equality-lane key, with its residual
/// inline so rejection reads nothing but the lane's own array.
#[derive(Debug, Clone, Copy)]
struct LaneEntry<Id> {
    id: Id,
    residual: Option<Residual>,
}

type Lane<Id> = HashMap<Vec<u8>, Vec<LaneEntry<Id>>>;

/// Per-probe scratch, reused across writes.
#[derive(Default)]
struct ProbeScratch {
    /// Canonical encoding of the value being looked up in a lane.
    key: Vec<u8>,
    /// The document's value per residual slot, resolved on first use:
    /// `None` = not yet looked up, `Some(None)` = cannot reject.
    nums: Vec<Option<Option<f64>>>,
    /// Lane entries found / rejected by their residual since the last drain.
    eq_hits: u64,
    rejects: u64,
}

/// Where a query was registered (exact removal + accounting).
enum Anchor {
    Scan,
    Eq { attr: String, keys: Vec<Vec<u8>>, residual_slot: Option<u32> },
    Range { attr: String },
}

/// A planned registration, before it is applied to the index structures.
enum Placement {
    Scan,
    Eq { attr: String, keys: Vec<Vec<u8>>, residual: Option<(String, NumRange)> },
    Range { attr: String, lo: Value, hi: Value },
}

/// The per-(tenant, collection) multi-query index.
pub struct QueryIndex<Id: Copy + Eq + Hash> {
    opts: IndexOptions,
    /// Raw indexed intervals per attribute (source of truth).
    ranges: HashMap<String, HashMap<Id, (Value, Value)>>,
    /// Built trees (lazily rebuilt when dirty).
    trees: HashMap<String, IntervalTree<Id>>,
    /// Equality lanes: attribute → canonical literal bytes → queries.
    eq: HashMap<String, Lane<Id>>,
    /// Attributes constrained by residual ranges, indexed by
    /// [`Residual::slot`], with the number of lane entries using each
    /// (a slot whose count dropped to zero is reused).
    residual_attrs: Vec<(String, usize)>,
    /// Queries that could not be indexed: always evaluated.
    scan: Vec<Id>,
    /// Where each registered query lives (exact removal).
    anchors: HashMap<Id, Anchor>,
    dirty: bool,
    probe: ProbeScratch,
    /// Reused per-write id buffer of the batched probe.
    stab_scratch: Vec<Id>,
}

impl<Id: Copy + Eq + Hash> Default for QueryIndex<Id> {
    fn default() -> Self {
        Self::with_options(IndexOptions::default())
    }
}

impl<Id: Copy + Eq + Hash> QueryIndex<Id> {
    /// An empty index with explicit planner options.
    pub fn with_options(opts: IndexOptions) -> Self {
        Self {
            opts,
            ranges: HashMap::new(),
            trees: HashMap::new(),
            eq: HashMap::new(),
            residual_attrs: Vec::new(),
            scan: Vec::new(),
            anchors: HashMap::new(),
            dirty: false,
            probe: ProbeScratch::default(),
            stab_scratch: Vec::new(),
        }
    }

    /// Registers a query under the most selective indexable atom of its
    /// filter; filters with no indexable atom go to the scan list.
    pub fn insert(&mut self, id: Id, filter: &Document) {
        let placement = if self.opts.conjunctive {
            self.plan_conjunctive(filter)
        } else {
            match analyze_filter(filter) {
                Some(r) => Placement::Range { attr: r.attr, lo: r.lo, hi: r.hi },
                None => Placement::Scan,
            }
        };
        let anchor = match placement {
            Placement::Scan => {
                self.scan.push(id);
                Anchor::Scan
            }
            Placement::Eq { attr, keys, residual } => {
                let residual = residual.map(|(attr, range)| Residual {
                    slot: acquire_slot(&mut self.residual_attrs, &attr),
                    range,
                });
                let lane = self.eq.entry(attr.clone()).or_default();
                for key in &keys {
                    lane.entry(key.clone()).or_default().push(LaneEntry { id, residual });
                }
                Anchor::Eq { attr, keys, residual_slot: residual.map(|r| r.slot) }
            }
            Placement::Range { attr, lo, hi } => {
                self.ranges.entry(attr.clone()).or_default().insert(id, (lo, hi));
                self.dirty = true;
                Anchor::Range { attr }
            }
        };
        self.anchors.insert(id, anchor);
    }

    /// Picks the anchor for a conjunctive filter: equality beats `$in`
    /// beats ranges; among range atoms, all bounds on one attribute are
    /// combined into a single (tighter) interval — the envelope probe keeps
    /// that array-safe. An equality-lane anchor also takes the residual
    /// range of one other attribute, preferring two-sided bounds.
    fn plan_conjunctive(&self, filter: &Document) -> Placement {
        let atoms = invalidb_query::decompose(filter);
        // Per-attribute combined range bounds, in first-seen atom order
        // (atoms are canonically sorted, so planning is deterministic).
        let mut bounds: Vec<AttrBounds> = Vec::new();
        let mut best_eq: Option<(String, Vec<Vec<u8>>)> = None;
        let mut best_in: Option<(String, Vec<Vec<u8>>)> = None;
        for atom in &atoms {
            if atom.doc.len() != 1 {
                continue;
            }
            let (attr, cond) = atom.doc.iter().next().expect("one entry");
            if attr.starts_with('$') || attr.contains('.') {
                continue;
            }
            // Normalization spells `$eq` as a plain literal except for
            // operator-shaped object literals; treat a stray scalar `$eq`
            // as equality.
            let literal = match cond {
                Value::Object(obj) if obj.keys().any(|k| k.starts_with('$')) => {
                    if obj.len() != 1 {
                        continue; // coupled/opaque condition: residual only
                    }
                    let (op, v) = obj.iter().next().expect("one op");
                    match op {
                        "$gt" | "$gte" if range_scalar(v) => {
                            bound_slot(&mut bounds, attr).lower(v, op == "$gt");
                            continue;
                        }
                        "$lt" | "$lte" if range_scalar(v) => {
                            bound_slot(&mut bounds, attr).upper(v, op == "$lt");
                            continue;
                        }
                        "$eq" if range_scalar(v) => v,
                        "$in" if self.opts.eq_lanes && best_in.is_none() => {
                            if let Some(items) = v.as_array() {
                                if items.len() <= MAX_IN_LANE && items.iter().all(eq_lane_safe) {
                                    let mut keys: Vec<Vec<u8>> = items.iter().map(eq_key).collect();
                                    keys.sort_unstable();
                                    keys.dedup();
                                    best_in = Some((attr.to_owned(), keys));
                                }
                            }
                            continue;
                        }
                        _ => continue,
                    }
                }
                literal => literal,
            };
            // Plain equality: the most selective anchor there is.
            if self.opts.eq_lanes && best_eq.is_none() && eq_lane_safe(literal) {
                best_eq = Some((attr.to_owned(), vec![eq_key(literal)]));
            }
            if range_scalar(literal) {
                let slot = bound_slot(&mut bounds, attr);
                slot.lower(literal, false);
                slot.upper(literal, false);
            }
        }
        if let Some((attr, keys)) = best_eq.or(best_in) {
            let residual = bounds
                .into_iter()
                .filter(|b| b.attr != attr && b.num.sides() > 0)
                .max_by_key(|b| b.num.sides())
                .map(|b| (b.attr, b.num));
            return Placement::Eq { attr, keys, residual };
        }
        // Prefer two-sided (bounded) intervals over half-lines.
        let best = bounds.into_iter().max_by_key(|b| (b.lo.is_some() as u8) + (b.hi.is_some() as u8));
        match best {
            Some(AttrBounds { attr, lo, hi, .. }) if lo.is_some() || hi.is_some() => Placement::Range {
                attr,
                lo: lo.unwrap_or(bracket_min()),
                hi: hi.unwrap_or(bracket_max()),
            },
            _ => Placement::Scan,
        }
    }

    /// Unregisters a query (exact: only touches the anchor it lives under).
    pub fn remove(&mut self, id: Id) {
        match self.anchors.remove(&id) {
            None => {}
            Some(Anchor::Scan) => self.scan.retain(|s| *s != id),
            Some(Anchor::Eq { attr, keys, residual_slot }) => {
                if let Some(lane) = self.eq.get_mut(&attr) {
                    for key in &keys {
                        if let Some(entries) = lane.get_mut(key) {
                            entries.retain(|e| e.id != id);
                            if entries.is_empty() {
                                lane.remove(key);
                            }
                        }
                    }
                    if lane.is_empty() {
                        self.eq.remove(&attr);
                    }
                }
                if let Some(slot) = residual_slot {
                    self.residual_attrs[slot as usize].1 -= 1;
                }
            }
            Some(Anchor::Range { attr }) => {
                if let Some(by_id) = self.ranges.get_mut(&attr) {
                    if by_id.remove(&id).is_some() {
                        self.dirty = true;
                    }
                    if by_id.is_empty() {
                        self.ranges.remove(&attr);
                    }
                }
            }
        }
    }

    /// Number of registered queries (indexed + scanned).
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queries on the scan (non-indexable) path.
    pub fn scan_len(&self) -> usize {
        self.scan.len()
    }

    /// Number of queries registered under an index lane.
    pub fn indexed_len(&self) -> usize {
        self.anchors.len() - self.scan.len()
    }

    /// Drains the count of entries found in hit equality-lane keys,
    /// including those their residual range then rejected.
    pub fn take_eq_lane_hits(&mut self) -> u64 {
        std::mem::take(&mut self.probe.eq_hits)
    }

    /// Drains the count of equality-lane entries dropped by their residual
    /// range (a subset of the lane hits).
    pub fn take_residual_rejects(&mut self) -> u64 {
        std::mem::take(&mut self.probe.rejects)
    }

    /// Candidate queries for a document, filled into `out` (cleared first):
    /// every scan-list query plus the indexed queries whose lane the
    /// document's top-level attribute values hit, minus equality-lane
    /// entries whose residual range the document misses. A superset of the
    /// true matches; adjacent duplicates removed.
    pub fn candidates(&mut self, doc: &Document, out: &mut Vec<Id>) {
        self.rebuild_if_dirty();
        out.clear();
        out.extend_from_slice(&self.scan);
        Self::probe(&self.eq, &self.trees, &self.residual_attrs, doc, out, &mut self.probe);
        out.dedup();
    }

    /// Batched candidate generation for a write mini-batch: pays the
    /// dirty-rebuild and attribute-map lookups once for the whole batch,
    /// and fills the caller's reusable `out` buffer (cleared first) — the
    /// hot path allocates nothing. `docs[w]` is the after-image document of
    /// write `w` (`None` for deletes, which probe nothing — the caller
    /// resolves delete candidates through its result sets).
    ///
    /// `out` ends up in **columnar** layout: grouped by query id, write
    /// indices ascending within each group, no duplicates. Each query's
    /// predicate then runs over its contiguous slice, so per-query dispatch
    /// cost is paid once per batch. The pair set is exactly
    /// `{(id, w) | id ∈ candidates(docs[w])}` — the same conservative
    /// superset guarantee as [`QueryIndex::candidates`].
    ///
    /// Returns how many lane entries the residual ranges rejected in this
    /// call, so the caller can account for them as filtered evaluations.
    pub fn candidates_batch(&mut self, docs: &[Option<&Document>], out: &mut Vec<(Id, u32)>) -> u64
    where
        Id: Ord,
    {
        self.rebuild_if_dirty();
        out.clear();
        let mut scratch = std::mem::take(&mut self.stab_scratch);
        let rejects_before = self.probe.rejects;
        for (w, doc) in docs.iter().enumerate() {
            let w = w as u32;
            for id in &self.scan {
                out.push((*id, w));
            }
            let doc = match doc {
                Some(doc) => doc,
                None => continue,
            };
            scratch.clear();
            Self::probe(&self.eq, &self.trees, &self.residual_attrs, doc, &mut scratch, &mut self.probe);
            for id in &scratch {
                out.push((*id, w));
            }
        }
        self.stab_scratch = scratch;
        // Stable sort: equal ids keep insertion order, and insertion order
        // within one id is ascending write index (writes were visited in
        // order), so duplicates of one `(id, w)` end up adjacent.
        out.sort_by_key(|(id, _)| *id);
        out.dedup();
        self.probe.rejects - rejects_before
    }

    /// One document's probe against the equality lanes and interval trees.
    /// Array values fan out per element in the equality lanes; interval
    /// lookups use the element envelope (see the module docs for why
    /// per-element stabbing would miss multi-conjunct matches).
    fn probe(
        eq: &HashMap<String, Lane<Id>>,
        trees: &HashMap<String, IntervalTree<Id>>,
        residual_attrs: &[(String, usize)],
        doc: &Document,
        out: &mut Vec<Id>,
        scratch: &mut ProbeScratch,
    ) {
        scratch.nums.clear();
        scratch.nums.resize(residual_attrs.len(), None);
        for (attr, value) in doc.iter() {
            if let Some(lane) = eq.get(attr) {
                match value {
                    Value::Array(items) => {
                        for item in items {
                            Self::probe_eq(lane, item, residual_attrs, doc, out, scratch);
                        }
                    }
                    v => Self::probe_eq(lane, v, residual_attrs, doc, out, scratch),
                }
            }
            if let Some(tree) = trees.get(attr) {
                match value {
                    Value::Array(items) => {
                        let mut min: Option<&Value> = None;
                        let mut max: Option<&Value> = None;
                        for item in items {
                            if min.is_none_or(|m| canonical_cmp(item, m) == Ordering::Less) {
                                min = Some(item);
                            }
                            if max.is_none_or(|m| canonical_cmp(item, m) == Ordering::Greater) {
                                max = Some(item);
                            }
                        }
                        if let (Some(min), Some(max)) = (min, max) {
                            tree.intersecting(min, max, out);
                        }
                    }
                    v => tree.intersecting(v, v, out),
                }
            }
        }
    }

    /// Looks `v` up in one equality lane and emits the entries whose
    /// residual range does not certainly exclude `doc`.
    fn probe_eq(
        lane: &Lane<Id>,
        v: &Value,
        residual_attrs: &[(String, usize)],
        doc: &Document,
        out: &mut Vec<Id>,
        scratch: &mut ProbeScratch,
    ) {
        scratch.key.clear();
        v.write_canonical(&mut scratch.key);
        let Some(entries) = lane.get(scratch.key.as_slice()) else {
            return;
        };
        scratch.eq_hits += entries.len() as u64;
        for entry in entries {
            if let Some(r) = &entry.residual {
                let num = *scratch.nums[r.slot as usize].get_or_insert_with(|| {
                    doc.get(&residual_attrs[r.slot as usize].0).and_then(exact_f64)
                });
                if num.is_some_and(|x| r.range.excludes(x)) {
                    scratch.rejects += 1;
                    continue;
                }
            }
            out.push(entry.id);
        }
    }

    /// Candidates for a *delete* (no document): deletes can only affect
    /// queries that currently contain the key, which the caller resolves
    /// through its result sets; only the scan list applies here.
    pub fn scan_candidates(&self) -> &[Id] {
        &self.scan
    }

    fn rebuild_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        self.trees.clear();
        for (attr, by_id) in &self.ranges {
            let intervals = by_id
                .iter()
                .map(|(id, (lo, hi))| Interval { lo: lo.clone(), hi: hi.clone(), id: *id })
                .collect();
            self.trees.insert(attr.clone(), IntervalTree::build(intervals));
        }
        self.dirty = false;
    }
}

/// The slot of `attr` in the residual attribute table, with its use count
/// raised; reuses a released slot before growing the table.
fn acquire_slot(attrs: &mut Vec<(String, usize)>, attr: &str) -> u32 {
    let slot = match attrs.iter().position(|(a, n)| a == attr && *n > 0) {
        Some(slot) => slot,
        None => match attrs.iter().position(|(_, n)| *n == 0) {
            Some(free) => {
                attrs[free].0 = attr.to_owned();
                free
            }
            None => {
                attrs.push((attr.to_owned(), 0));
                attrs.len() - 1
            }
        },
    };
    attrs[slot].1 += 1;
    u32::try_from(slot).expect("fewer than 2^32 residual attributes")
}

/// One attribute's combined bounds while planning: canonical `Value`
/// bounds (conservatively inclusive) for an interval anchor, and the exact
/// numeric range for a residual.
struct AttrBounds {
    attr: String,
    lo: Option<Value>,
    hi: Option<Value>,
    num: NumRange,
}

impl AttrBounds {
    fn lower(&mut self, v: &Value, strict: bool) {
        self.lo = Some(tighten(self.lo.take(), v, Ordering::Greater));
        if let Some(b) = exact_f64(v) {
            self.num.raise_lo(b, strict);
        }
    }

    fn upper(&mut self, v: &Value, strict: bool) {
        self.hi = Some(tighten(self.hi.take(), v, Ordering::Less));
        if let Some(b) = exact_f64(v) {
            self.num.lower_hi(b, strict);
        }
    }
}

/// The combined-bound slot for `attr` (first-seen order preserved).
fn bound_slot<'a>(bounds: &'a mut Vec<AttrBounds>, attr: &str) -> &'a mut AttrBounds {
    if let Some(i) = bounds.iter().position(|b| b.attr == attr) {
        return &mut bounds[i];
    }
    bounds.push(AttrBounds { attr: attr.to_owned(), lo: None, hi: None, num: NumRange::ALL });
    bounds.last_mut().expect("just pushed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;
    use std::sync::Arc;

    fn range_filter(lo: i64, hi: i64) -> Document {
        doc! { "random" => doc! { "$gte" => lo, "$lt" => hi } }
    }

    /// Convenience wrapper over the scratch-buffer API for assertions.
    fn cands<Id: Copy + Eq + Hash>(idx: &mut QueryIndex<Id>, doc: &Document) -> Vec<Id> {
        let mut out = Vec::new();
        idx.candidates(doc, &mut out);
        out
    }

    #[test]
    fn analyze_recognizes_paper_workload() {
        let r = analyze_filter(&range_filter(100, 200)).unwrap();
        assert_eq!(r.attr, "random");
        assert_eq!(r.lo, Value::Int(100));
        assert_eq!(r.hi, Value::Int(200), "conservatively inclusive");
        let eq = analyze_filter(&doc! { "color" => "red" }).unwrap();
        assert_eq!(eq.lo, Value::from("red"));
        assert_eq!(eq.hi, Value::from("red"));
        let open = analyze_filter(&doc! { "n" => doc! { "$gt" => 5i64 } }).unwrap();
        assert_eq!(open.lo, Value::Int(5));
        assert!(matches!(open.hi, Value::Object(_)), "open top clamps to bracket max");
    }

    #[test]
    fn analyze_rejects_complex_shapes() {
        assert!(analyze_filter(&doc! {}).is_none());
        assert!(analyze_filter(&doc! { "a" => 1i64, "b" => 2i64 }).is_none());
        assert!(analyze_filter(&doc! { "$or" => Vec::<Value>::new() }).is_none());
        assert!(analyze_filter(&doc! { "a" => doc! { "$ne" => 1i64 } }).is_none());
        assert!(analyze_filter(&doc! { "a.b" => 1i64 }).is_none());
        assert!(analyze_filter(&doc! { "a" => doc! { "$gte" => Value::from(vec![1i64]) } }).is_none());
        assert!(analyze_filter(&doc! { "a" => true }).is_none(), "bool literal not bracketed");
    }

    #[test]
    fn stabbing_returns_exactly_the_covering_intervals() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        for i in 0..100u32 {
            let lo = (i as i64) * 10;
            idx.insert(i, &range_filter(lo, lo + 10));
        }
        // Value 55 lies in interval 5 only ($lt widened to inclusive can
        // also admit interval 4's hi bound = 50; 55 hits none of those).
        let c = cands(&mut idx, &doc! { "random" => 55i64 });
        assert_eq!(c, vec![5]);
        // Boundary value 50: interval 5 ($gte 50) plus interval 4's widened
        // $lt 50 — conservative superset is allowed.
        let c = cands(&mut idx, &doc! { "random" => 50i64 });
        assert!(c.contains(&5));
        assert!(c.len() <= 2);
        // Out of range: nothing.
        let c = cands(&mut idx, &doc! { "random" => 99_999i64 });
        assert!(c.is_empty());
    }

    #[test]
    fn overlapping_intervals_all_found() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 100));
        idx.insert(2, &range_filter(40, 60));
        idx.insert(3, &range_filter(50, 51));
        idx.insert(4, &range_filter(90, 95));
        let mut c = cands(&mut idx, &doc! { "random" => 50i64 });
        c.sort();
        assert_eq!(c, vec![1, 2, 3]);
    }

    #[test]
    fn non_indexable_queries_always_candidates() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &doc! { "$or" => vec![Value::Object(doc! { "a" => 1i64 })] });
        assert_eq!(idx.scan_len(), 1);
        let c = cands(&mut idx, &doc! { "unrelated" => 1i64 });
        assert_eq!(c, vec![2], "scan queries always evaluated");
    }

    #[test]
    fn remove_unregisters_everywhere() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &doc! { "complex" => doc! { "$ne" => 0i64 } });
        idx.insert(3, &doc! { "color" => "red" });
        idx.insert(4, &doc! { "n" => doc! { "$in" => vec![1i64, 2] } });
        assert_eq!(idx.len(), 4);
        for id in 1..=4 {
            idx.remove(id);
        }
        assert!(idx.is_empty());
        assert!(cands(&mut idx, &doc! { "random" => 5i64, "color" => "red", "n" => 1i64 }).is_empty());
    }

    #[test]
    fn array_values_fan_out() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &range_filter(100, 110));
        let mut c = cands(&mut idx, &doc! { "random" => vec![5i64, 105] });
        c.sort();
        assert_eq!(c, vec![1, 2]);
    }

    #[test]
    fn array_envelope_covers_split_conjunct_matches() {
        // `{a: {$gt: 5, $lt: 9}}` matches `{a: [4, 10]}` under MongoDB
        // array fan-out (different elements satisfy different conjuncts);
        // per-element stabbing of the combined interval [5, 9] would miss
        // it — the envelope [4, 10] intersects and must report it.
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &doc! { "a" => doc! { "$gt" => 5i64, "$lt" => 9i64 } });
        let c = cands(&mut idx, &doc! { "a" => vec![4i64, 10] });
        assert_eq!(c, vec![1], "envelope probe catches the cross-element match");
        // And a disjoint envelope still prunes.
        assert!(cands(&mut idx, &doc! { "a" => vec![20i64, 30] }).is_empty());
    }

    #[test]
    fn string_equality_uses_the_eq_lane() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &doc! { "color" => "red" });
        idx.insert(2, &doc! { "color" => "blue" });
        assert_eq!(cands(&mut idx, &doc! { "color" => "red" }), vec![1]);
        assert_eq!(cands(&mut idx, &doc! { "color" => "blue" }), vec![2]);
        assert!(cands(&mut idx, &doc! { "color" => "green" }).is_empty());
        assert_eq!(idx.take_eq_lane_hits(), 2, "two probes hit the lane");
        // Int/Float canonical unification: `{n: 1}` must be hit by `1.0`.
        idx.insert(3, &doc! { "n" => 1i64 });
        assert_eq!(cands(&mut idx, &doc! { "n" => 1.0f64 }), vec![3]);
        // Array fan-out: any element equal to the literal hits.
        assert_eq!(cands(&mut idx, &doc! { "color" => vec!["green", "red"] }), vec![1]);
    }

    #[test]
    fn conjunctive_filters_anchor_instead_of_scanning() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        // Equality atom beats the range atom as anchor.
        idx.insert(1, &doc! { "status" => "open", "price" => doc! { "$lt" => 100i64 } });
        // Range-only conjunction anchors on the (combined) interval.
        idx.insert(2, &doc! { "price" => doc! { "$gte" => 10i64, "$lt" => 20i64 }, "qty" => doc! { "$gt" => 0i64 } });
        // $in anchors on the lane when all elements are scalars.
        idx.insert(3, &doc! { "state" => doc! { "$in" => vec!["a", "b"] } });
        assert_eq!(idx.scan_len(), 0, "no conjunctive filter fell to the scan list");
        assert_eq!(idx.indexed_len(), 3);
        // The anchor's lane entry carries `price < 100` as its residual, so
        // a price outside it yields no candidate.
        assert!(cands(&mut idx, &doc! { "status" => "open", "price" => 500i64 }).is_empty());
        assert_eq!(cands(&mut idx, &doc! { "status" => "open", "price" => 50i64 }), vec![1]);
        assert!(cands(&mut idx, &doc! { "status" => "closed", "price" => 50i64 }).is_empty());
        assert_eq!(cands(&mut idx, &doc! { "price" => 15i64 }), vec![2]);
        assert_eq!(cands(&mut idx, &doc! { "state" => "b" }), vec![3]);
        assert_eq!(cands(&mut idx, &doc! { "state" => "c" }), Vec::<u32>::new());
    }

    type Prepared = (u32, Arc<dyn invalidb_query::PreparedQuery>);

    /// Candidates for `{s: "x", p: <value>}`, sorted, after checking that
    /// every true match of `prepared` is among them.
    fn residual_probe(idx: &mut QueryIndex<u32>, prepared: &[Prepared], p: Option<Value>) -> Vec<u32> {
        let mut d = doc! { "s" => "x" };
        if let Some(p) = p {
            d.insert("p", p);
        }
        let mut c = cands(idx, &d);
        c.sort();
        for (id, q) in prepared {
            if q.matches(&d) {
                assert!(c.contains(id), "query {id} matches {d} but was rejected");
            }
        }
        c
    }

    fn residual_index(filters: &[(u32, Document)]) -> (QueryIndex<u32>, Vec<Prepared>) {
        use invalidb_query::{MongoQueryEngine, QueryEngine};
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        let mut prepared = Vec::new();
        for (id, f) in filters {
            idx.insert(*id, f);
            let spec = invalidb_common::QuerySpec::filter("t", f.clone());
            prepared.push((*id, MongoQueryEngine.prepare(&spec).unwrap()));
        }
        (idx, prepared)
    }

    #[test]
    fn residual_range_keeps_bound_strictness() {
        let (mut idx, q) = residual_index(&[
            (1, doc! { "s" => "x", "p" => doc! { "$gte" => 10i64, "$lt" => 20i64 } }),
            (2, doc! { "s" => "x", "p" => doc! { "$gt" => 10i64, "$lte" => 20.5f64 } }),
        ]);
        let mut probe = |p: Value| residual_probe(&mut idx, &q, Some(p));
        // Lower bound: inclusive for 1, strict for 2; Int and Float agree.
        assert_eq!(probe(Value::Int(10)), vec![1]);
        assert_eq!(probe(Value::Float(10.0)), vec![1]);
        assert_eq!(probe(Value::Float(10.5)), vec![1, 2]);
        assert!(probe(Value::Float(9.999)).is_empty());
        // Upper bound: strict for 1 (an Int), inclusive for 2 (a Float).
        assert_eq!(probe(Value::Int(20)), vec![2]);
        assert_eq!(probe(Value::Float(19.999)), vec![1, 2]);
        assert_eq!(probe(Value::Float(20.5)), vec![2]);
        assert!(probe(Value::Int(21)).is_empty());
        assert!(probe(Value::Float(f64::INFINITY)).is_empty());
        assert!(probe(Value::Float(f64::NEG_INFINITY)).is_empty());
        assert_eq!(idx.take_eq_lane_hits(), 20, "every probe hit both entries");
        assert_eq!(idx.take_residual_rejects(), 12);
    }

    #[test]
    fn residual_range_treats_negative_zero_as_zero() {
        let (mut idx, q) = residual_index(&[
            (1, doc! { "s" => "x", "p" => doc! { "$gt" => 0i64 } }),
            (2, doc! { "s" => "x", "p" => doc! { "$gte" => 0.0f64 } }),
            (3, doc! { "s" => "x", "p" => doc! { "$lt" => -0.0f64 } }),
            (4, doc! { "s" => "x", "p" => doc! { "$lte" => -0.0f64 } }),
        ]);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Float(-0.0))), vec![2, 4]);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Int(0))), vec![2, 4]);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Float(f64::MIN_POSITIVE))), vec![1, 2]);
    }

    #[test]
    fn residual_range_keeps_values_it_cannot_compare_exactly() {
        let big = 1i64 << 53;
        let (mut idx, q) = residual_index(&[
            (1, doc! { "s" => "x", "p" => doc! { "$gte" => 10i64, "$lt" => 20i64 } }),
            // 2^53 converts exactly; the doc values above it do not.
            (2, doc! { "s" => "x", "p" => doc! { "$gt" => big } }),
            // A bound beyond 2^53 is left out of the residual.
            (3, doc! { "s" => "x", "p" => doc! { "$lt" => big + 1 } }),
            // NaN sorts below every number, so it satisfies `$lt`.
            (4, doc! { "s" => "x", "p" => doc! { "$lt" => 0i64 } }),
        ]);
        let all = vec![1, 2, 3, 4];
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Float(f64::NAN))), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Int(big + 1))), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Int(-big - 1))), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Float(big as f64))), vec![3]);
        // Missing, null, string, bool and arrays (a split-conjunct match
        // included) are never rejected.
        assert_eq!(residual_probe(&mut idx, &q, None), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Null)), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::from("15"))), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::Bool(true))), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::from(vec![5i64, 25]))), all);
        assert_eq!(residual_probe(&mut idx, &q, Some(Value::from(Vec::<i64>::new()))), all);
    }

    #[test]
    fn residual_slots_follow_insert_and_remove() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &doc! { "s" => "x", "p" => doc! { "$lt" => 5i64 } });
        idx.insert(2, &doc! { "s" => "x", "q" => doc! { "$lt" => 5i64 } });
        idx.insert(3, &doc! { "s" => doc! { "$in" => vec!["x", "y"] }, "p" => doc! { "$gt" => 5i64 } });
        assert_eq!(idx.residual_attrs, vec![("p".to_owned(), 2), ("q".to_owned(), 1)]);
        assert_eq!(cands(&mut idx, &doc! { "s" => "y", "p" => 9i64 }), vec![3]);
        idx.remove(1);
        idx.remove(3);
        // The released slot is reused by the next attribute.
        idx.insert(4, &doc! { "s" => "x", "r" => doc! { "$lt" => 5i64 } });
        assert_eq!(idx.residual_attrs, vec![("r".to_owned(), 1), ("q".to_owned(), 1)]);
        let mut c = cands(&mut idx, &doc! { "s" => "x", "q" => 9i64, "r" => 1i64 });
        c.sort();
        assert_eq!(c, vec![4]);
    }

    #[test]
    fn legacy_options_reproduce_the_old_planner() {
        let mut idx: QueryIndex<u32> = QueryIndex::with_options(IndexOptions::legacy());
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &doc! { "status" => "open", "price" => doc! { "$lt" => 100i64 } });
        assert_eq!(idx.scan_len(), 1, "legacy planner scans conjunctions");
        assert_eq!(idx.indexed_len(), 1);
        let c = cands(&mut idx, &doc! { "random" => 5i64 });
        assert!(c.contains(&1));
        assert!(c.contains(&2), "scan queries always candidates");
    }

    #[test]
    fn batch_candidates_agree_with_serial_candidates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        for i in 0..50u32 {
            let lo = rng.gen_range(-40..40i64);
            idx.insert(i, &range_filter(lo, lo + rng.gen_range(0..20i64)));
        }
        idx.insert(50, &doc! { "$or" => vec![Value::Object(doc! { "a" => 1i64 })] });
        idx.insert(51, &doc! { "other" => 3i64 });
        let docs: Vec<Option<Document>> = (0..16)
            .map(|w| {
                if w % 5 == 4 {
                    None // delete
                } else {
                    Some(doc! { "random" => rng.gen_range(-50..50i64), "other" => w as i64 })
                }
            })
            .collect();
        let refs: Vec<Option<&Document>> = docs.iter().map(Option::as_ref).collect();
        let mut pairs = Vec::new();
        idx.candidates_batch(&refs, &mut pairs);
        // Columnar invariants: grouped by id, writes ascending, no dupes.
        for win in pairs.windows(2) {
            assert!(win[0] < win[1], "sorted unique pairs");
        }
        // Exact agreement with the serial path, write by write.
        for (w, doc) in docs.iter().enumerate() {
            let mut serial = match doc {
                Some(d) => cands(&mut idx, d),
                None => idx.scan_candidates().to_vec(),
            };
            serial.sort_unstable();
            serial.dedup();
            let mut batched: Vec<u32> =
                pairs.iter().filter(|(_, bw)| *bw == w as u32).map(|(id, _)| *id).collect();
            batched.sort_unstable();
            assert_eq!(batched, serial, "write {w}");
        }
    }

    #[test]
    fn candidates_are_superset_of_true_matches() {
        use invalidb_query::{MongoQueryEngine, QueryEngine};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        let mut prepared = Vec::new();
        for i in 0..200usize {
            let lo = rng.gen_range(-100..100i64);
            let hi = lo + rng.gen_range(0..30i64);
            let filter = range_filter(lo, hi);
            let spec = invalidb_common::QuerySpec::filter("t", filter.clone());
            prepared.push(MongoQueryEngine.prepare(&spec).unwrap());
            idx.insert(i, &filter);
        }
        for _ in 0..500 {
            let doc = doc! { "random" => rng.gen_range(-120..120i64) };
            let candidates = cands(&mut idx, &doc);
            for (i, p) in prepared.iter().enumerate() {
                if p.matches(&doc) {
                    assert!(candidates.contains(&i), "index missed a true match");
                }
            }
        }
    }

    /// Property test across generated filter shapes and documents
    /// (including arrays, nulls, floats and multi-attribute conjunctions):
    /// the candidate set must be a superset of the true matches, whatever
    /// the planner chose as anchor.
    #[test]
    fn candidates_superset_property_for_arbitrary_shapes() {
        use invalidb_query::{MongoQueryEngine, QueryEngine};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let attrs = ["a", "b", "c"];
        let colors = ["red", "green", "blue"];
        // Residual-range boundary values: signed zero, NaN, infinities and
        // integers at and beyond the exact-`f64` range.
        let big = 1i64 << 53;
        let boundary = [
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Int(-big - 1),
            Value::Float(big as f64),
            Value::Int(10),
            Value::Float(10.0),
        ];
        let gen_value = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..5) {
                0 => Value::Int(rng.gen_range(-20..20i64)),
                1 => Value::Float(rng.gen_range(-20.0..20.0)),
                2 => Value::from(colors[rng.gen_range(0..colors.len())]),
                3 => boundary[rng.gen_range(0..boundary.len())].clone(),
                _ => Value::Bool(rng.gen_bool(0.5)),
            }
        };
        let gen_number = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..3) {
                0 => Value::Int(rng.gen_range(-20..20i64)),
                1 => Value::Float(rng.gen_range(-20.0..20.0)),
                _ => boundary[rng.gen_range(0..boundary.len())].clone(),
            }
        };
        let mut filters: Vec<Document> = Vec::new();
        for _ in 0..300 {
            let n_conj = rng.gen_range(1..=3usize);
            let mut f = Document::new();
            for _ in 0..n_conj {
                let attr = attrs[rng.gen_range(0..attrs.len())];
                if f.contains_key(attr) {
                    continue;
                }
                match rng.gen_range(0..6) {
                    0 => {
                        f.insert(attr, gen_value(&mut rng));
                    }
                    5 => {
                        // Both bounds from the number pool, strictness random.
                        let lo_op = if rng.gen_bool(0.5) { "$gt" } else { "$gte" };
                        let hi_op = if rng.gen_bool(0.5) { "$lt" } else { "$lte" };
                        let mut cond = Document::new();
                        cond.insert(lo_op, gen_number(&mut rng));
                        cond.insert(hi_op, gen_number(&mut rng));
                        f.insert(attr, cond);
                    }
                    1 => {
                        let lo = rng.gen_range(-20..20i64);
                        f.insert(attr, doc! { "$gte" => lo, "$lt" => lo + rng.gen_range(0..10i64) });
                    }
                    2 => {
                        f.insert(attr, doc! { "$gt" => rng.gen_range(-20..20i64) });
                    }
                    3 => {
                        let vals: Vec<Value> =
                            (0..rng.gen_range(0..4)).map(|_| gen_value(&mut rng)).collect();
                        f.insert(attr, doc! { "$in" => Value::Array(vals) });
                    }
                    _ => {
                        f.insert(attr, doc! { "$ne" => gen_value(&mut rng) });
                    }
                }
            }
            filters.push(f);
        }
        for opts in [IndexOptions::default(), IndexOptions { eq_lanes: false, conjunctive: true }] {
            let mut idx: QueryIndex<usize> = QueryIndex::with_options(opts);
            let mut prepared = Vec::new();
            for (i, f) in filters.iter().enumerate() {
                let spec = invalidb_common::QuerySpec::filter("t", f.clone());
                prepared.push(MongoQueryEngine.prepare(&spec).unwrap());
                idx.insert(i, f);
            }
            let mut rng = StdRng::seed_from_u64(31);
            for _ in 0..1000 {
                let mut d = Document::new();
                for attr in attrs {
                    match rng.gen_range(0..5) {
                        0 => {} // missing
                        1 => {
                            d.insert(attr, gen_value(&mut rng));
                        }
                        4 => {
                            d.insert(attr, gen_number(&mut rng));
                        }
                        2 => {
                            let vals: Vec<Value> =
                                (0..rng.gen_range(0..4)).map(|_| gen_value(&mut rng)).collect();
                            d.insert(attr, Value::Array(vals));
                        }
                        _ => {
                            d.insert(attr, Value::Null);
                        }
                    }
                }
                let candidates = cands(&mut idx, &d);
                for (i, p) in prepared.iter().enumerate() {
                    if p.matches(&d) {
                        assert!(
                            candidates.contains(&i),
                            "opts {opts:?}: index missed true match of {:?} against {d}",
                            filters[i]
                        );
                    }
                }
            }
            if opts.eq_lanes {
                assert!(idx.take_residual_rejects() > 0, "the residual ranges were exercised");
            }
        }
    }
}
