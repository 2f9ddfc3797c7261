//! The pluggable query engine (§5.3).
//!
//! InvaliDB is database-agnostic: everything specific to the underlying
//! datastore's query language lives behind the [`QueryEngine`] trait —
//! (1) parsing queries, (2) interpreting after-images, (3) computing the
//! matching decision, and (4) sorting results according to database
//! semantics. The cluster, event layer and partitioning scheme only ever
//! see [`QuerySpec`]s and [`PreparedQuery`] handles.
//!
//! Two implementations ship with the workspace:
//!
//! * [`MongoQueryEngine`] — the full MongoDB-compatible engine (filters,
//!   regex, text, geo, multi-attribute sort);
//! * [`KvQueryEngine`] — a deliberately minimal engine supporting only
//!   conjunctive equality, demonstrating that a different datastore's
//!   semantics can be plugged in without touching the cluster.

use crate::filter::Filter;
use crate::parse::{parse_filter, FilterParseError};
use crate::predicate::{decompose, predicate_hash, PredicateHash};
use crate::sort::compare_items;
use invalidb_common::{canonical_eq, Document, Key, QuerySpec, Value};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Error preparing a query for execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The filter document is malformed.
    Parse(FilterParseError),
    /// The engine does not support this query shape.
    Unsupported(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Unsupported(what) => write!(f, "unsupported by this engine: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FilterParseError> for EngineError {
    fn from(e: FilterParseError) -> Self {
        EngineError::Parse(e)
    }
}

/// One compiled atomic conjunct of a prepared query, evaluable standalone.
/// Atoms with equal [`PredicateHash`]es compute the same function (within
/// one engine), which is what lets the filtering stage evaluate a predicate
/// once per write no matter how many queries contain it.
pub struct PreparedAtom {
    hash: PredicateHash,
    eval: Box<dyn Fn(&Document) -> bool + Send + Sync>,
}

impl PreparedAtom {
    /// Hash-consed identity of this predicate (see [`crate::predicate`]).
    pub fn hash(&self) -> PredicateHash {
        self.hash
    }

    /// Evaluates just this conjunct against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        (self.eval)(doc)
    }
}

impl fmt::Debug for PreparedAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PreparedAtom({:#018x})", self.hash.0)
    }
}

/// A query compiled for repeated evaluation against after-images.
pub trait PreparedQuery: Send + Sync {
    /// The wire-form query this was prepared from.
    fn spec(&self) -> &QuerySpec;

    /// Does the document match the query's filter predicates?
    fn matches(&self, doc: &Document) -> bool;

    /// The filter as compiled atomic conjuncts, when the engine supports
    /// shared predicate evaluation: `matches(doc)` is exactly
    /// `conjuncts().iter().all(|a| a.matches(doc))` (an empty slice matches
    /// everything). `None` opts out — the query is only evaluable whole.
    fn conjuncts(&self) -> Option<&[PreparedAtom]> {
        None
    }

    /// Orders two result items according to the query's sort specification
    /// (with the primary key as unambiguous final tiebreak).
    fn cmp_items(&self, a: (&Key, &Document), b: (&Key, &Document)) -> Ordering;
}

/// Factory for [`PreparedQuery`] values — one implementation per supported
/// database dialect.
pub trait QueryEngine: Send + Sync {
    /// Engine name (for logs and capability matrices).
    fn name(&self) -> &'static str;

    /// Compiles a wire-form query.
    fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, EngineError>;
}

/// The MongoDB-compatible engine used by the production deployment (§5.4).
#[derive(Debug, Default, Clone, Copy)]
pub struct MongoQueryEngine;

impl QueryEngine for MongoQueryEngine {
    fn name(&self) -> &'static str {
        "mongo"
    }

    fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, EngineError> {
        let filter = parse_filter(&spec.filter)?;
        // Compile the canonical conjuncts individually for shared predicate
        // evaluation. Decomposition is semantics-preserving, so each atom
        // must parse whenever the whole filter did; if one somehow does
        // not, fall back to whole-filter evaluation rather than failing.
        let mut atoms = Vec::new();
        let mut complete = true;
        for atom in decompose(&spec.filter) {
            match parse_filter(&atom.doc) {
                Ok(compiled) => atoms.push(PreparedAtom {
                    hash: atom.hash,
                    eval: Box::new(move |doc| compiled.matches(doc)),
                }),
                Err(_) => {
                    complete = false;
                    break;
                }
            }
        }
        let atoms = complete.then_some(atoms);
        Ok(Arc::new(MongoPrepared { spec: spec.clone(), filter, atoms }))
    }
}

struct MongoPrepared {
    spec: QuerySpec,
    filter: Filter,
    /// Compiled canonical conjuncts (`None` if decomposition failed).
    atoms: Option<Vec<PreparedAtom>>,
}

impl PreparedQuery for MongoPrepared {
    fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    fn matches(&self, doc: &Document) -> bool {
        self.filter.matches(doc)
    }

    fn conjuncts(&self) -> Option<&[PreparedAtom]> {
        self.atoms.as_deref()
    }

    fn cmp_items(&self, a: (&Key, &Document), b: (&Key, &Document)) -> Ordering {
        compare_items(&self.spec.sort, a, b)
    }
}

/// A minimal key-value-style engine: conjunctive top-level equality only,
/// no sort/limit/offset. Exists to prove engine pluggability end to end.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvQueryEngine;

impl QueryEngine for KvQueryEngine {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, EngineError> {
        if spec.needs_sorting_stage() {
            return Err(EngineError::Unsupported("sort/limit/offset".into()));
        }
        let mut conditions = Vec::with_capacity(spec.filter.len());
        for (k, v) in spec.filter.iter() {
            if k.starts_with('$') {
                return Err(EngineError::Unsupported(format!("operator `{k}`")));
            }
            match v {
                Value::Object(_) | Value::Array(_) => {
                    return Err(EngineError::Unsupported("non-scalar equality".into()))
                }
                scalar => conditions.push((k.to_owned(), scalar.clone())),
            }
        }
        // Each equality condition is one atom; atom hashes are only ever
        // compared within one engine, so kv semantics (strict path lookup,
        // no array fan-out) never mix with mongo's for the same document.
        let atoms = conditions
            .iter()
            .map(|(path, want)| {
                let mut single = Document::with_capacity(1);
                single.insert(path.clone(), want.clone());
                let hash = predicate_hash(&single);
                let (path, want) = (path.clone(), want.clone());
                PreparedAtom {
                    hash,
                    eval: Box::new(move |doc: &Document| {
                        doc.get_path(&path).is_some_and(|got| canonical_eq(got, &want))
                    }),
                }
            })
            .collect();
        Ok(Arc::new(KvPrepared { spec: spec.clone(), conditions, atoms }))
    }
}

struct KvPrepared {
    spec: QuerySpec,
    conditions: Vec<(String, Value)>,
    atoms: Vec<PreparedAtom>,
}

impl PreparedQuery for KvPrepared {
    fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    fn matches(&self, doc: &Document) -> bool {
        self.conditions
            .iter()
            .all(|(path, want)| doc.get_path(path).is_some_and(|got| canonical_eq(got, want)))
    }

    fn conjuncts(&self) -> Option<&[PreparedAtom]> {
        Some(&self.atoms)
    }

    fn cmp_items(&self, a: (&Key, &Document), b: (&Key, &Document)) -> Ordering {
        a.0.cmp(b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, SortDirection};

    #[test]
    fn mongo_engine_prepares_and_matches() {
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        let q = MongoQueryEngine.prepare(&spec).unwrap();
        assert!(q.matches(&doc! { "n" => 15i64 }));
        assert!(!q.matches(&doc! { "n" => 5i64 }));
        assert_eq!(q.spec(), &spec);
    }

    #[test]
    fn mongo_engine_rejects_bad_filters() {
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$bogus" => 1i64 } });
        assert!(matches!(MongoQueryEngine.prepare(&spec), Err(EngineError::Parse(_))));
    }

    #[test]
    fn mongo_engine_sorts_with_pk_tiebreak() {
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("year", SortDirection::Desc);
        let q = MongoQueryEngine.prepare(&spec).unwrap();
        let (ka, da) = (Key::of(1i64), doc! { "year" => 2018i64 });
        let (kb, db) = (Key::of(2i64), doc! { "year" => 2018i64 });
        assert_eq!(q.cmp_items((&ka, &da), (&kb, &db)), Ordering::Less);
    }

    #[test]
    fn kv_engine_supports_only_flat_equality() {
        let ok = QuerySpec::filter("t", doc! { "a" => 1i64, "b" => "x" });
        let q = KvQueryEngine.prepare(&ok).unwrap();
        assert!(q.matches(&doc! { "a" => 1i64, "b" => "x", "extra" => 0i64 }));
        assert!(!q.matches(&doc! { "a" => 2i64, "b" => "x" }));

        let sorted = QuerySpec::filter("t", doc! {}).sorted_by("a", SortDirection::Asc);
        assert!(matches!(KvQueryEngine.prepare(&sorted), Err(EngineError::Unsupported(_))));
        let op = QuerySpec::filter("t", doc! { "a" => doc! { "$gt" => 1i64 } });
        assert!(KvQueryEngine.prepare(&op).is_err());
        let top = QuerySpec::filter("t", doc! { "$or" => Vec::<Value>::new() });
        assert!(KvQueryEngine.prepare(&top).is_err());
    }

    #[test]
    fn conjunct_product_equals_whole_filter() {
        let filters = [
            doc! { "status" => "open", "price" => doc! { "$gt" => 10i64, "$lt" => 100i64 } },
            doc! { "a" => doc! { "$in" => vec![1i64, 2, 3] }, "b" => doc! { "$exists" => true } },
            doc! { "$or" => vec![
                Value::Object(doc! { "x" => 1i64 }),
                Value::Object(doc! { "y" => doc! { "$gte" => 5i64 } }),
            ], "z" => doc! { "$ne" => 0i64 } },
            doc! { "name" => doc! { "$regex" => "^ab", "$options" => "i" } },
            doc! {},
        ];
        let docs = [
            doc! { "status" => "open", "price" => 50i64, "a" => 2i64, "b" => 1i64, "z" => 1i64 },
            doc! { "status" => "open", "price" => 200i64, "x" => 1i64, "z" => 0i64 },
            doc! { "price" => Value::from(vec![5i64, 50]), "y" => 7i64, "name" => "Abel", "z" => 3i64 },
            doc! { "a" => Value::from(vec![3i64]), "b" => Value::Null },
        ];
        for f in &filters {
            let q = MongoQueryEngine.prepare(&QuerySpec::filter("t", f.clone())).unwrap();
            let atoms = q.conjuncts().expect("mongo queries decompose");
            for d in &docs {
                let whole = q.matches(d);
                let product = atoms.iter().all(|a| a.matches(d));
                assert_eq!(whole, product, "filter {f} doc {d}");
            }
        }
        // Kv engine: same invariant under its own semantics.
        let kv =
            KvQueryEngine.prepare(&QuerySpec::filter("t", doc! { "a" => 1i64, "b" => "x" })).unwrap();
        let atoms = kv.conjuncts().unwrap();
        assert_eq!(atoms.len(), 2);
        for d in [doc! { "a" => 1i64, "b" => "x" }, doc! { "a" => 1i64 }, doc! {}] {
            assert_eq!(kv.matches(&d), atoms.iter().all(|a| a.matches(&d)), "doc {d}");
        }
    }

    #[test]
    fn engines_are_object_safe() {
        let engines: Vec<Box<dyn QueryEngine>> =
            vec![Box::new(MongoQueryEngine), Box::new(KvQueryEngine)];
        let spec = QuerySpec::filter("t", doc! { "a" => 1i64 });
        for e in &engines {
            let q = e.prepare(&spec).unwrap();
            assert!(q.matches(&doc! { "a" => 1i64 }));
        }
        assert_eq!(engines[0].name(), "mongo");
        assert_eq!(engines[1].name(), "kv");
    }
}
