//! Zero-copy envelope decoding for the ingestion tier.
//!
//! The hot message on the cluster topic is the write after-image, and the
//! eager decode path pays for it twice: `payload_to_document` materializes
//! the *entire* envelope (including the embedded record state), then
//! `ClusterMessage::from_document` clones the `doc` subtree again into the
//! [`AfterImage`](invalidb_common::AfterImage). [`decode_cluster_message`] keeps the same observable
//! result while doing neither: binary (`IVBD`) write envelopes are walked
//! once through a borrowed [`LazyDoc`] view, materializing only the three
//! subtrees the after-image actually owns (`key`, `doc`, `trace`) straight
//! into their final places. JSON payloads and control ops (subscribe /
//! unsubscribe / extendTtl — rare, and structurally dominated by the
//! initial result) fall back to the eager decoder.
//!
//! Equivalence contract: for every payload, the fast path either produces
//! the exact message the eager path would, or bows out and lets the eager
//! path run (so malformed payloads are still counted as decode errors by
//! the caller exactly as before).

use invalidb_common::{ClusterMessage, Key, TenantId, TraceContext};
use invalidb_json::lazy::{LazyDoc, LazyValue};

/// Decodes an event-layer payload into a [`ClusterMessage`], zero-copy for
/// binary write envelopes. Returns `None` when the payload is malformed
/// under *both* paths — the same outcomes as
/// `payload_to_document(..).ok().and_then(|d| ClusterMessage::from_document(&d).ok())`.
pub fn decode_cluster_message(payload: &[u8]) -> Option<ClusterMessage> {
    if let Some(msg) = try_decode_binary_write(payload) {
        return Some(msg);
    }
    let bytes = bytes::Bytes::copy_from_slice(payload);
    let doc = invalidb_json::payload_to_document(&bytes).ok()?;
    ClusterMessage::from_document(&doc).ok()
}

/// Borrowed-`Bytes` variant of [`decode_cluster_message`] that avoids the
/// defensive copy on the eager fallback.
pub fn decode_cluster_payload(payload: &bytes::Bytes) -> Option<ClusterMessage> {
    if let Some(msg) = try_decode_binary_write(payload) {
        return Some(msg);
    }
    let doc = invalidb_json::payload_to_document(payload).ok()?;
    ClusterMessage::from_document(&doc).ok()
}

/// The fast path: one skip-scan pass over a binary write envelope.
/// `None` means "not a well-formed binary write" — the caller falls back
/// to the eager decoder, which reproduces the old error accounting.
fn try_decode_binary_write(payload: &[u8]) -> Option<ClusterMessage> {
    if !invalidb_json::bin::is_binary(payload) {
        return None;
    }
    let lazy = LazyDoc::new(payload).ok()?;

    // One pass over the envelope fields; later duplicates overwrite, which
    // is exactly the last-duplicate-wins rule of the eager decoder.
    let mut is_write = false;
    let mut tenant: Option<String> = None;
    let mut collection: Option<String> = None;
    let mut key: Option<Key> = None;
    let mut version: Option<i64> = None;
    let mut written_at: u64 = 0;
    let mut doc = None;
    let mut trace: Option<TraceContext> = None;
    for entry in lazy.root().entries() {
        let (k, v) = entry.ok()?;
        match k {
            "op" => is_write = v.as_str() == Some("write"),
            "tenant" => tenant = Some(v.as_str()?.to_owned()),
            "collection" => collection = Some(v.as_str()?.to_owned()),
            "key" => key = Some(Key(v.materialize().ok()?)),
            "version" => version = Some(lazy_i64(&v)?),
            "writtenAt" => written_at = lazy_i64(&v).unwrap_or(0) as u64,
            "doc" => {
                doc = match v {
                    LazyValue::Null => Some(None),
                    LazyValue::Object(obj) => Some(Some(obj.materialize().ok()?)),
                    _ => return None, // eager path rejects non-object `doc`
                }
            }
            "trace" => {
                let td = v.as_object()?.materialize().ok()?;
                trace = Some(TraceContext::from_document(&td).ok()?);
            }
            _ => {}
        }
    }
    if !is_write {
        return None;
    }
    Some(ClusterMessage::Write(invalidb_common::AfterImage {
        tenant: TenantId(tenant?),
        collection: collection?,
        key: key?,
        version: version? as invalidb_common::Version,
        doc: doc.unwrap_or(None),
        written_at,
        trace,
    }))
}

/// Mirrors `Value::as_i64`: integers, plus floats with no fractional part.
fn lazy_i64(v: &LazyValue<'_>) -> Option<i64> {
    match v {
        LazyValue::Int(i) => Some(*i),
        LazyValue::Float(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 => {
            Some(*f as i64)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, AfterImage, QueryHash, SubscriptionId, Value};
    use invalidb_json::WireCodec;

    fn eager(payload: &bytes::Bytes) -> Option<ClusterMessage> {
        let d = invalidb_json::payload_to_document(payload).ok()?;
        ClusterMessage::from_document(&d).ok()
    }

    fn sample_messages() -> Vec<ClusterMessage> {
        let mut trace = TraceContext { trace_id: 7, stamps: Vec::new() };
        trace.stamp_at(invalidb_common::Stage::AppServer, 100);
        vec![
            ClusterMessage::Write(AfterImage {
                tenant: TenantId::new("app"),
                collection: "users".into(),
                key: Key::of("u1"),
                version: 3,
                doc: Some(doc! { "n" => 9i64, "tags" => vec![Value::from("a")] }),
                written_at: 1234,
                trace: None,
            }),
            ClusterMessage::Write(AfterImage {
                tenant: TenantId::new("app"),
                collection: "users".into(),
                key: Key::of(5i64),
                version: 8,
                doc: None,
                written_at: 0,
                trace: Some(trace),
            }),
            ClusterMessage::Unsubscribe {
                tenant: TenantId::new("app"),
                subscription: SubscriptionId(4),
                query_hash: QueryHash(11),
            },
        ]
    }

    #[test]
    fn fast_path_agrees_with_eager_for_both_codecs() {
        for msg in sample_messages() {
            for codec in [WireCodec::Json, WireCodec::Binary] {
                let payload = codec.encode(&msg.to_document());
                assert_eq!(decode_cluster_payload(&payload), eager(&payload), "{msg:?}");
                assert_eq!(decode_cluster_payload(&payload).as_ref(), Some(&msg));
            }
        }
    }

    #[test]
    fn binary_writes_take_the_lazy_path() {
        let ClusterMessage::Write(img) = &sample_messages()[0] else { unreachable!() };
        let payload = WireCodec::Binary.encode(&ClusterMessage::Write(img.clone()).to_document());
        assert!(try_decode_binary_write(&payload).is_some());
        // Control ops and JSON fall through to the eager decoder.
        let unsub = &sample_messages()[2];
        let ctrl = WireCodec::Binary.encode(&unsub.to_document());
        assert!(try_decode_binary_write(&ctrl).is_none());
        let json = WireCodec::Json.encode(&ClusterMessage::Write(img.clone()).to_document());
        assert!(try_decode_binary_write(&json).is_none());
    }

    #[test]
    fn malformed_payloads_decode_to_none_like_eager() {
        let msg = &sample_messages()[0];
        let full = WireCodec::Binary.encode(&msg.to_document());
        for cut in 1..full.len() {
            let torn = bytes::Bytes::copy_from_slice(&full[..cut]);
            assert_eq!(decode_cluster_payload(&torn), eager(&torn), "cut at {cut}");
        }
    }
}
