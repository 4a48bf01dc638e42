//! Seeded property suite for tiered compaction: random sequences of
//! inserts, `Store::compact` (the tier policy's suffix merge) and full
//! `Collection::compact` over an indexed collection. After every step:
//!
//! * scan, index and JNL finds, and `jagg::aggregate`, equal a one-parse
//!   rebuild of the same documents (and `jagg::reference` over them);
//! * a tiered compaction shares every segment before its merge point, by
//!   `Arc::ptr_eq`, with the snapshot it started from;
//! * the segment count stays within `tail + ⌈log2(docs)⌉ + 1`, where
//!   `tail` is the number of inserts since the last compaction.

use std::sync::Arc;

use common::{check_queries, indexed, records, Rng};
use jserve::store::merge_point;
use jserve::Store;
use jsondata::{serialize, Json, ParseLimits};
use mongofind::Collection;

mod common;

fn ceil_log2(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let pool = records(400, seed ^ 0x5eed);
    let mut docs = records(24, seed);
    let mut store = Store::new(indexed(
        Collection::from_array(&Json::Array(docs.clone())).unwrap(),
    ));
    let mut next = 0;
    let mut tail = 0;
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        let before = store.snapshot();
        match rng.below(10) {
            0..=5 => {
                for _ in 0..=rng.below(12) {
                    let doc = &pool[next % pool.len()];
                    next += 1;
                    store
                        .insert_str(&serialize::to_string(doc), ParseLimits::default())
                        .unwrap();
                    docs.push(doc.clone());
                    tail += 1;
                }
            }
            6..=8 => {
                let k = merge_point(before.collection());
                assert!(store.compact(), "{ctx}: no concurrent compaction");
                let after = store.snapshot();
                let (old, new) = (
                    before.collection().segments(),
                    after.collection().segments(),
                );
                if k + 1 >= old.len() {
                    assert!(Arc::ptr_eq(&before, &after), "{ctx}: nothing to merge");
                } else {
                    assert_eq!(new.len(), k + 1, "{ctx}: suffix merged into one");
                    for (i, (a, b)) in old.iter().zip(new.iter()).take(k).enumerate() {
                        assert!(
                            Arc::ptr_eq(a.tree(), b.tree()),
                            "{ctx}: segment {i} before {k} shared"
                        );
                    }
                }
                tail = 0;
            }
            _ => {
                let mut coll = before.collection().clone();
                coll.compact();
                assert_eq!(coll.segments().len(), 1, "{ctx}");
                store = Store::new(coll);
                tail = 0;
            }
        }
        let snap = store.snapshot();
        let segments = snap.collection().segments().len();
        let bound = tail + ceil_log2(docs.len()) + 1;
        assert!(
            segments <= bound,
            "{ctx}: {segments} segments > bound {bound}"
        );
        check_queries(snap.collection(), &docs, &ctx);
    }
}

#[test]
fn tiered_compaction_matches_one_parse_rebuild() {
    for seed in 1..=6 {
        run(seed, 40);
    }
}

#[test]
fn insert_heavy_store_keeps_few_tiers() {
    // Long insert/compact alternation, the serving benchmark's pattern in
    // miniature: the tier count stays logarithmic throughout.
    let pool = records(600, 99);
    let mut coll = indexed(Collection::from_array(&Json::Array(records(100, 98))).unwrap());
    coll.compact();
    let store = Store::new(coll);
    let mut docs = records(100, 98);
    for (i, doc) in pool.iter().enumerate() {
        store
            .insert_str(&serialize::to_string(doc), ParseLimits::default())
            .unwrap();
        docs.push(doc.clone());
        if (i + 1) % 25 == 0 {
            assert!(store.compact());
            let segments = store.snapshot().collection().segments().len();
            assert!(
                segments <= ceil_log2(docs.len()) + 1,
                "{segments} after {}",
                i + 1
            );
        }
    }
    check_queries(store.snapshot().collection(), &docs, "insert-heavy");
}
