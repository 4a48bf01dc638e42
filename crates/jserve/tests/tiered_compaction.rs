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

use jagg::Pipeline;
use jserve::store::merge_point;
use jserve::Store;
use jsondata::{gen, serialize, Json, ParseLimits};
use mongofind::{Collection, Filter};

const INDEX_PATHS: [&str; 2] = ["id", "name.first"];

const FILTERS: [&str; 6] = [
    // index route (eq, range, in)
    r#"{"id": 7}"#,
    r#"{"name.first": {"$in": ["Sue", "Wei"]}}"#,
    r#"{"id": {"$gte": 30}, "age": {"$lt": 50}}"#,
    // JNL route (exact fragment, unindexed path)
    r#"{"name.last": "Kim"}"#,
    r#"{"$or": [{"name.last": "Chen"}, {"hobbies.0": "yoga"}]}"#,
    // scan route (outside the exact JNL fragment)
    r#"{"age": {"$gt": 60}}"#,
];

const PIPELINES: [&str; 4] = [
    r#"[{"$match": {"name.last": "Kim"}}, {"$count": "n"}]"#,
    r#"[{"$group": {"_id": "$name.last", "n": {"$count": {}}, "ages": {"$push": "$age"}}}]"#,
    r#"[{"$match": {"name.first": "Sue"}}, {"$group": {"_id": "$name", "n": {"$count": {}}}}]"#,
    r#"[{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "n": {"$sum": "$age"}}}, {"$sort": {"_id": 1}}]"#,
];

/// splitmix64: a self-contained deterministic step source.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

fn records(n: usize, seed: u64) -> Vec<Json> {
    match gen::person_records(n, seed) {
        Json::Array(docs) => docs,
        _ => unreachable!("person_records returns an array"),
    }
}

fn indexed(mut coll: Collection) -> Collection {
    for p in INDEX_PATHS {
        assert!(coll.create_index(p));
    }
    coll
}

/// The oracle: the same documents loaded in one parse.
fn one_parse(docs: &[Json]) -> Collection {
    let text = serialize::to_string(&Json::Array(docs.to_vec()));
    indexed(Collection::parse_str(&text).unwrap())
}

fn check_queries(coll: &Collection, docs: &[Json], ctx: &str) {
    let oracle = one_parse(docs);
    assert_eq!(coll.len(), docs.len(), "{ctx}");
    for src in FILTERS {
        let f = Filter::parse_str(src).unwrap();
        let expect = oracle.find(&f);
        assert_eq!(coll.find(&f), expect, "{ctx}: scan {src}");
        let indexed: Vec<Json> = coll
            .find_refs_indexed(&f)
            .into_iter()
            .map(|d| coll.json_of(d))
            .collect();
        assert_eq!(indexed, expect, "{ctx}: index {src}");
        if f.jnl_exact() {
            assert_eq!(coll.find_via_jnl(&f), expect, "{ctx}: jnl {src}");
        }
    }
    for src in PIPELINES {
        let p = Pipeline::parse_str(src).unwrap();
        let expect = jagg::reference::aggregate(docs, &p);
        assert_eq!(jagg::aggregate(&oracle, &p), expect, "{ctx}: oracle {src}");
        assert_eq!(jagg::aggregate(coll, &p), expect, "{ctx}: {src}");
    }
}

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
                    for (i, (a, b)) in old[..k].iter().zip(new).enumerate() {
                        assert!(Arc::ptr_eq(a, b), "{ctx}: segment {i} before {k} shared");
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
