//! Seeded property suite for structurally shared snapshots: random
//! sequences of inserts (some bringing strings the symbol table lacks),
//! rejected inserts, `Store::compact`, a `Collection::merge_from` cut
//! inside a sealed chunk and a `create_index` on a live collection, with a
//! snapshot kept every few steps, across at least three chunk seals.
//!
//! * Consecutive snapshots share their sealed chunks of segment records
//!   by `Arc::ptr_eq` (all of them after an insert, those wholly before
//!   the merge point after a merge), and share the symbol table whenever
//!   the step interned no new string.
//! * A rejected insert leaves the symbol table's length unchanged.
//! * Afterwards, every kept snapshot still equals a one-parse rebuild of
//!   its store's seed plus `log_prefix(epoch)`, on scan, index and JNL
//!   finds and on `jagg::aggregate` against `jagg::reference`.
//!
//! `merge_from` and `create_index` have no `Store` verb: such a step
//! wraps the changed collection in a new store, whose seed is the
//! documents so far.

use std::sync::Arc;

use common::{check_queries, indexed, records, Rng};
use jserve::store::merge_point;
use jserve::{Snapshot, Store};
use jsondata::{serialize, Json, ParseLimits};
use mongofind::{Collection, SEGMENT_CHUNK};

mod common;

/// A store and the documents it was seeded with.
struct Generation {
    seed: Vec<Json>,
    store: Store,
}

impl Generation {
    fn new(seed: &[Json], coll: Collection) -> Generation {
        Generation {
            seed: seed.to_vec(),
            store: Store::new(coll),
        }
    }
}

/// Whether `doc` holds a key or string the collection has not interned.
fn brings_new_string(coll: &Collection, doc: &Json) -> bool {
    match doc {
        Json::Num(_) => false,
        Json::Str(s) => coll.interner().lookup(s).is_none(),
        Json::Array(items) => items.iter().any(|v| brings_new_string(coll, v)),
        Json::Object(o) => o
            .iter()
            .any(|(k, v)| coll.interner().lookup(k).is_none() || brings_new_string(coll, v)),
    }
}

/// Asserts `after` shares the first `chunks` sealed chunks of `before`.
fn assert_chunks_shared(before: &Snapshot, after: &Snapshot, chunks: usize, ctx: &str) {
    let (old, new) = (
        before.collection().segments().sealed_chunks(),
        after.collection().segments().sealed_chunks(),
    );
    assert!(
        new.len() >= chunks,
        "{ctx}: {} sealed < {chunks}",
        new.len()
    );
    for (i, (a, b)) in old.iter().zip(new).take(chunks).enumerate() {
        assert!(Arc::ptr_eq(a, b), "{ctx}: sealed chunk {i} not shared");
    }
}

fn same_interner(a: &Snapshot, b: &Snapshot) -> bool {
    Arc::ptr_eq(
        a.collection().shared_interner(),
        b.collection().shared_interner(),
    )
}

/// Inserts `doc` and checks what the new snapshot shares with the old.
/// Returns whether the insert sealed a chunk.
fn insert(g: &Generation, doc: &Json, ctx: &str) -> bool {
    let before = g.store.snapshot();
    let fresh = brings_new_string(before.collection(), doc);
    g.store
        .insert_str(&serialize::to_string(doc), ParseLimits::default())
        .unwrap();
    let after = g.store.snapshot();
    let sealed = before.collection().segments().sealed_chunks().len();
    assert_chunks_shared(&before, &after, sealed, ctx);
    assert_eq!(
        same_interner(&before, &after),
        !fresh,
        "{ctx}: fresh {fresh}"
    );
    after.collection().segments().sealed_chunks().len() > sealed
}

fn run(seed: u64, steps: usize) -> usize {
    let mut rng = Rng(seed);
    let pool = records(800, seed ^ 0x5eed);
    let mut next = 0;
    let mut docs = records(40, seed);
    let seed_coll = indexed(Collection::from_array(&Json::Array(docs.clone())).unwrap());
    let mut gens = vec![Generation::new(&docs, seed_coll)];
    let mut kept: Vec<(usize, Arc<Snapshot>)> = Vec::new();
    let mut seals = 0;
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        let g = gens.last().expect("one generation at least");
        let before = g.store.snapshot();
        let op = if step == steps / 2 { 99 } else { rng.below(20) };
        match op {
            0..=12 => {
                for _ in 0..=rng.below(16) {
                    let doc = pool[next % pool.len()].clone();
                    next += 1;
                    seals += usize::from(insert(g, &doc, &ctx));
                    docs.push(doc);
                }
            }
            13 => {
                let text = format!(
                    r#"{{"id": {}, "note{step}": "fresh {seed}-{step}"}}"#,
                    9000 + step
                );
                let doc = jsondata::parse(&text).unwrap();
                assert!(brings_new_string(before.collection(), &doc));
                seals += usize::from(insert(g, &doc, &ctx));
                docs.push(doc);
            }
            14 => {
                let text = format!(r#"{{"never{step}": "seen {step}", "bad" 1}}"#);
                let len = before.collection().interner().len();
                assert!(g.store.insert_str(&text, ParseLimits::default()).is_err());
                assert!(Arc::ptr_eq(&before, &g.store.snapshot()), "{ctx}");
                let mut coll = before.collection().clone();
                assert!(coll.insert_str(&text).is_err());
                assert_eq!(
                    coll.interner().len(),
                    len,
                    "{ctx}: rejected insert interned"
                );
                assert!(Arc::ptr_eq(
                    coll.shared_interner(),
                    before.collection().shared_interner()
                ));
            }
            15..=17 => {
                let k = merge_point(before.collection());
                assert!(g.store.compact(), "{ctx}: no concurrent compaction");
                let after = g.store.snapshot();
                assert_chunks_shared(&before, &after, k / SEGMENT_CHUNK, &ctx);
                assert!(same_interner(&before, &after), "{ctx}: merge interned");
            }
            18 | 19 => {
                let n = before.collection().segments().len();
                if n >= 3 {
                    // A cut strictly inside a chunk whenever the column allows.
                    let mut k = 1 + rng.below(n as u64 - 2) as usize;
                    if k.is_multiple_of(SEGMENT_CHUNK) {
                        k -= 1;
                    }
                    let mut coll = before.collection().clone();
                    coll.merge_from(k);
                    assert_eq!(coll.segments().len(), k + 1, "{ctx}");
                    let next_gen = Generation::new(&docs, coll);
                    let after = next_gen.store.snapshot();
                    assert_chunks_shared(&before, &after, k / SEGMENT_CHUNK, &ctx);
                    assert!(same_interner(&before, &after), "{ctx}: merge interned");
                    gens.push(next_gen);
                }
            }
            _ => {
                let mut coll = before.collection().clone();
                assert!(coll.create_index("age"), "{ctx}");
                let range = mongofind::Filter::parse_str(r#"{"age": {"$gt": 60}}"#).unwrap();
                assert!(coll.index_answerable(&range), "{ctx}");
                gens.push(Generation::new(&docs, coll));
            }
        }
        if step % 3 == 0 {
            let g = gens.last().expect("one generation at least");
            kept.push((gens.len() - 1, g.store.snapshot()));
        }
    }
    for (i, (g, snap)) in kept.iter().enumerate() {
        let g = &gens[*g];
        let mut expect = g.seed.clone();
        for entry in g.store.log_prefix(snap.epoch() as usize) {
            expect.push(jsondata::parse(&entry).unwrap());
        }
        let ctx = format!("seed {seed} kept snapshot {i} (epoch {})", snap.epoch());
        check_queries(snap.collection(), &expect, &ctx);
    }
    seals
}

#[test]
fn shared_snapshots_match_one_parse_rebuilds() {
    for seed in 1..=4 {
        let seals = run(seed, 60);
        assert!(seals >= 3, "seed {seed}: only {seals} chunk seals");
    }
}
