//! Shared fixtures of the seeded store suites: a deterministic step
//! source, generated person records, and the one-parse oracle every
//! snapshot is compared with.

use jagg::Pipeline;
use jsondata::{gen, serialize, Json};
use mongofind::{Collection, Filter};

pub const INDEX_PATHS: [&str; 2] = ["id", "name.first"];

pub const FILTERS: [&str; 6] = [
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

pub const PIPELINES: [&str; 4] = [
    r#"[{"$match": {"name.last": "Kim"}}, {"$count": "n"}]"#,
    r#"[{"$group": {"_id": "$name.last", "n": {"$count": {}}, "ages": {"$push": "$age"}}}]"#,
    r#"[{"$match": {"name.first": "Sue"}}, {"$group": {"_id": "$name", "n": {"$count": {}}}}]"#,
    r#"[{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "n": {"$sum": "$age"}}}, {"$sort": {"_id": 1}}]"#,
];

/// splitmix64: a self-contained deterministic step source.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

pub fn records(n: usize, seed: u64) -> Vec<Json> {
    match gen::person_records(n, seed) {
        Json::Array(docs) => docs,
        _ => unreachable!("person_records returns an array"),
    }
}

pub fn indexed(mut coll: Collection) -> Collection {
    for p in INDEX_PATHS {
        assert!(coll.create_index(p));
    }
    coll
}

/// The oracle: the same documents loaded in one parse.
pub fn one_parse(docs: &[Json]) -> Collection {
    let text = serialize::to_string(&Json::Array(docs.to_vec()));
    indexed(Collection::parse_str(&text).unwrap())
}

pub fn check_queries(coll: &Collection, docs: &[Json], ctx: &str) {
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
