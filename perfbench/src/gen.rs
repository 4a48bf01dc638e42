//! Seeded request generators, one per workload.
//!
//! Every generator is a pure function of its seed: the same seed yields the
//! same request sequence, whatever the timing. Mixes are dealt from
//! shuffled decks rather than drawn independently, so every run sees the
//! same verb proportions and the latency quantiles do not wander with the
//! draw.

use crate::api::Req;

/// SplitMix64: small, fast, and enough for choosing requests.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The verb class a latency sample belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Find,
    Aggregate,
    Insert,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Find, Class::Aggregate, Class::Insert];

    pub const fn name(self) -> &'static str {
        match self {
            Class::Find => "find",
            Class::Aggregate => "aggregate",
            Class::Insert => "insert",
        }
    }

    /// Position in [`Class::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Each verb class is served under its own tenant, so the tenant
    /// sinks split work counters by verb.
    pub const fn tenant(self) -> &'static str {
        self.name()
    }
}

pub fn class_of(req: &Req) -> Class {
    match req {
        Req::Find { .. } | Req::FindProject { .. } => Class::Find,
        Req::Aggregate { .. } => Class::Aggregate,
        Req::Insert { .. } => Class::Insert,
    }
}

/// What a correct response holds, in terms the oracles can check without
/// the route under test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The generated seed documents with these ids (ascending), projected
    /// when a projection is given.
    SeedDocs {
        ids: Vec<usize>,
        projection: Option<String>,
    },
    /// The reference executor's output for `pipeline` over the seed
    /// documents with these ids.
    SeedAggregate { ids: Vec<usize>, pipeline: String },
    /// Entry `i` of the workload's fixed request pool.
    Pool(usize),
    /// `{"n": epoch}` — the count of inserted documents at the epoch the
    /// response names.
    CountAtEpoch,
    /// An insert acknowledgement with a strictly larger epoch.
    Inserted,
}

/// One generated request and the check its response must pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    pub req: Req,
    pub expect: Expect,
}

// ---- point_lookup ----------------------------------------------------------

const LOOKUP_PROJECTIONS: [&str; 2] = [r#"{"name.first": 1, "age": 1}"#, r#"{"name": 1}"#];

/// One deck of the point-lookup mix: 70% `Find` by id, 15% projected
/// find by id, 10% `$in` over five ids, 5% aggregate by id.
const LOOKUP_DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3];

/// The `point_lookup` request stream over a seed of `n_docs` documents
/// (document `i` has `"id": i`).
pub struct PointLookup {
    rng: Rng,
    n_docs: usize,
    deck: Vec<u8>,
}

impl PointLookup {
    pub fn new(seed: u64, n_docs: usize) -> PointLookup {
        PointLookup {
            rng: Rng::new(seed),
            n_docs,
            deck: Vec::new(),
        }
    }

    /// Whether the next request starts a deck: the requests sent since
    /// the last deck start are whole decks, in the mix's exact proportions.
    pub fn at_deck_start(&self) -> bool {
        self.deck.is_empty()
    }

    pub fn next_planned(&mut self) -> Planned {
        if self.deck.is_empty() {
            self.deck = LOOKUP_DECK.to_vec();
            self.rng.shuffle(&mut self.deck);
        }
        let id = self.rng.below(self.n_docs);
        match self.deck.pop().expect("refilled above") {
            0 => Planned {
                req: Req::Find {
                    filter: format!(r#"{{"id": {id}}}"#),
                },
                expect: Expect::SeedDocs {
                    ids: vec![id],
                    projection: None,
                },
            },
            1 => {
                let projection = LOOKUP_PROJECTIONS[self.rng.below(LOOKUP_PROJECTIONS.len())];
                Planned {
                    req: Req::FindProject {
                        filter: format!(r#"{{"id": {id}}}"#),
                        projection: projection.to_owned(),
                    },
                    expect: Expect::SeedDocs {
                        ids: vec![id],
                        projection: Some(projection.to_owned()),
                    },
                }
            }
            2 => {
                let mut ids: Vec<usize> = std::iter::once(id)
                    .chain((0..4).map(|_| self.rng.below(self.n_docs)))
                    .collect();
                let list: Vec<String> = ids.iter().map(usize::to_string).collect();
                ids.sort_unstable();
                ids.dedup();
                Planned {
                    req: Req::Find {
                        filter: format!(r#"{{"id": {{"$in": [{}]}}}}"#, list.join(", ")),
                    },
                    expect: Expect::SeedDocs {
                        ids,
                        projection: None,
                    },
                }
            }
            _ => {
                let pipeline = format!(
                    r#"[{{"$match": {{"id": {id}}}}}, {{"$project": {{"name.last": 1, "age": 1}}}}]"#
                );
                Planned {
                    req: Req::Aggregate {
                        pipeline: pipeline.clone(),
                    },
                    expect: Expect::SeedAggregate {
                        ids: vec![id],
                        pipeline,
                    },
                }
            }
        }
    }
}

// ---- analytic_scan ---------------------------------------------------------

/// The `analytic_scan` request pool. Every find filter is one that
/// `route_of` sends to the scan route (unindexed `name.last` order
/// comparisons and `$size`, all outside the exact JNL fragment); the
/// pipelines are the S5/S6 aggregation set, one of them JNL-routed. Their
/// text repeats the harness's `s5_pipelines()` and the `unwind_group`
/// entry of `s6_pipelines()` on purpose: pinned here, the workload does not
/// change when the harness is changed or retired.
pub fn analytic_pool() -> Vec<Req> {
    let find = |f: &str| Req::Find {
        filter: f.to_owned(),
    };
    let project = |f: &str, p: &str| Req::FindProject {
        filter: f.to_owned(),
        projection: p.to_owned(),
    };
    let agg = |p: &str| Req::Aggregate {
        pipeline: p.to_owned(),
    };
    vec![
        find(r#"{"name.last": {"$gt": "K"}}"#),
        project(r#"{"name.last": {"$gt": "K"}}"#, r#"{"name": 1, "age": 1}"#),
        find(r#"{"name.last": {"$lt": "D"}}"#),
        project(r#"{"hobbies": {"$size": 2}}"#, r#"{"id": 1, "hobbies": 1}"#),
        agg(r#"[
            {"$match": {"age": {"$gte": 30}}},
            {"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies",
                        "n": {"$count": {}},
                        "total_age": {"$sum": "$age"},
                        "avg_age": {"$avg": "$age"},
                        "min_age": {"$min": "$age"},
                        "max_age": {"$max": "$age"}}},
            {"$sort": {"n": 0, "_id": 1}}
        ]"#),
        agg(r#"[
            {"$match": {"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$lte": 89}}},
            {"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}},
            {"$sort": {"age": 0, "name.first": 1}},
            {"$skip": 100},
            {"$limit": 50}
        ]"#),
        agg(r#"[
            {"$match": {"name.last": {"$in": ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"]}}},
            {"$group": {"_id": {"f": "$name.first", "l": "$name.last"},
                        "n": {"$count": {}},
                        "ages": {"$push": "$age"},
                        "youngest": {"$min": "$age"}}},
            {"$sort": {"n": 0, "_id": 1}},
            {"$limit": 10}
        ]"#),
        agg(r#"[
            {"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies",
                        "n": {"$count": {}},
                        "total_age": {"$sum": "$age"},
                        "avg_age": {"$avg": "$age"},
                        "first_id": {"$first": "$id"},
                        "last_id": {"$last": "$id"}}},
            {"$sort": {"n": 0, "_id": 1}}
        ]"#),
    ]
}

/// Pool entries per deck. The weights keep the 50th and 90th percentile of
/// each verb class, over any whole number of decks, inside one request
/// kind's latency band rather than on the edge between two, where a single
/// sample would move them. Over part of a deck the shares differ, so the
/// benchmark cuts its blocks at deck starts.
const ANALYTIC_DECK: [u8; 20] = [0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 7];

/// The `analytic_scan` request stream: pool entries dealt from shuffled
/// decks.
pub struct AnalyticScan {
    rng: Rng,
    pool: Vec<Req>,
    deck: Vec<u8>,
}

impl AnalyticScan {
    pub fn new(seed: u64) -> AnalyticScan {
        AnalyticScan {
            rng: Rng::new(seed),
            pool: analytic_pool(),
            deck: Vec::new(),
        }
    }

    /// Whether the next request starts a deck (see
    /// [`PointLookup::at_deck_start`]).
    pub fn at_deck_start(&self) -> bool {
        self.deck.is_empty()
    }

    pub fn next_planned(&mut self) -> Planned {
        if self.deck.is_empty() {
            self.deck = ANALYTIC_DECK.to_vec();
            self.rng.shuffle(&mut self.deck);
        }
        let i = usize::from(self.deck.pop().expect("refilled above"));
        Planned {
            req: self.pool[i].clone(),
            expect: Expect::Pool(i),
        }
    }
}

// ---- ingest_mixed ----------------------------------------------------------

/// The reader's `$count` over the inserted documents: `name.last` equality
/// is in the exact JNL fragment on an unindexed path, so it takes the JNL
/// route and visits every segment.
pub const STORM_COUNT: &str = r#"[{"$match":{"name.last":"Storm"}},{"$count":"n"}]"#;

/// The writer's fixed insert sequence: `n` new person documents, all with
/// `name.last` `"Storm"` (a value the seed never holds) and ids above the
/// seed's.
pub fn storm_inserts(seed: u64, n: usize, first_id: usize) -> Vec<Req> {
    const FIRSTS: [&str; 4] = ["Ada", "Bo", "Cy", "Di"];
    const HOBBIES: [&str; 3] = ["chess", "yoga", "sailing"];
    let mut rng = Rng::new(seed ^ 0x5107_0000);
    (0..n)
        .map(|i| {
            let hobbies: Vec<String> = (0..rng.below(3))
                .map(|_| format!("\"{}\"", HOBBIES[rng.below(HOBBIES.len())]))
                .collect();
            Req::Insert {
                doc: format!(
                    r#"{{"id": {}, "name": {{"first": "{}", "last": "Storm"}}, "age": {}, "hobbies": [{}]}}"#,
                    first_id + i,
                    FIRSTS[rng.below(FIRSTS.len())],
                    18 + rng.below(72),
                    hobbies.join(", ")
                ),
            }
        })
        .collect()
}

/// The `ingest_mixed` reader stream: three finds by seed id to one
/// `$count`.
pub struct IngestReader {
    rng: Rng,
    n_seed: usize,
    deck: Vec<u8>,
}

impl IngestReader {
    pub fn new(seed: u64, n_seed: usize) -> IngestReader {
        IngestReader {
            rng: Rng::new(seed ^ 0x4ead_0000),
            n_seed,
            deck: Vec::new(),
        }
    }

    pub fn next_planned(&mut self) -> Planned {
        if self.deck.is_empty() {
            self.deck = vec![0, 0, 0, 1];
            self.rng.shuffle(&mut self.deck);
        }
        if self.deck.pop() == Some(1) {
            return Planned {
                req: Req::Aggregate {
                    pipeline: STORM_COUNT.to_owned(),
                },
                expect: Expect::CountAtEpoch,
            };
        }
        let id = self.rng.below(self.n_seed);
        Planned {
            req: Req::Find {
                filter: format!(r#"{{"id": {id}}}"#),
            },
            expect: Expect::SeedDocs {
                ids: vec![id],
                projection: None,
            },
        }
    }
}
