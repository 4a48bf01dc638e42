//! Output oracles that do not depend on the route under test.
//!
//! Expected answers come from the generated documents (`Filter::matches`,
//! `Projection::apply`) and the value-based reference executor
//! (`jagg::reference::aggregate`), never from the served collection.

use crate::api::{self, Json, Req};
use crate::gen::{Expect, Planned};

/// Expected answers for one workload.
pub struct Oracle {
    docs: Vec<Json>,
    /// Expected `docs` text per pool entry, computed once before timing.
    pool: Vec<String>,
    /// The `$count` answer when nothing has been inserted yet.
    count_at_zero: String,
}

impl Oracle {
    /// `docs` are the generated seed documents; `pool` the workload's
    /// fixed request pool (empty when it has none).
    pub fn new(docs: Vec<Json>, pool: &[Req]) -> Oracle {
        let pool = pool
            .iter()
            .map(|req| {
                api::docs_text(&match req {
                    Req::Find { filter } => api::oracle_find(&docs, filter, None),
                    Req::FindProject { filter, projection } => {
                        api::oracle_find(&docs, filter, Some(projection))
                    }
                    Req::Aggregate { pipeline } => api::oracle_aggregate(&docs, pipeline),
                    Req::Insert { .. } => unreachable!("request pools are read-only"),
                })
            })
            .collect();
        let count_at_zero = api::docs_text(&api::oracle_aggregate(&docs, crate::gen::STORM_COUNT));
        Oracle {
            docs,
            pool,
            count_at_zero,
        }
    }

    fn seed_docs(&self, ids: &[usize]) -> Vec<Json> {
        ids.iter().map(|&i| self.docs[i].clone()).collect()
    }

    /// The expected `docs` text of a read at `epoch`.
    fn expected_docs(&self, expect: &Expect, epoch: u64) -> String {
        match expect {
            Expect::SeedDocs { ids, projection } => {
                let docs = self.seed_docs(ids);
                match projection {
                    Some(p) => api::docs_text(&api::oracle_project(&docs, p)),
                    None => api::docs_text(&docs),
                }
            }
            Expect::SeedAggregate { ids, pipeline } => {
                api::docs_text(&api::oracle_aggregate(&self.seed_docs(ids), pipeline))
            }
            Expect::Pool(i) => self.pool[*i].clone(),
            Expect::CountAtEpoch if epoch == 0 => self.count_at_zero.clone(),
            Expect::CountAtEpoch => format!("[{{\"n\":{epoch}}}]"),
            Expect::Inserted => unreachable!("inserts carry no docs"),
        }
    }
}

/// Splits a response text into its epoch and, for reads, its `docs` text.
pub fn split_response(text: &str) -> Option<(u64, Option<&str>)> {
    let rest = text.strip_prefix("{\"epoch\":")?.strip_suffix('}')?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let epoch = rest[..digits].parse().ok()?;
    match &rest[digits..] {
        "" => Some((epoch, None)),
        tail => Some((epoch, Some(tail.strip_prefix(",\"docs\":")?))),
    }
}

/// One client's checker: the oracle plus the epoch order this client has
/// observed (its reads never go back in time, its inserts strictly
/// advance).
pub struct Checker<'a> {
    oracle: &'a Oracle,
    last_read: u64,
    last_insert: u64,
    /// Acknowledged inserts.
    pub inserted: u64,
}

impl<'a> Checker<'a> {
    pub fn new(oracle: &'a Oracle) -> Checker<'a> {
        Checker {
            oracle,
            last_read: 0,
            last_insert: 0,
            inserted: 0,
        }
    }

    /// Checks one response text against its plan.
    pub fn check(&mut self, planned: &Planned, response: &str) -> Result<(), String> {
        let bad = |why: &str| Err(format!("{why}: {:?} -> {}", planned.req, clip(response)));
        let Some((epoch, docs)) = split_response(response) else {
            return bad("malformed response");
        };
        match (&planned.expect, docs) {
            (Expect::Inserted, None) => {
                if epoch <= self.last_insert {
                    return bad("insert epoch did not advance");
                }
                self.last_insert = epoch;
                self.inserted += 1;
                Ok(())
            }
            (Expect::Inserted, Some(_)) | (_, None) => bad("wrong response kind"),
            (expect, Some(docs)) => {
                if epoch < self.last_read {
                    return bad("read went back in time");
                }
                self.last_read = epoch;
                if docs != self.oracle.expected_docs(expect, epoch) {
                    return bad("docs differ from the oracle");
                }
                Ok(())
            }
        }
    }
}

fn clip(s: &str) -> &str {
    let end = s.char_indices().nth(200).map_or(s.len(), |(i, _)| i);
    &s[..end]
}
