//! The adapter: every call this benchmark makes into the program's API.
//!
//! Nothing else in the benchmark names a `jserve`, `mongofind`, `jagg`,
//! `jsondata`, `jtrace` or `jpar` item, so an API change (for example
//! collapsing mongofind's find entry points into one `Collection::find`)
//! touches this file and leaves what is measured, and how, unchanged.

use std::hint::black_box;
use std::sync::Arc;

use jserve::{AdmissionConfig, Request, TenantSpec};
use jtrace::{Counter, SpanPhase};

pub use jserve::{Response, Server};
pub use jsondata::Json;

/// The secondary indexes every workload's collection declares; `name.last`
/// is left unindexed so the scan and JNL routes stay reachable. The same
/// set as the harness's `S9_INDEX_PATHS`, pinned here so the workload does
/// not change when the harness is changed or retired.
pub const INDEX_PATHS: [&str; 3] = ["id", "name.first", "age"];

/// One request as the benchmark's clients hold it: text payloads only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// `find(filter)`.
    Find { filter: String },
    /// `find(filter, projection)`.
    FindProject { filter: String, projection: String },
    /// `aggregate(pipeline)`.
    Aggregate { pipeline: String },
    /// Insert one document.
    Insert { doc: String },
}

/// A failed request: shed by admission, or any other typed error.
#[derive(Debug)]
pub enum Failure {
    /// `QueryError::Overloaded`.
    Shed,
    /// Every other `QueryError`, rendered.
    Error(String),
}

/// The generated seed collection: its text (all the program receives)
/// and the generated documents (the oracles' ground truth).
pub struct SeedData {
    pub text: String,
    pub docs: Vec<Json>,
}

/// `jsondata::gen::person_records(n, seed)`, serialized.
pub fn generate_seed(n: usize, seed: u64) -> SeedData {
    let value = jsondata::gen::person_records(n, seed);
    let text = jsondata::serialize::to_string(&value);
    let docs = match value {
        Json::Array(docs) => docs,
        _ => unreachable!("person_records returns an array"),
    };
    SeedData { text, docs }
}

/// An opaque seed collection, parsed and indexed, ready to be served.
#[derive(Clone)]
pub struct Seed(mongofind::Collection);

/// Parses the seed text and declares [`INDEX_PATHS`].
pub fn build_seed(text: &str) -> Seed {
    let mut coll = mongofind::Collection::parse_str(text).expect("generated seed text parses");
    for p in INDEX_PATHS {
        assert!(coll.create_index(p), "index on {p} declared once");
    }
    Seed(coll)
}

/// A server over `seed` (a cheap `Arc`-sharing clone, so one parsed seed
/// can back many fresh servers) with default admission and one tenant per
/// name. `span_capacity` 0 gives counters-only sinks.
pub fn build_server(seed: &Seed, tenants: &[&str], span_capacity: usize) -> Server {
    let server = Server::new(seed.0.clone(), AdmissionConfig::default());
    for name in tenants {
        let mut spec = TenantSpec::new(*name);
        spec.span_capacity = span_capacity;
        assert!(
            server.register_tenant(spec),
            "tenant {name} registered once"
        );
    }
    server
}

/// `Server::serve` on the request built from `req`'s text.
pub fn serve(server: &Server, tenant: &str, req: &Req) -> Result<Response, Failure> {
    let request = match req {
        Req::Find { filter } => Request::Find {
            filter: filter.clone(),
        },
        Req::FindProject { filter, projection } => Request::FindProject {
            filter: filter.clone(),
            projection: projection.clone(),
        },
        Req::Aggregate { pipeline } => Request::Aggregate {
            pipeline: pipeline.clone(),
        },
        Req::Insert { doc } => Request::Insert { doc: doc.clone() },
    };
    server.serve(tenant, &request).map_err(|e| match e {
        jguard::QueryError::Overloaded => Failure::Shed,
        e => Failure::Error(e.to_string()),
    })
}

/// The response as the text a client would receive:
/// `{"epoch":E,"docs":[…]}` for reads, `{"epoch":E}` for inserts.
pub fn materialize(resp: &Response) -> String {
    match resp {
        Response::Docs { epoch, docs } => {
            format!("{{\"epoch\":{epoch},\"docs\":{}}}", docs_text(docs))
        }
        Response::Inserted { epoch } => format!("{{\"epoch\":{epoch}}}"),
        Response::Plan { epoch, plan } => format!("{{\"epoch\":{epoch},\"plan\":{plan}}}"),
    }
}

/// Compact text of a document list, the `docs` member of a response.
pub fn docs_text(docs: &[Json]) -> String {
    let mut out = String::from("[");
    for (i, d) in docs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&jsondata::serialize::to_string(d));
    }
    out.push(']');
    out
}

// ---- store ---------------------------------------------------------------

/// `Store::snapshot()`; returns the snapshot's (epoch, segment count).
pub fn snapshot(server: &Server) -> (u64, usize) {
    let snap = server.store().snapshot();
    (snap.epoch(), snap.collection().segments().len())
}

/// `Store::compact()`: `false` when a concurrent compaction won.
pub fn compact(server: &Server) -> bool {
    server.store().compact()
}

/// `Store::log_len()`: committed inserts.
pub fn log_len(server: &Server) -> usize {
    server.store().log_len()
}

/// Documents in the current snapshot.
pub fn doc_count(server: &Server) -> usize {
    server.store().snapshot().collection().len()
}

/// `Collection::clone()` of the current snapshot — the copy each insert
/// makes before appending.
pub fn clone_collection(server: &Server) {
    let snap = server.store().snapshot();
    black_box(snap.collection().clone());
}

/// The worker pool every snapshot inherits: (threads, dispatch).
pub fn pool(server: &Server) -> (usize, String) {
    let snap = server.store().snapshot();
    let pool = snap.collection().pool();
    (
        pool.threads(),
        format!("{:?}", pool.dispatch()).to_lowercase(),
    )
}

/// The route `EXPLAIN` reports for a find filter on the current snapshot.
pub fn route_of(server: &Server, filter: &str) -> String {
    let f = mongofind::Filter::parse_str(filter).expect("workload filter parses");
    let route = server.store().snapshot().collection().route_of(&f);
    format!("{route:?}").to_lowercase()
}

// ---- parsers (timed from outside in the traced run) ------------------------

/// `Filter::parse_str`, plus `Projection::parse_str` when given.
pub fn parse_find(filter: &str, projection: Option<&str>) {
    black_box(mongofind::Filter::parse_str(filter).expect("workload filter parses"));
    if let Some(p) = projection {
        black_box(mongofind::Projection::parse_str(p).expect("workload projection parses"));
    }
}

/// `jagg::Pipeline::parse_str`.
pub fn parse_pipeline(pipeline: &str) {
    black_box(jagg::Pipeline::parse_str(pipeline).expect("workload pipeline parses"));
}

/// `jsondata::parse_to_tree` of an insert's document text.
pub fn parse_insert(doc: &str) {
    black_box(jsondata::parse_to_tree(doc).expect("workload document parses"));
}

// ---- tenant sinks ----------------------------------------------------------

/// The work counters the benchmark reads from a tenant sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub docs_scanned: u64,
    pub rows_emitted: u64,
    pub index_probes: u64,
    pub segments_visited: u64,
    pub dfa_bitset_builds: u64,
    pub canon_builds: u64,
    pub polls: u64,
    pub chunks_dispatched: u64,
    pub chunks_stolen: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.docs_scanned += o.docs_scanned;
        self.rows_emitted += o.rows_emitted;
        self.index_probes += o.index_probes;
        self.segments_visited += o.segments_visited;
        self.dfa_bitset_builds += o.dfa_bitset_builds;
        self.canon_builds += o.canon_builds;
        self.polls += o.polls;
        self.chunks_dispatched += o.chunks_dispatched;
        self.chunks_stolen += o.chunks_stolen;
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        Counters {
            docs_scanned: self.docs_scanned - o.docs_scanned,
            rows_emitted: self.rows_emitted - o.rows_emitted,
            index_probes: self.index_probes - o.index_probes,
            segments_visited: self.segments_visited - o.segments_visited,
            dfa_bitset_builds: self.dfa_bitset_builds - o.dfa_bitset_builds,
            canon_builds: self.canon_builds - o.canon_builds,
            polls: self.polls - o.polls,
            chunks_dispatched: self.chunks_dispatched - o.chunks_dispatched,
            chunks_stolen: self.chunks_stolen - o.chunks_stolen,
        }
    }
}

/// A snapshot of `tenant`'s counters (`Server::tenant_metrics`).
pub fn counters(server: &Server, tenant: &str) -> Counters {
    let s = server
        .tenant_metrics(tenant)
        .expect("tenant registered")
        .snapshot();
    Counters {
        docs_scanned: s.get(Counter::DocsScanned),
        rows_emitted: s.get(Counter::RowsEmitted),
        index_probes: s.get(Counter::IndexProbes),
        segments_visited: s.get(Counter::SegmentsVisited),
        dfa_bitset_builds: s.get(Counter::DfaBitsetBuilds),
        canon_builds: s.get(Counter::CanonBuilds),
        polls: s.get(Counter::Polls),
        chunks_dispatched: s.get(Counter::ChunksDispatched),
        chunks_stolen: s.get(Counter::ChunksStolen),
    }
}

/// One event of a tenant's span ring.
#[derive(Clone, Copy, Debug)]
pub struct RingEvent {
    /// `plan`, `probe`, `stage`, `chunk` or `parse`.
    pub kind: &'static str,
    pub open: bool,
    pub arg: u32,
    /// Recording thread's lane.
    pub lane: u16,
    /// Nanoseconds on the ring's own clock.
    pub ts_ns: u64,
    /// 1-based record order.
    pub seq: u64,
}

/// A tenant's span ring handle: `recorded()` brackets requests,
/// `events_after()` drains what survives.
pub struct Ring(Arc<jtrace::QueryMetrics>);

/// The span ring of `tenant`; `None` when it was registered without one.
pub fn ring(server: &Server, tenant: &str) -> Option<Ring> {
    let m = server.tenant_metrics(tenant).expect("tenant registered");
    let traced = m.spans().is_some();
    traced.then_some(Ring(m))
}

impl Ring {
    fn log(&self) -> &jtrace::SpanLog {
        self.0.spans().expect("ring checked at construction")
    }

    /// Events ever recorded (a monotone sequence number).
    pub fn recorded(&self) -> u64 {
        self.log().recorded()
    }

    /// The surviving events with `seq > after`, oldest first.
    pub fn events_after(&self, after: u64) -> Vec<RingEvent> {
        self.log()
            .events()
            .into_iter()
            .filter(|e| e.seq > after)
            .map(|e| RingEvent {
                kind: e.kind.name(),
                open: e.phase == SpanPhase::Open,
                arg: e.arg,
                lane: e.tid,
                ts_ns: e.ts_ns,
                seq: e.seq,
            })
            .collect()
    }
}

/// Span-ring capacity of traced tenants: large enough that the benchmark
/// drains it long before it wraps.
pub const RING_CAPACITY: usize = 1 << 16;

// ---- oracles ---------------------------------------------------------------

/// Generated documents matching `filter` by `Filter::matches`, in order,
/// projected by `Projection::apply` when a projection is given.
pub fn oracle_find(docs: &[Json], filter: &str, projection: Option<&str>) -> Vec<Json> {
    let f = mongofind::Filter::parse_str(filter).expect("workload filter parses");
    let p = projection.map(|p| mongofind::Projection::parse_str(p).expect("projection parses"));
    docs.iter()
        .filter(|d| f.matches(d))
        .map(|d| match &p {
            Some(p) => p.apply(d),
            None => d.clone(),
        })
        .collect()
}

/// `Projection::apply` on each document.
pub fn oracle_project(docs: &[Json], projection: &str) -> Vec<Json> {
    let p = mongofind::Projection::parse_str(projection).expect("projection parses");
    docs.iter().map(|d| p.apply(d)).collect()
}

/// `jagg::reference::aggregate`, the value-based reference executor.
pub fn oracle_aggregate(docs: &[Json], pipeline: &str) -> Vec<Json> {
    let p = jagg::Pipeline::parse_str(pipeline).expect("workload pipeline parses");
    jagg::reference::aggregate(docs, &p)
}
