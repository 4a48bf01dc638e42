//! The serving benchmark: request text in, response text out, through
//! `jserve::Server::serve`.
//!
//! Three closed-loop workloads over `person_records(20_000, seed)` with
//! indexes on `id`, `name.first` and `age`:
//!
//! * `point_lookup` — one client, ≤5-document answers by id, so serving
//!   overhead and routing dominate;
//! * `analytic_scan` — one client, scan-routed finds and the S5/S6
//!   pipelines with responses of hundreds of KB;
//! * `ingest_mixed` — one writer appending and compacting on a fixed
//!   schedule, one reader finding by id and counting the inserts, taking
//!   turns on one thread.
//!
//! The untraced run reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports per-layer metrics from the benchmark's own spans
//! and the tenant span rings. Every response is checked against an oracle
//! that does not use the route under test.

pub mod api;
pub mod gen;
pub mod oracle;
pub mod stats;
pub mod trace;

use std::ops::Range;
use std::time::{Duration, Instant};

use api::{Counters, Failure, Req, Server};
use gen::{Class, Expect, Planned};
use oracle::{Checker, Oracle};
use stats::{median, push, quantile, Metric};
use trace::ClientTrace;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointLookup,
    AnalyticScan,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointLookup,
        Workload::AnalyticScan,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point_lookup",
            Workload::AnalyticScan => "analytic_scan",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings. [`Config::new`] gives the benchmark's size; tests
/// shrink `docs`, and every other load follows from it.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Seeds the request streams.
    pub seed: u64,
    /// Seeds the generated collection (defaults to `seed`).
    pub data_seed: u64,
    /// Length of the measured window (split in two halves, untraced and
    /// traced, when `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    /// Documents in the seed collection.
    pub docs: usize,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            data_seed: seed,
            seconds,
            trace,
            docs: 20_000,
            trace_out: None,
        }
    }

    /// Inserts sent in bursts over the window of a read-only workload.
    fn write_probe(&self) -> usize {
        (self.docs / 20).max(1)
    }

    /// Inserts in one ingest cycle: the collection grows by its seed size.
    fn ingest_inserts(&self) -> usize {
        self.docs.max(1)
    }

    /// The ingest writer compacts after this many inserts.
    fn compact_every(&self) -> usize {
        (self.docs / COMPACTIONS_PER_CYCLE).max(1)
    }
}

/// Set-ups per run, half before the measured window and half after it;
/// `setup_s` is their median. A set-up takes about a tenth of a second, so a
/// burst of host interference can cover one half but rarely both.
const SETUPS: usize = 16;

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Oracle mismatches and request errors, first ones only.
    pub problems: Vec<String>,
    /// One JSON object: environment, sample counts, p99s.
    pub diagnostics: String,
}

impl Report {
    pub fn result_line(&self) -> String {
        stats::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

// ---- one client ------------------------------------------------------------

const MAX_PROBLEMS: usize = 8;

/// What one client saw.
#[derive(Default)]
struct Tally {
    /// Successful requests' text-to-text latency by class, ms, in
    /// completion order.
    lat_ms: [Vec<f64>; 3],
    attempted: u64,
    failed: u64,
    shed: u64,
    mismatches: u64,
    problems: Vec<String>,
    /// Response text bytes of successful reads.
    read_bytes: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        for (a, b) in self.lat_ms.iter_mut().zip(o.lat_ms) {
            a.extend(b);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.shed += o.shed;
        self.mismatches += o.mismatches;
        self.read_bytes += o.read_bytes;
        for p in o.problems {
            self.note(p);
        }
    }

    fn note(&mut self, p: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(p);
        }
    }

    /// Drops the latency samples, keeping the counts.
    fn without_samples(mut self) -> Tally {
        self.lat_ms = Default::default();
        self
    }
}

/// A closed-loop client: sends one request, waits, checks, repeats.
struct Client {
    tally: Tally,
    trace: Option<ClientTrace>,
}

impl Client {
    fn new(trace: Option<ClientTrace>) -> Client {
        Client {
            tally: Tally::default(),
            trace,
        }
    }

    fn send(&mut self, server: &Server, planned: &Planned, checker: &mut Checker) {
        let class = gen::class_of(&planned.req);
        let (result, ms) = match &mut self.trace {
            None => {
                let t0 = Instant::now();
                let text = api::serve(server, class.tenant(), &planned.req)
                    .map(|resp| api::materialize(&resp));
                (text, t0.elapsed().as_secs_f64() * 1e3)
            }
            Some(tr) => tr.request(server, class, &planned.req),
        };
        self.tally.attempted += 1;
        match result {
            Ok(text) => {
                self.tally.lat_ms[class.index()].push(ms);
                if class != Class::Insert {
                    self.tally.read_bytes += text.len() as u64;
                }
                if let Err(e) = checker.check(planned, &text) {
                    self.tally.mismatches += 1;
                    self.tally.note(e);
                }
            }
            Err(f) => {
                self.tally.failed += 1;
                if matches!(f, Failure::Shed) {
                    self.tally.shed += 1;
                }
                self.tally.note(format!("{:?} failed: {f:?}", planned.req));
            }
        }
    }
}

// ---- set-up ----------------------------------------------------------------

/// One tenant per verb class.
const TENANTS: [&str; 3] = [
    Class::ALL[0].tenant(),
    Class::ALL[1].tenant(),
    Class::ALL[2].tenant(),
];

fn span_capacity(traced: bool) -> usize {
    if traced {
        api::RING_CAPACITY
    } else {
        0
    }
}

/// Generates the seed, parses it, builds the indexes and registers the
/// tenants, `n` times; returns the last and every set-up's seconds.
fn set_up(cfg: &Config, traced: bool, n: usize) -> (api::SeedData, api::Seed, Server, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let data = api::generate_seed(cfg.docs, cfg.data_seed);
        let seed = api::build_seed(&data.text);
        let server = api::build_server(&seed, &TENANTS, span_capacity(traced));
        times.push(t0.elapsed().as_secs_f64());
        last = Some((data, seed, server));
    }
    let (data, seed, server) = last.expect("at least one set-up");
    (data, seed, server, times)
}

// ---- phases ----------------------------------------------------------------

/// One measured phase (the whole untraced run, or one half of a traced
/// run).
#[derive(Default)]
struct Phase {
    tally: Tally,
    setup_s: Vec<f64>,
    /// Completions per second in each block of the run (whole decks, or
    /// groups of compaction intervals); `throughput_rps` is their
    /// `stats::cycle_median`.
    rates: Vec<f64>,
    /// Per class, the sample ranges of the blocks (empty: cut the samples
    /// evenly, see `stats::block_quantile`).
    blocks: [Vec<Range<usize>>; 3],
    /// Blocks per cycle of a run that repeats one (see
    /// `stats::cycle_median`).
    period: usize,
    /// The process's peak resident set when the measured work ended.
    peak_rss_mb: f64,
    /// Whether that peak covers the measured window only (the kernel let
    /// the peak be reset when it opened) or the whole process.
    rss_window: bool,
    /// Share of the host's CPU time stolen by other guests while the
    /// measured work ran, percent (interpretation only).
    steal_pct: f64,
    /// Seconds the measured window lasted.
    window_s: f64,
    counters: [Counters; 3],
    traces: Vec<ClientTrace>,
    compact_ms: Vec<f64>,
    compactions: u64,
    compactions_lost: u64,
    log_entries: usize,
    cycles: u64,
    pool: (usize, String),
    seed_bytes: usize,
    /// Untraced latencies by class measured beside a traced phase.
    baseline_ms: [Vec<f64>; 3],
}

/// Adds the work `server`'s tenants recorded since `since` to the phase.
fn add_counters(phase: &mut Phase, server: &Server, since: &[Counters; 3]) {
    for c in Class::ALL {
        phase.counters[c.index()] += api::counters(server, c.tenant()) - since[c.index()];
    }
}

fn counters_now(server: &Server) -> [Counters; 3] {
    Class::ALL.map(|c| api::counters(server, c.tenant()))
}

/// After a writer's inserts: the store's log and document count must match
/// what was acknowledged.
fn check_store(server: &Server, seed_docs: usize, acked: u64, tally: &mut Tally) {
    let (log, docs) = (api::log_len(server), api::doc_count(server));
    if log as u64 != acked || docs as u64 != seed_docs as u64 + acked {
        tally.mismatches += 1;
        tally.note(format!(
            "store holds log {log} / docs {docs} after {acked} acknowledged inserts on {seed_docs}"
        ));
    }
}

enum Stream {
    Lookup(gen::PointLookup),
    Analytic(gen::AnalyticScan),
}

impl Stream {
    fn next_planned(&mut self) -> Planned {
        match self {
            Stream::Lookup(s) => s.next_planned(),
            Stream::Analytic(s) => s.next_planned(),
        }
    }

    fn at_deck_start(&self) -> bool {
        match self {
            Stream::Lookup(s) => s.at_deck_start(),
            Stream::Analytic(s) => s.at_deck_start(),
        }
    }
}

fn inserts_planned(reqs: Vec<Req>) -> Vec<Planned> {
    reqs.into_iter()
        .map(|req| Planned {
            req,
            expect: Expect::Inserted,
        })
        .collect()
}

/// Requests per block when a traced window alternates between servers.
const PAIRED_BLOCK: u64 = 16;

/// `point_lookup` and `analytic_scan`: a warm-up, then the read window,
/// cut into up to [`stats::BLOCKS`] blocks of whole decks (the window
/// also ends at a deck start), so every block holds the mix in its exact
/// proportions and a block's quantiles differ from another's only by how
/// fast the requests ran.
///
/// The reads' server stays read-only. `write_probe()` inserts go to other
/// servers over the same seed in [`stats::BLOCKS`] bursts spaced evenly over
/// the window, a fresh server for each: they give the insert latency of a
/// barely fragmented collection without the reads ever seeing a write, in
/// rounds of the same shape.
fn read_only(cfg: &Config, seconds: f64, traced: bool, base: Instant) -> Phase {
    let (data, seed, server, setup_s) = set_up(cfg, traced, SETUPS / 2);
    let mut phase = Phase {
        setup_s,
        pool: api::pool(&server),
        seed_bytes: data.text.len(),
        cycles: 1,
        period: 1,
        ..Phase::default()
    };
    let pool = match cfg.workload {
        Workload::AnalyticScan => gen::analytic_pool(),
        _ => Vec::new(),
    };
    let mut tally = Tally::default();
    // The workload's premise: every analytic find takes the scan route.
    for req in &pool {
        if let Req::Find { filter } | Req::FindProject { filter, .. } = req {
            let route = api::route_of(&server, filter);
            if route != "scan" {
                tally.mismatches += 1;
                tally.note(format!("{filter} routes to {route}, not scan"));
            }
        }
    }
    let oracle = Oracle::new(data.docs, &pool);
    let mut stream = match cfg.workload {
        Workload::PointLookup => Stream::Lookup(gen::PointLookup::new(cfg.seed, cfg.docs)),
        _ => Stream::Analytic(gen::AnalyticScan::new(cfg.seed)),
    };
    let mut checker = Checker::new(&oracle);

    let mut warm = Client::new(None);
    let warm_until = Instant::now() + Duration::from_secs_f64((seconds * 0.05).min(0.5));
    while Instant::now() < warm_until || !stream.at_deck_start() {
        warm.send(&server, &stream.next_planned(), &mut checker);
    }
    tally.merge(warm.tally.without_samples());

    let inserts = inserts_planned(gen::storm_inserts(cfg.seed, cfg.write_probe(), cfg.docs));
    let round = inserts.len().div_ceil(stats::BLOCKS).max(1);
    let mut writes: Option<(Server, Checker)> = None;
    // Traced, the window alternates blocks of reads between the traced
    // server and an untraced twin over the same seed: the twin's latencies
    // are the paired baseline of `trace.overhead_pct`.
    let twin = traced.then(|| api::build_server(&seed, &TENANTS, 0));
    let mut twin_client = Client::new(None);
    let mut twin_checker = Checker::new(&oracle);

    let since = counters_now(&server);
    let mut trace = traced.then(|| ClientTrace::new(base, 0));
    if let Some(t) = &mut trace {
        t.bind(&server, &[Class::Find, Class::Aggregate]);
    }
    let mut client = Client::new(trace);
    // Sends insert `i`, starting a fresh server at each round.
    let mut insert = |client: &mut Client, i: usize, tally: &mut Tally| {
        if i.is_multiple_of(round) {
            if let Some((old, checker)) = writes.take() {
                check_store(&old, cfg.docs, checker.inserted, tally);
            }
            let fresh = api::build_server(&seed, &TENANTS, span_capacity(traced));
            if let Some(t) = &mut client.trace {
                t.bind(&fresh, &[Class::Insert]);
            }
            writes = Some((fresh, Checker::new(&oracle)));
        }
        let (server, checker) = writes.as_mut().expect("set above");
        client.send(server, &inserts[i], checker);
    };
    phase.rss_window = stats::reset_peak_rss();
    let cpu = stats::CpuTicks::now();
    let t0 = Instant::now();
    let spacing = seconds / inserts.len().div_ceil(round) as f64;
    let slice = seconds / stats::BLOCKS as f64;
    // Block boundaries: seconds since `t0`, and the read samples per class
    // taken by then.
    let mut cuts = vec![(0.0, [0; 3])];
    let mut inserted = 0;
    let mut n = 0u64;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if stream.at_deck_start() && elapsed >= cuts.len() as f64 * slice {
            cuts.push((elapsed, client.tally.lat_ms.each_ref().map(Vec::len)));
            if elapsed >= seconds {
                break;
            }
        }
        if inserted < inserts.len() && elapsed >= (inserted / round) as f64 * spacing {
            insert(&mut client, inserted, &mut tally);
            inserted += 1;
            continue;
        }
        let planned = stream.next_planned();
        match &twin {
            Some(twin) if (n / PAIRED_BLOCK) % 2 == 1 => {
                twin_client.send(twin, &planned, &mut twin_checker)
            }
            _ => client.send(&server, &planned, &mut checker),
        }
        n += 1;
    }
    phase.window_s = t0.elapsed().as_secs_f64();
    for b in cuts.windows(2) {
        let ((t_a, n_a), (t_b, n_b)) = (b[0], b[1]);
        let mut completed = 0;
        for c in [Class::Find, Class::Aggregate] {
            phase.blocks[c.index()].push(n_a[c.index()]..n_b[c.index()]);
            completed += n_b[c.index()] - n_a[c.index()];
        }
        phase.rates.push(completed as f64 / (t_b - t_a));
    }
    for i in inserted..inserts.len() {
        insert(&mut client, i, &mut tally);
    }
    if let Some((last, checker)) = writes {
        check_store(&last, cfg.docs, checker.inserted, &mut tally);
        phase.log_entries = api::log_len(&last);
    }
    phase.peak_rss_mb = stats::peak_rss_mb();
    phase.steal_pct = cpu.steal_pct_since();
    phase.setup_s.extend(set_up(cfg, traced, SETUPS / 2).3);
    add_counters(&mut phase, &server, &since);
    phase.baseline_ms = std::mem::take(&mut twin_client.tally.lat_ms);
    tally.merge(twin_client.tally.without_samples());
    tally.merge(client.tally);
    phase.tally = tally;
    if let Some(mut t) = client.trace {
        t.drain_all();
        phase.traces.push(t);
    }
    phase
}

/// Nominal seconds of one ingest cycle on the reference machine (2 CPUs).
const INGEST_CYCLE_S: f64 = 8.5;

/// Writer cycles in a window of `seconds`: a fixed count, so every run
/// does the same work and ends in the same state.
fn ingest_cycles(seconds: f64) -> usize {
    ((seconds / INGEST_CYCLE_S).round() as usize).max(1)
}

/// Compactions in one ingest cycle.
const COMPACTIONS_PER_CYCLE: usize = 40;

/// Reader requests (two decks of three finds and a count) the writer's
/// thread sends, spaced evenly, in each compaction interval.
const READS_PER_COMPACTION: usize = 8;

/// Blocks of the reported medians in one ingest cycle. Each spans the same
/// number of compaction intervals, but the collection grows over the cycle
/// and with it the cost of a count, so blocks are compared with the blocks
/// at the same position of the other cycles (`stats::cycle_median`).
const BLOCKS_PER_CYCLE: usize = 10;

/// `ingest_mixed`: [`ingest_cycles`] repetitions of one fixed sequence,
/// each on a fresh server over the same seed. The writer and the reader are
/// two clients that take turns on one thread: after every few inserts the
/// reader sends its next request, so every cycle interleaves the same
/// requests in the same order, and the two never compete for a CPU with
/// each other. Each cycle is cut into [`BLOCKS_PER_CYCLE`] blocks at
/// compactions.
///
/// Traced, cycles alternate traced and untraced in the order T U U T, so
/// the untraced cycles are the baseline of `trace.overhead_pct` and a
/// drift over the run cancels.
fn ingest(cfg: &Config, seconds: f64, traced: bool, base: Instant) -> Phase {
    let (data, seed, first, setup_s) = set_up(cfg, traced, SETUPS / 2);
    let mut phase = Phase {
        setup_s,
        pool: api::pool(&first),
        seed_bytes: data.text.len(),
        period: BLOCKS_PER_CYCLE,
        ..Phase::default()
    };
    let oracle = Oracle::new(data.docs, &[]);
    let writes = inserts_planned(gen::storm_inserts(cfg.seed, cfg.ingest_inserts(), cfg.docs));
    // (writer, reader) for untraced and for traced cycles.
    let mut pairs = [
        (Client::new(None), Client::new(None)),
        (
            Client::new(traced.then(|| ClientTrace::new(base, 1))),
            Client::new(traced.then(|| ClientTrace::new(base, 2))),
        ),
    ];
    let mut tally = Tally::default();
    let mut next = Some(first);
    phase.rss_window = stats::reset_peak_rss();
    let cpu = stats::CpuTicks::now();
    let t_all = Instant::now();
    for cycle in 0..ingest_cycles(seconds) {
        let traced_cycle = traced && matches!(cycle % 4, 0 | 3);
        let server = next
            .take()
            .unwrap_or_else(|| api::build_server(&seed, &TENANTS, span_capacity(traced_cycle)));
        let (writer, reader) = &mut pairs[usize::from(traced_cycle)];
        if let Some(t) = &mut writer.trace {
            t.bind(&server, &[Class::Insert]);
        }
        if let Some(t) = &mut reader.trace {
            t.bind(&server, &[Class::Find, Class::Aggregate]);
        }
        let mut reads = gen::IngestReader::new(cfg.seed, cfg.docs);
        let mut w_check = Checker::new(&oracle);
        let mut r_check = Checker::new(&oracle);
        let mut compact_ms = Vec::new();
        let mut lost = 0;
        // Block boundaries: seconds since `t_all`, and the samples per
        // class taken by then.
        let samples = |w: &Client, r: &Client| {
            Class::ALL.map(|c| {
                let client = if c == Class::Insert { w } else { r };
                client.tally.lat_ms[c.index()].len()
            })
        };
        let mut cuts = vec![(t_all.elapsed().as_secs_f64(), samples(writer, reader))];
        for (i, p) in writes.iter().enumerate() {
            writer.send(&server, p, &mut w_check);
            if (i + 1) * READS_PER_COMPACTION / cfg.compact_every()
                != i * READS_PER_COMPACTION / cfg.compact_every()
            {
                reader.send(&server, &reads.next_planned(), &mut r_check);
            }
            if (i + 1) % cfg.compact_every() == 0 {
                let t = Instant::now();
                let won = match &mut writer.trace {
                    Some(tr) => tr.background("compact", || api::compact(&server)),
                    None => api::compact(&server),
                };
                compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
                lost += u64::from(!won);
                if compact_ms.len() % (COMPACTIONS_PER_CYCLE / BLOCKS_PER_CYCLE) == 0
                    && cuts.len() <= BLOCKS_PER_CYCLE
                {
                    cuts.push((t_all.elapsed().as_secs_f64(), samples(writer, reader)));
                }
            }
        }
        if !traced {
            for b in cuts.windows(2) {
                let ((t_a, n_a), (t_b, n_b)) = (b[0], b[1]);
                for c in Class::ALL {
                    phase.blocks[c.index()].push(n_a[c.index()]..n_b[c.index()]);
                }
                let completed: usize = n_b.iter().sum::<usize>() - n_a.iter().sum::<usize>();
                phase.rates.push(completed as f64 / (t_b - t_a));
            }
        }
        check_store(&server, cfg.docs, w_check.inserted, &mut tally);
        phase.cycles += 1;
        if traced_cycle == traced {
            phase.compactions += compact_ms.len() as u64 - lost;
            phase.compactions_lost += lost;
            phase.compact_ms.extend(compact_ms);
            phase.log_entries = phase.log_entries.max(api::log_len(&server));
            add_counters(&mut phase, &server, &Default::default());
        }
    }
    let [(uw, ur), (tw, tr)] = pairs;
    let (baseline, measured) = if traced {
        ([uw, ur], [tw, tr])
    } else {
        ([tw, tr], [uw, ur])
    };
    for c in baseline {
        for (b, lat) in phase.baseline_ms.iter_mut().zip(&c.tally.lat_ms) {
            b.extend(lat);
        }
        tally.merge(c.tally.without_samples());
    }
    for mut c in measured {
        if let Some(mut t) = c.trace.take() {
            t.drain_all();
            phase.traces.push(t);
        }
        tally.merge(c.tally);
    }
    phase.window_s = t_all.elapsed().as_secs_f64();
    phase.tally = tally;
    phase.peak_rss_mb = stats::peak_rss_mb();
    phase.steal_pct = cpu.steal_pct_since();
    phase.setup_s.extend(set_up(cfg, traced, SETUPS / 2).3);
    phase
}

// ---- reporting -------------------------------------------------------------

fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let mut m = Vec::new();
    push(
        &mut m,
        "throughput_rps",
        stats::cycle_median(&phase.rates, phase.period).unwrap_or(0.0),
        "1/s",
    );
    for c in Class::ALL {
        let lat = &phase.tally.lat_ms[c.index()];
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            let name = format!("{}_{tag}_ms", c.name());
            let v = stats::block_quantile(lat, &phase.blocks[c.index()], phase.period, q);
            push(&mut m, &name, v.unwrap_or(0.0), "ms");
        }
    }
    push(
        &mut m,
        "setup_s",
        median(&phase.setup_s).unwrap_or(0.0),
        "s",
    );
    push(&mut m, "peak_rss_mb", phase.peak_rss_mb, "MB");
    m
}

fn per_req(n: u64, reqs: usize) -> f64 {
    n as f64 / reqs.max(1) as f64
}

/// The per-layer metrics of a traced phase. Work counters come from the
/// tenant sinks (one tenant per verb class), times from the benchmark's
/// spans and the merged span rings.
fn per_layer(traced: &Phase, a: &trace::Analysis) -> Vec<Metric> {
    let t = &traced.tally;
    let n = |c: Class| t.lat_ms[c.index()].len();
    let (finds, aggs) = (n(Class::Find), n(Class::Aggregate));
    let reads = finds + aggs;
    let find = traced.counters[Class::Find.index()];
    let agg = traced.counters[Class::Aggregate.index()];
    let mut rd = find;
    rd += agg;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let segments_max = traced.traces.iter().map(|c| c.segments_max).max();
    // Traced against untraced: text-to-text medians per class, weighted
    // by the traced request counts.
    let (mut on, mut off) = (0.0, 0.0);
    for c in Class::ALL {
        let (tr, un) = (
            &a.text_to_text_ms[c.index()],
            &traced.baseline_ms[c.index()],
        );
        if let (Some(x), Some(y)) = (median(tr), median(un)) {
            on += x * tr.len() as f64;
            off += y * tr.len() as f64;
        }
    }
    let overhead_pct = if off > 0.0 {
        (on / off - 1.0) * 100.0
    } else {
        0.0
    };
    let rows: [(&str, f64, &'static str); 34] = [
        ("jserve.serve_us", med(&a.serve_us), "us"),
        ("jserve.serve_self_us", med(&a.serve_self_us), "us"),
        ("jserve.admission.shed", t.shed as f64, "count"),
        ("jserve.store.snapshot_us", med(a.layer("snapshot")), "us"),
        (
            "jserve.store.segments_max",
            segments_max.unwrap_or(0) as f64,
            "count",
        ),
        (
            "jserve.store.log_entries",
            traced.log_entries as f64,
            "count",
        ),
        ("jserve.store.compact_ms", med(&traced.compact_ms), "ms"),
        (
            "jserve.store.compactions",
            traced.compactions as f64,
            "count",
        ),
        (
            "jserve.store.compactions_lost",
            traced.compactions_lost as f64,
            "count",
        ),
        (
            "mongofind.filter_parse_us",
            med(a.layer("filter_parse")),
            "us",
        ),
        ("mongofind.plan_us", med(&a.plan_us), "us"),
        ("mongofind.probe_us", med(&a.probe_us), "us"),
        (
            "mongofind.docs_scanned_per_req",
            per_req(find.docs_scanned, finds),
            "count",
        ),
        (
            "mongofind.index_probes_per_req",
            per_req(find.index_probes, finds),
            "count",
        ),
        (
            "mongofind.rows_emitted_per_req",
            per_req(find.rows_emitted, finds),
            "count",
        ),
        (
            "mongofind.rows_per_doc_scanned",
            ratio(find.rows_emitted, find.docs_scanned),
            "ratio",
        ),
        (
            "mongofind.collection_clone_us",
            med(a.layer("collection_clone")),
            "us",
        ),
        (
            "jnl.segments_visited_per_req",
            per_req(rd.segments_visited, reads),
            "count",
        ),
        (
            "jnl.dfa_bitset_builds_per_req",
            per_req(rd.dfa_bitset_builds, reads),
            "count",
        ),
        (
            "jagg.pipeline_parse_us",
            med(a.layer("pipeline_parse")),
            "us",
        ),
        ("jagg.stage_us", med(&a.stage_us), "us"),
        (
            "jagg.canon_builds_per_req",
            per_req(agg.canon_builds, aggs),
            "count",
        ),
        (
            "jagg.index_probes_per_req",
            per_req(agg.index_probes, aggs),
            "count",
        ),
        (
            "jagg.docs_scanned_per_req",
            per_req(agg.docs_scanned, aggs),
            "count",
        ),
        ("jpar.chunk_us", med(&a.chunk_us), "us"),
        (
            "jpar.chunks_per_req",
            per_req(rd.chunks_dispatched, reads),
            "count",
        ),
        (
            "jpar.steal_ratio",
            ratio(rd.chunks_stolen, rd.chunks_dispatched),
            "ratio",
        ),
        ("jguard.polls_per_req", per_req(rd.polls, reads), "count"),
        ("jsondata.serialize_us", med(a.layer("materialize")), "us"),
        (
            "jsondata.response_kb",
            t.read_bytes as f64 / 1024.0 / reads.max(1) as f64,
            "KB",
        ),
        (
            "jsondata.insert_parse_us",
            med(a.layer("insert_parse")),
            "us",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
        (
            "trace.unattributed_pct",
            ratio(a.unattributed_ns, a.serve_ns) * 100.0,
            "%",
        ),
        ("trace.spans_dropped", a.spans_dropped as f64, "count"),
    ];
    let mut m = Vec::new();
    for (name, value, unit) in rows {
        push(&mut m, name, value, unit);
    }
    m
}

/// The `HEAD` commit of the checkout, read from `.git` without running
/// git; `"unknown"` outside a git work tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_owned())
        }),
        None => Some(head),
    };
    rev.map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn diagnostics(cfg: &Config, phase: &Phase, clients: usize) -> String {
    let t = &phase.tally;
    let hw = std::thread::available_parallelism().map_or(0, usize::from);
    let mut classes = Vec::new();
    for c in Class::ALL {
        let lat = &t.lat_ms[c.index()];
        classes.push(format!(
            "\"{}\": {{\"samples\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}}}",
            c.name(),
            lat.len(),
            stats::num(quantile(lat, 0.5).unwrap_or(0.0)),
            stats::num(quantile(lat, 0.9).unwrap_or(0.0)),
            stats::num(quantile(lat, 0.99).unwrap_or(0.0)),
        ));
    }
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"env\": {{\"available_parallelism\": {hw}, \
         \"client_threads\": {clients}, \"jpar_threads\": {}, \"jpar_dispatch\": \"{}\", \
         \"seed\": {}, \"data_seed\": {}, \"seed_docs\": {}, \"seed_bytes\": {}, \"git_rev\": \"{}\"}}, \
         \"window_s\": {}, \"cycles\": {}, \"setups\": {}, \"rss_window_only\": {}, \
         \"host_steal_pct\": {}, \
         \"failed_frac\": {}, \"shed\": {}, \"mismatches\": {}, \"classes\": {{{}}}}}",
        cfg.workload.name(),
        cfg.trace,
        phase.pool.0,
        phase.pool.1,
        cfg.seed,
        cfg.data_seed,
        cfg.docs,
        phase.seed_bytes,
        git_rev(),
        stats::num(phase.window_s),
        phase.cycles,
        phase.setup_s.len(),
        phase.rss_window,
        stats::num(phase.steal_pct),
        stats::num(t.failed as f64 / t.attempted.max(1) as f64),
        t.shed,
        t.mismatches,
        classes.join(", ")
    )
}

/// Runs one workload and reports: end-to-end metrics untraced, per-layer
/// metrics with `cfg.trace`, where part of the window runs untraced as the
/// baseline of `trace.overhead_pct`.
pub fn run(cfg: &Config) -> Report {
    let base = Instant::now();
    // Every workload's clients take turns on this thread.
    let clients = 1;
    let mut phase = match cfg.workload {
        Workload::IngestMixed => ingest(cfg, cfg.seconds, cfg.trace, base),
        _ => read_only(cfg, cfg.seconds, cfg.trace, base),
    };
    let metrics = if cfg.trace {
        let a = trace::analyze(&phase.traces);
        // Per-layer figures built from partial rings would be wrong.
        if a.spans_dropped > 0 {
            phase.tally.mismatches += 1;
            let dropped = a.spans_dropped;
            phase
                .tally
                .note(format!("{dropped} spans dropped from the rings"));
        }
        per_layer(&phase, &a)
    } else {
        end_to_end(&phase)
    };
    let diagnostics = diagnostics(cfg, &phase, clients);
    if let Some(path) = &cfg.trace_out {
        if cfg.trace {
            let text = trace::chrome_trace(&phase.traces, 400, &diagnostics);
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, text) {
                phase
                    .tally
                    .note(format!("could not write {}: {e}", path.display()));
            }
        }
    }
    let t = phase.tally;
    Report {
        correct: t.mismatches == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        problems: t.problems,
        diagnostics,
    }
}
