//! The traced run: the benchmark's own spans around each call into the
//! program, merged with the tenant span rings (plan, probe, stage, chunk).
//!
//! Spans live in memory and are written out once, at the end, as a Chrome
//! trace. A request's ring events are the ones recorded between the ring's
//! sequence number before and after its `serve` call: each tenant has one
//! client, and every pool worker has quiesced when `serve` returns.

use std::fmt::Write as _;
use std::time::Instant;

use crate::api::{self, Failure, Req, RingEvent, Server};
use crate::gen::Class;

/// One benchmark span: `request` is the root of each request, and
/// `serve`, `materialize` and the timed layer calls are its children.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the analysis needs of one traced request.
#[derive(Clone, Debug)]
pub struct ReqTrace {
    pub id: u64,
    pub class: Class,
    /// Index into [`ClientTrace::rings`].
    ring: usize,
    pub serve: (u64, u64),
    /// Ring sequence numbers before and after `serve`.
    seq: (u64, u64),
    /// Request text to response text (`serve` plus `materialize`), ns.
    pub text_to_text_ns: u64,
}

struct TenantRing {
    ring: api::Ring,
    drained: u64,
    events: Vec<RingEvent>,
}

impl TenantRing {
    fn drain(&mut self) {
        let upto = self.ring.recorded();
        self.events.extend(self.ring.events_after(self.drained));
        self.drained = upto;
    }
}

/// One client's trace: its spans, its requests, and the rings of
/// the tenants it sends to (one set per server it has used).
pub struct ClientTrace {
    base: Instant,
    client: u64,
    pub spans: Vec<Span>,
    pub requests: Vec<ReqTrace>,
    rings: Vec<TenantRing>,
    /// `(class, index into rings)` for the server currently in use.
    active: Vec<(Class, usize)>,
    pub segments_max: usize,
    next_id: u64,
}

impl ClientTrace {
    /// `client` numbers the client; request ids are unique across clients.
    pub fn new(base: Instant, client: u64) -> ClientTrace {
        ClientTrace {
            base,
            client,
            spans: Vec::new(),
            requests: Vec::new(),
            rings: Vec::new(),
            active: Vec::new(),
            segments_max: 0,
            next_id: client << 48,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Sends `classes` to `server` from now on; their tenants there carry
    /// span rings.
    pub fn bind(&mut self, server: &Server, classes: &[Class]) {
        self.drain_all();
        self.active.retain(|(c, _)| !classes.contains(c));
        for &c in classes {
            let ring = api::ring(server, c.tenant()).expect("traced tenants carry a span ring");
            self.rings.push(TenantRing {
                drained: ring.recorded(),
                ring,
                events: Vec::new(),
            });
            self.active.push((c, self.rings.len() - 1));
        }
    }

    /// Pulls every surviving ring event into memory.
    pub fn drain_all(&mut self) {
        for r in &mut self.rings {
            r.drain();
        }
    }

    fn timed<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Serves one request under spans and times the layer calls it implies
    /// from outside. Returns the response text and its text-to-text time.
    pub fn request(
        &mut self,
        server: &Server,
        class: Class,
        req: &Req,
    ) -> (Result<String, Failure>, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let ring = self
            .active
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, r)| r)
            .expect("request class bound to a ring");
        let t_req = self.now();
        let s0 = self.rings[ring].ring.recorded();
        let t0 = self.now();
        let served = api::serve(server, class.tenant(), req);
        let t1 = self.now();
        let s1 = self.rings[ring].ring.recorded();
        let text = served.map(|resp| api::materialize(&resp));
        let t2 = self.now();
        match req {
            Req::Find { filter } => {
                self.timed(id, "filter_parse", || api::parse_find(filter, None))
            }
            Req::FindProject { filter, projection } => self.timed(id, "filter_parse", || {
                api::parse_find(filter, Some(projection))
            }),
            Req::Aggregate { pipeline } => {
                self.timed(id, "pipeline_parse", || api::parse_pipeline(pipeline))
            }
            Req::Insert { doc } => {
                self.timed(id, "insert_parse", || api::parse_insert(doc));
                self.timed(id, "collection_clone", || api::clone_collection(server));
            }
        }
        let (_, segments) = self.timed(id, "snapshot", || api::snapshot(server));
        self.segments_max = self.segments_max.max(segments);
        let t_end = self.now();
        for (name, start_ns, end_ns) in [
            ("request", t_req, t_end),
            ("serve", t0, t1),
            ("materialize", t1, t2),
        ] {
            self.spans.push(Span {
                req: id,
                name,
                start_ns,
                end_ns,
            });
        }
        self.requests.push(ReqTrace {
            id,
            class,
            ring,
            serve: (t0, t1),
            seq: (s0, s1),
            text_to_text_ns: t2 - t0,
        });
        let r = &mut self.rings[ring];
        if r.ring.recorded() - r.drained > (api::RING_CAPACITY / 2) as u64 {
            r.drain();
        }
        (text, (t2 - t0) as f64 / 1e6)
    }

    /// Records a span that belongs to no request (compaction).
    pub fn background<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = u64::MAX - self.client;
        self.timed(id, name, f)
    }
}

/// An engine span decoded from a ring: kind, lane, and its interval on the
/// ring's clock.
#[derive(Clone, Copy, Debug)]
struct Interval {
    kind: &'static str,
    arg: u32,
    lane: u16,
    start: u64,
    end: u64,
}

/// Pairs opens with closes per lane; unpaired events are returned as
/// dropped.
fn pair(events: &[RingEvent]) -> (Vec<Interval>, u64) {
    let mut stacks: Vec<(u16, Vec<RingEvent>)> = Vec::new();
    let mut out = Vec::new();
    let mut unpaired = 0;
    for e in events {
        let stack = match stacks.iter().position(|(l, _)| *l == e.lane) {
            Some(i) => &mut stacks[i].1,
            None => {
                stacks.push((e.lane, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        if e.open {
            stack.push(*e);
        } else {
            match stack.pop() {
                Some(o) if o.kind == e.kind && o.arg == e.arg => out.push(Interval {
                    kind: e.kind,
                    arg: e.arg,
                    lane: e.lane,
                    start: o.ts_ns,
                    end: e.ts_ns,
                }),
                _ => unpaired += 1,
            }
        }
    }
    unpaired += stacks.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
    (out, unpaired)
}

/// Length of the union of intervals.
fn covered(intervals: &[Interval]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals.iter().map(|i| (i.start, i.end)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-request layer times and trace health, merged over every client.
#[derive(Default, Debug)]
pub struct Analysis {
    /// Per read request, µs.
    pub serve_us: Vec<f64>,
    pub serve_self_us: Vec<f64>,
    /// Σ serve time and Σ serve time under no engine span over reads, ns.
    pub serve_ns: u64,
    pub unattributed_ns: u64,
    /// Per request that has such spans, µs.
    pub plan_us: Vec<f64>,
    pub probe_us: Vec<f64>,
    pub stage_us: Vec<f64>,
    /// Per chunk, µs.
    pub chunk_us: Vec<f64>,
    /// Ring events recorded inside requests but never collected.
    pub spans_dropped: u64,
    /// Text-to-text time per request, by class, ms.
    pub text_to_text_ms: [Vec<f64>; 3],
    /// The benchmark's timed layer calls by span name, µs (`snapshot` and
    /// `materialize` of reads only).
    pub layer_us: Vec<(&'static str, Vec<f64>)>,
}

impl Analysis {
    pub fn layer(&self, name: &str) -> &[f64] {
        self.layer_us
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    fn push_layer(&mut self, name: &'static str, us: f64) {
        match self.layer_us.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(us),
            None => self.layer_us.push((name, vec![us])),
        }
    }
}

/// Merges every client's spans with its rings and derives the layer
/// times. Call after [`ClientTrace::drain_all`].
pub fn analyze(clients: &[ClientTrace]) -> Analysis {
    let mut a = Analysis::default();
    for c in clients {
        let reads: std::collections::HashSet<u64> = c
            .requests
            .iter()
            .filter(|r| r.class != Class::Insert)
            .map(|r| r.id)
            .collect();
        for s in &c.spans {
            let name = match s.name {
                "request" | "serve" | "compact" => continue,
                "snapshot" | "materialize" if !reads.contains(&s.req) => continue,
                n => n,
            };
            a.push_layer(name, s.dur_ns() as f64 / 1e3);
        }
        for r in &c.requests {
            let events = &c.rings[r.ring].events;
            let lo = events.partition_point(|e| e.seq <= r.seq.0);
            let hi = events.partition_point(|e| e.seq <= r.seq.1);
            let mine = &events[lo..hi];
            let (iv, unpaired) = pair(mine);
            a.spans_dropped += (r.seq.1 - r.seq.0) - mine.len() as u64 + unpaired;
            a.text_to_text_ms[r.class.index()].push(r.text_to_text_ns as f64 / 1e6);
            if r.class != Class::Insert {
                let serve_ns = r.serve.1 - r.serve.0;
                let self_ns = serve_ns.saturating_sub(covered(&iv));
                a.serve_us.push(serve_ns as f64 / 1e3);
                a.serve_self_us.push(self_ns as f64 / 1e3);
                a.serve_ns += serve_ns;
                a.unattributed_ns += self_ns;
            }
            let sum = |k: &str| -> Option<f64> {
                let v: Vec<&Interval> = iv.iter().filter(|i| i.kind == k).collect();
                (!v.is_empty())
                    .then(|| v.iter().map(|i| (i.end - i.start) as f64).sum::<f64>() / 1e3)
            };
            a.plan_us.extend(sum("plan"));
            a.probe_us.extend(sum("probe"));
            if r.class == Class::Aggregate {
                a.stage_us.extend(sum("stage"));
            }
            a.chunk_us.extend(
                iv.iter()
                    .filter(|i| i.kind == "chunk")
                    .map(|i| (i.end - i.start) as f64 / 1e3),
            );
        }
    }
    a
}

/// Renders the first `max_requests` requests of each client (benchmark
/// spans plus their engine spans) as Chrome-trace JSON. Ring timestamps
/// are moved onto the benchmark clock by the offset that places every
/// request's engine spans inside its `serve` span. `run` (a JSON object:
/// environment and sample counts) is stored beside the events.
pub fn chrome_trace(clients: &[ClientTrace], max_requests: usize, run: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String,
                    name: &str,
                    tid: u64,
                    start_ns: u64,
                    dur_ns: u64,
                    req: u64| {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{req}}}}}",
            start_ns as f64 / 1e3,
            dur_ns as f64 / 1e3
        );
    };
    for c in clients {
        let shown: Vec<&ReqTrace> = c.requests.iter().take(max_requests).collect();
        let Some(last) = shown.last() else { continue };
        let last_id = last.id;
        for s in c
            .spans
            .iter()
            .filter(|s| s.req <= last_id || s.req > u64::MAX / 2)
        {
            emit(&mut out, s.name, c.client, s.start_ns, s.dur_ns(), s.req);
        }
        let mut per_req = Vec::new();
        let (mut lo, mut hi) = (i128::MIN, i128::MAX);
        for r in &shown {
            let events = &c.rings[r.ring].events;
            let a = events.partition_point(|e| e.seq <= r.seq.0);
            let b = events.partition_point(|e| e.seq <= r.seq.1);
            let (iv, _) = pair(&events[a..b]);
            if let (Some(s), Some(e)) = (
                iv.iter().map(|i| i.start).min(),
                iv.iter().map(|i| i.end).max(),
            ) {
                lo = lo.max(r.serve.0 as i128 - s as i128);
                hi = hi.min(r.serve.1 as i128 - e as i128);
            }
            per_req.push((r.id, iv));
        }
        let offset = if lo <= hi { (lo + hi) / 2 } else { lo.max(0) };
        for (req, iv) in per_req {
            for i in iv {
                let start = (i.start as i128 + offset).max(0) as u64;
                let name = format!("{} {}", i.kind, i.arg);
                emit(
                    &mut out,
                    &name,
                    100 + c.client * 100 + u64::from(i.lane),
                    start,
                    i.end - i.start,
                    req,
                );
            }
        }
    }
    let _ = write!(out, "],\"run\":{run}}}");
    out
}
