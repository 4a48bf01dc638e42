//! The benchmark's own tests: every declared metric is emitted, requests
//! are a pure function of the seed, and every oracle is live.

use perfbench::api::{self, Req};
use perfbench::gen::{self, Expect, Planned};
use perfbench::oracle::{Checker, Oracle};
use perfbench::{Config, Workload};

/// A run small enough for a test: a few hundred documents and a fraction
/// of a second.
fn tiny(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.4, trace);
    cfg.docs = 300;
    cfg
}

/// The `field` strings of the objects listed under `section` in
/// `BENCHMARK.json`, in order. A text scan: the file holds fractional
/// bounds, which the workspace's JSON parser (the paper's integer
/// fragment) rejects.
fn declared(section: &str, field: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let key = format!("\"{field}\": \"");
    body.match_indices(&key)
        .map(|(i, _)| {
            let v = &body[i + key.len()..];
            v[..v.find('"').expect("string closes")].to_owned()
        })
        .collect()
}

#[test]
fn declared_workloads_are_the_implemented_ones() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads", "name"), names);
}

#[test]
fn smoke_run_of_each_workload_emits_every_declared_metric() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = perfbench::run(&tiny(workload, trace));
            let what = format!("{} trace={trace}", workload.name());
            assert!(report.correct, "{what}: {:?}", report.problems);
            assert_eq!(report.failed, 0, "{what}: {:?}", report.problems);
            assert!(report.attempted > 0, "{what}");
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            let want: Vec<(String, String)> = declared(section, "name")
                .into_iter()
                .zip(declared(section, "unit"))
                .collect();
            assert_eq!(emitted, want, "{what}");
            let line = report.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn same_seed_same_requests() {
    fn lookup(seed: u64) -> Vec<Planned> {
        let mut g = gen::PointLookup::new(seed, 20_000);
        (0..200).map(|_| g.next_planned()).collect()
    }
    fn analytic(seed: u64) -> Vec<Planned> {
        let mut g = gen::AnalyticScan::new(seed);
        (0..200).map(|_| g.next_planned()).collect()
    }
    fn ingest(seed: u64) -> (Vec<Planned>, Vec<Req>) {
        let mut g = gen::IngestReader::new(seed, 20_000);
        (
            (0..200).map(|_| g.next_planned()).collect(),
            gen::storm_inserts(seed, 200, 20_000),
        )
    }
    assert_eq!(lookup(3), lookup(3));
    assert_ne!(lookup(3), lookup(4));
    assert_eq!(analytic(3), analytic(3));
    assert_ne!(analytic(3), analytic(4));
    assert_eq!(ingest(3), ingest(3));
    assert_ne!(ingest(3), ingest(4));
}

#[test]
fn point_lookup_mix_matches_its_deck() {
    let mut g = gen::PointLookup::new(1, 20_000);
    let (mut find, mut project, mut any_in, mut agg) = (0, 0, 0, 0);
    for _ in 0..2_000 {
        match g.next_planned().req {
            Req::Find { filter } if filter.contains("$in") => any_in += 1,
            Req::Find { .. } => find += 1,
            Req::FindProject { .. } => project += 1,
            Req::Aggregate { .. } => agg += 1,
            Req::Insert { .. } => unreachable!("point_lookup is read-only"),
        }
    }
    assert_eq!((find, project, any_in, agg), (1_400, 300, 200, 100));
}

/// Serves `planned` on a fresh server over `data` and returns the response
/// text.
fn served(server: &api::Server, planned: &Planned) -> String {
    let class = gen::class_of(&planned.req);
    let resp = api::serve(server, class.tenant(), &planned.req).expect("request succeeds");
    api::materialize(&resp)
}

/// A response of the same shape with wrong content: one letter or digit of
/// the documents changed, or a document added to an empty answer.
fn corrupt(text: &str) -> String {
    let at = text.find("\"docs\":").expect("a read response") + 7;
    let mut out = text.to_owned();
    match text[at..].find(|c: char| c.is_ascii_alphanumeric()) {
        Some(i) => {
            let c = text.as_bytes()[at + i];
            let swapped = match c {
                b'9' => '8',
                b'z' | b'Z' => 'a',
                _ => (c + 1) as char,
            };
            out.replace_range(at + i..=at + i, &swapped.to_string());
        }
        None => out.insert_str(at + 1, "{}"),
    }
    out
}

#[test]
fn every_oracle_rejects_a_corrupted_response() {
    let data = api::generate_seed(300, 5);
    let server = api::build_server(
        &api::build_seed(&data.text),
        &["find", "aggregate", "insert"],
        0,
    );
    let pool = gen::analytic_pool();
    let oracle = Oracle::new(data.docs, &pool);

    let mut reads: Vec<Planned> = Vec::new();
    let mut lookups = gen::PointLookup::new(9, 300);
    reads.extend((0..40).map(|_| lookups.next_planned()));
    reads.extend((0..pool.len()).map(|i| Planned {
        req: pool[i].clone(),
        expect: Expect::Pool(i),
    }));
    for planned in &reads {
        let text = served(&server, planned);
        let mut checker = Checker::new(&oracle);
        checker
            .check(planned, &text)
            .expect("the served answer is correct");
        let bad = corrupt(&text);
        let mut checker = Checker::new(&oracle);
        assert!(
            checker.check(planned, &bad).is_err(),
            "{planned:?} accepted {bad}"
        );
        let mut checker = Checker::new(&oracle);
        assert!(
            checker.check(planned, "{\"epoch\":0}").is_err(),
            "{planned:?}"
        );
    }

    // ingest_mixed: the count must equal the epoch, insert epochs must
    // advance, reads must not go back in time.
    let count = Planned {
        req: Req::Aggregate {
            pipeline: gen::STORM_COUNT.to_owned(),
        },
        expect: Expect::CountAtEpoch,
    };
    let insert = Planned {
        req: gen::storm_inserts(5, 1, 300).remove(0),
        expect: Expect::Inserted,
    };
    let mut checker = Checker::new(&oracle);
    checker
        .check(&count, &served(&server, &count))
        .expect("count at epoch 0");
    let ack = served(&server, &insert);
    checker.check(&insert, &ack).expect("first insert");
    assert!(
        checker.check(&insert, &ack).is_err(),
        "a repeated epoch is rejected"
    );
    let text = served(&server, &count);
    checker.check(&count, &text).expect("count at epoch 1");
    assert!(checker.check(&count, &corrupt(&text)).is_err());
    assert!(
        checker.check(&count, "{\"epoch\":0,\"docs\":[]}").is_err(),
        "a read going back in time is rejected"
    );
}
