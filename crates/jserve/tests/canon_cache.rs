//! The canonical-label cache, observed through a tenant's metrics sink:
//! each segment tree builds its `CanonTable` once, and `canon_builds`
//! counts only tables actually built.

use jserve::{AdmissionConfig, Request, Server, TenantSpec};
use jtrace::Counter;
use mongofind::Collection;

/// A JNL-routed `$match` (exact fragment, no index declared) and a
/// `$group` whose keys are classed by the canonical labels.
const PIPELINES: [&str; 2] = [
    r#"[{"$match": {"name.last": "Kim"}}, {"$count": "n"}]"#,
    r#"[{"$group": {"_id": "$name.last", "n": {"$count": {}}}}]"#,
];

/// Runs both pipelines and returns the `canon_builds` they recorded.
fn canon_builds(server: &Server) -> u64 {
    let sink = server.tenant_metrics("t").unwrap();
    let before = sink.get(Counter::CanonBuilds);
    for p in PIPELINES {
        let req = Request::Aggregate {
            pipeline: p.to_owned(),
        };
        server.serve("t", &req).unwrap();
    }
    sink.get(Counter::CanonBuilds) - before
}

#[test]
fn canon_tables_are_built_once_per_segment() {
    let coll = Collection::parse_str(
        r#"[{"name": {"last": "Kim"}, "age": 30},
            {"name": {"last": "Doe"}, "age": 40},
            {"name": {"last": "Kim"}, "age": 50}]"#,
    )
    .unwrap();
    let server = Server::new(coll, AdmissionConfig::default());
    assert!(server.register_tenant(TenantSpec::new("t")));

    assert_eq!(
        canon_builds(&server),
        1,
        "first use labels the seed segment"
    );
    assert_eq!(
        canon_builds(&server),
        0,
        "unchanged snapshot: cache hits only"
    );

    let insert = Request::Insert {
        doc: r#"{"name": {"last": "Kim"}, "age": 60}"#.to_owned(),
    };
    server.serve("t", &insert).unwrap();
    assert_eq!(canon_builds(&server), 1, "only the new segment is labelled");
    assert_eq!(canon_builds(&server), 0);
}
