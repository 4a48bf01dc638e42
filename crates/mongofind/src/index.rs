//! Secondary indexes over the segmented tree column.
//!
//! Two structures per declared path, both keyed through the collection's
//! interned substrate rather than re-materialised values:
//!
//! * a **hash index** on `(path, canon-class)` — per segment, the tree's
//!   cached [`CanonTable`](jsondata::CanonTable) ([`JsonTree::canon`],
//!   the same table every query over the segment reads) assigns every
//!   subtree a hash-consed class id, and the posting map sends each class
//!   to the ascending document ordinals whose path value lands in that
//!   class. `$eq` probes an external constant via
//!   [`class_of_json`](jsondata::CanonTable::class_of_json); an
//!   un-interned constant is a *proof of absence* (no document can hold
//!   it), so the probe answers in O(1) without touching a document. `$in`
//!   is a union of `$eq` probes.
//! * a **sorted column** — per segment, the `(ordinal, value-node)` pairs
//!   ordered by [`cmp_nodes`](crate::cmp_nodes) (the node-node twin of
//!   [`Json::total_cmp`]); `$gt`/`$gte`/`$lt`/`$lte` binary-search the
//!   boundary with [`cmp_node_json`](crate::cmp_node_json) and take a
//!   prefix/suffix. The column is also the substrate a future `$sort`
//!   pushdown reads runs from.
//!
//! Both are **per-segment**, and they live in the segment records of the
//! column ([`Segment`]), one posting per declared index: an appended
//! segment — a [`Collection::insert`] or a merged suffix — gets its
//! postings built once ([`IndexSet::postings_for`]), and no existing
//! posting is touched. [`Collection::merge_from`] replaces the suffix
//! `segments[k..]` by one merged segment, so only that segment's postings
//! are built. Global ordinals of documents before the merge point do not
//! move, so the records of `segments[..k]` stay valid and stay shared by
//! [`Arc`]. Declaring an index on a live collection
//! ([`Collection::create_index`]) rewrites every record once, adding the
//! new index's postings beside the existing ones.
//!
//! Planning ([`IndexSet::plan`]) flattens a conjunctive filter and splits
//! it into an index-answerable prefix — `Compare(Eq|Gt|Gte|Lt|Lte)` and
//! positive `In` on indexed paths — plus a residual predicate. Probes
//! materialise document-set bitmaps ([`jnl::bitset::BitSet`]) that are
//! ANDed in place; the residual runs [`Filter::matches_at`] only on the
//! surviving ordinals. Missing-path semantics line up exactly: the filter
//! dialect makes `Compare`/positive-`In` false on an unresolvable path,
//! and a document without the path simply never enters a posting.
//!
//! The scan path ([`Collection::find_refs`]) stays untouched as the
//! differential oracle; `tests/index_differential.rs` sweeps layouts and
//! thread counts asserting byte-identical output.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use jguard::{QueryCtx, QueryError};
use jnl::bitset::BitSet;
use jsondata::{Json, JsonTree, NodeId};
use jtrace::{Counter, SpanKind};

use crate::column::{Segment, Segments};
use crate::{cmp_node_json, cmp_nodes, expect_ungoverned, Cmp, Collection, DocRef, Filter, Path};

/// The secondary indexes declared on one [`Collection`]. Empty (the
/// default) until [`Collection::create_index`] declares a path; an empty
/// set costs nothing on insert.
///
/// The set holds only the declarations; the postings live in the segment
/// records ([`Segment`]). Declarations change only on
/// [`Collection::create_index`], so they sit behind one [`Arc`] and
/// cloning an `IndexSet` — which `Collection::clone` does for every
/// snapshot — is one reference bump.
#[derive(Default, Clone)]
pub struct IndexSet {
    /// One index per declared path, in declaration order.
    paths: Arc<Vec<PathIndex>>,
}

/// One declared index.
#[derive(Clone)]
struct PathIndex {
    /// The declared path, as written (`"name.first"`).
    name: String,
    path: Path,
}

/// The postings of one `(path, segment)` pair, immutable once built.
pub(crate) struct SegPosting {
    /// canon class → ascending global document ordinals (the hash side).
    eq: HashMap<u32, Vec<u32>>,
    /// `(global ordinal, resolved value node)` ordered by
    /// [`cmp_nodes`] then ordinal (the sorted column). Storing the value
    /// node means range probes never re-resolve the path.
    sorted: Vec<(u32, NodeId)>,
}

/// One index-answerable conjunct, referencing the filter it came from.
pub(crate) enum Probe<'f> {
    /// `$eq` constant.
    Eq(&'f Json),
    /// Positive `$in` list (union of `Eq` probes).
    In(&'f [Json]),
    /// `$gt`/`$gte`/`$lt`/`$lte` boundary.
    Range(Cmp, &'f Json),
}

/// The planning split of a conjunctive filter: probes against declared
/// indexes plus the residual conjuncts evaluated on surviving docs only.
/// `pub(crate)` so the explain module can describe the exact split the
/// executor would run.
pub(crate) struct IndexPlan<'f> {
    /// `(position in IndexSet::paths, probe)` pairs.
    pub(crate) probes: Vec<(usize, Probe<'f>)>,
    /// Conjuncts the indexes cannot answer; empty means the probes are
    /// exact.
    pub(crate) residual: Vec<&'f Filter>,
}

/// Builds the postings of `path` over one segment's documents.
fn build_posting(path: &Path, seg: &Segment) -> SegPosting {
    let tree: &JsonTree = seg.tree();
    let canon = tree.canon();
    let mut eq: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut sorted: Vec<(u32, NodeId)> = Vec::new();
    for (i, &doc) in seg.docs().iter().enumerate() {
        let ord = (seg.first() + i) as u32;
        if let Some(v) = path.resolve_node(tree, doc) {
            eq.entry(canon.class_of(v)).or_default().push(ord);
            sorted.push((ord, v));
        }
    }
    // Ordinal tiebreak keeps the column deterministic across rebuilds.
    sorted.sort_by(|&(oa, na), &(ob, nb)| cmp_nodes(tree, na, nb).then(oa.cmp(&ob)));
    SegPosting { eq, sorted }
}

impl IndexSet {
    /// Whether any index is declared (the fast-path gate: an empty set
    /// costs nothing on insert and plans nothing).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The declared paths, in declaration order.
    pub fn declared(&self) -> impl Iterator<Item = &str> {
        self.paths.iter().map(|p| p.name.as_str())
    }

    /// Position of the index on `path`, if declared.
    fn position(&self, path: &Path) -> Option<usize> {
        self.paths.iter().position(|p| p.path == *path)
    }

    /// The declared path name of the index at position `i` (the plan's
    /// probe positions resolve through this for `EXPLAIN` rendering).
    pub(crate) fn path_name(&self, i: usize) -> &str {
        &self.paths[i].name
    }

    /// The postings of `seg` for every declared index (building the
    /// segment's canon table on first use). Empty while no index is
    /// declared.
    pub(crate) fn postings_for(&self, seg: &Segment) -> Arc<[Arc<SegPosting>]> {
        self.paths
            .iter()
            .map(|p| Arc::new(build_posting(&p.path, seg)))
            .collect()
    }

    /// Splits a conjunctive filter into index probes + residual. `None`
    /// when nothing is index-answerable (callers fall back to the scan).
    /// Top-level `And`s are flattened through nesting; any other
    /// top-level shape is treated as a one-conjunct conjunction.
    pub(crate) fn plan<'f>(&self, filter: &'f Filter) -> Option<IndexPlan<'f>> {
        let mut probes = Vec::new();
        let mut residual = Vec::new();
        let mut stack: Vec<&'f Filter> = vec![filter];
        while let Some(f) = stack.pop() {
            match f {
                Filter::And(fs) => stack.extend(fs.iter()),
                Filter::Compare(p, Cmp::Eq, v) => match self.position(p) {
                    Some(i) => probes.push((i, Probe::Eq(v))),
                    None => residual.push(f),
                },
                Filter::Compare(p, cmp @ (Cmp::Gt | Cmp::Gte | Cmp::Lt | Cmp::Lte), v) => {
                    match self.position(p) {
                        Some(i) => probes.push((i, Probe::Range(*cmp, v))),
                        None => residual.push(f),
                    }
                }
                Filter::In(p, items, true) => match self.position(p) {
                    Some(i) => probes.push((i, Probe::In(items))),
                    None => residual.push(f),
                },
                other => residual.push(other),
            }
        }
        if probes.is_empty() {
            return None;
        }
        Some(IndexPlan { probes, residual })
    }

    /// Whether [`IndexSet::plan`] would find at least one probe for
    /// `filter` — the planner gate `jagg` consults before routing a
    /// leading `$match` through the index path.
    pub(crate) fn answers(&self, filter: &Filter) -> bool {
        !self.is_empty() && self.plan(filter).is_some()
    }

    /// Runs one probe of the index at `pi`, inserting every matching
    /// document ordinal into `out`.
    fn probe_into(&self, pi: usize, probe: &Probe<'_>, segments: &Segments, out: &mut BitSet) {
        for seg in segments.iter() {
            let posting = &seg.postings()[pi];
            let tree: &JsonTree = seg.tree();
            match probe {
                Probe::Eq(v) => eq_hits(posting, tree, v, out),
                Probe::In(items) => {
                    for v in items.iter() {
                        eq_hits(posting, tree, v, out);
                    }
                }
                Probe::Range(cmp, v) => range_hits(posting, tree, *cmp, v, out),
            }
        }
    }

    /// Executes a plan: probes materialise bitmaps (byte budget charged
    /// per bitmap), intersect in place with early exit on empty, then the
    /// residual conjuncts run on survivors only (row budget charged, ctx
    /// polled per document). Survivors come out in ascending ordinal —
    /// i.e. `(segment, doc)` — order, identical to the scan oracle; their
    /// segments are found by one walk along the column beside them.
    fn execute(
        &self,
        plan: &IndexPlan<'_>,
        segments: &Segments,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        let n = segments.doc_count();
        let bitmap_bytes = (n.div_ceil(64) * 8) as u64;
        let mut acc: Option<BitSet> = None;
        for (ordinal, (pi, probe)) in plan.probes.iter().enumerate() {
            ctx.charge_bytes(bitmap_bytes)?;
            // One probe answers the conjunct across *all* segments, so the
            // count is layout-invariant (same total before/after compact).
            ctx.record(Counter::IndexProbes, 1);
            ctx.span_open(SpanKind::Probe, ordinal as u32);
            let mut bm = BitSet::new(n);
            self.probe_into(*pi, probe, segments, &mut bm);
            ctx.span_close(SpanKind::Probe, ordinal as u32);
            match &mut acc {
                None => acc = Some(bm),
                Some(a) => {
                    ctx.record(Counter::BitmapIntersections, 1);
                    a.intersect_with(&bm);
                }
            }
            if acc.as_ref().expect("just set").is_empty() {
                break;
            }
        }
        let acc = acc.expect("plan holds at least one probe");
        let mut poll = ctx.poller();
        let mut out = Vec::new();
        let mut residual_evals = 0u64;
        let mut column = segments.iter().enumerate();
        let mut cur = column.next();
        for i in acc.iter() {
            poll.tick()?;
            while cur.is_some_and(|(_, s)| s.end() <= i) {
                cur = column.next();
            }
            let (si, seg) = cur.expect("every ordinal lies in a segment");
            let node = seg.docs()[i - seg.first()];
            if !plan.residual.is_empty() {
                residual_evals += 1;
            }
            if plan.residual.iter().all(|f| f.matches_at(seg.tree(), node)) {
                out.push(DocRef {
                    seg: si as u32,
                    node,
                });
            }
        }
        ctx.record(Counter::ResidualEvals, residual_evals);
        ctx.charge_rows(out.len() as u64)?;
        Ok(out)
    }
}

/// `$eq` hits of one posting: classes the external constant into the
/// segment's canon table and reads the posting list. An un-interned
/// constant ([`class_of_json`](jsondata::CanonTable::class_of_json) →
/// `None`) is an absence proof — nothing to insert.
fn eq_hits(posting: &SegPosting, tree: &JsonTree, v: &Json, out: &mut BitSet) {
    if let Some(class) = tree.canon().class_of_json(tree, v) {
        if let Some(ords) = posting.eq.get(&class) {
            for &o in ords {
                out.insert(o as usize);
            }
        }
    }
}

/// Range hits of one posting: binary-searches the sorted column boundary
/// against the probe constant ([`cmp_node_json`] implements the same
/// total order the column is sorted by — pinned by the order-property
/// suite) and inserts the matching prefix/suffix.
fn range_hits(posting: &SegPosting, tree: &JsonTree, cmp: Cmp, v: &Json, out: &mut BitSet) {
    let s = &posting.sorted;
    let run = match cmp {
        Cmp::Gt => {
            &s[s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) != Ordering::Greater)..]
        }
        Cmp::Gte => &s[s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) == Ordering::Less)..],
        Cmp::Lt => &s[..s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) == Ordering::Less)],
        Cmp::Lte => {
            &s[..s.partition_point(|&(_, n)| cmp_node_json(tree, n, v) != Ordering::Greater)]
        }
        Cmp::Eq | Cmp::Ne => unreachable!("not a range probe"),
    };
    for &(o, _) in run {
        out.insert(o as usize);
    }
}

impl Collection {
    /// Declares a secondary index on the dotted path `path` (hash +
    /// sorted-column, see the module docs), building its postings into
    /// every segment record. Subsequent [`Collection::insert`]s and
    /// merges build the postings of the segments they append. Returns
    /// `false` if the path is already indexed.
    pub fn create_index(&mut self, path: &str) -> bool {
        if self.has_index(path) {
            return false;
        }
        let parsed = Path::parse(path);
        self.segments = self.segments.map(|seg| {
            let mut postings = seg.postings().to_vec();
            postings.push(Arc::new(build_posting(&parsed, seg)));
            seg.clone().with_postings(postings.into())
        });
        Arc::make_mut(&mut self.indexes.paths).push(PathIndex {
            name: path.to_owned(),
            path: parsed,
        });
        true
    }

    /// Whether a secondary index is declared on `path`.
    pub fn has_index(&self, path: &str) -> bool {
        self.indexes.declared().any(|p| p == path)
    }

    /// Whether the declared indexes can answer at least part of `filter`
    /// — i.e. whether [`Collection::find_refs_indexed`] will probe rather
    /// than fall back to the scan.
    pub fn index_answerable(&self, filter: &Filter) -> bool {
        self.indexes.answers(filter)
    }

    /// [`Collection::find_refs`] answered by index probe: the conjunctive
    /// prefix the indexes can answer materialises document-set bitmaps
    /// (one per probe, ANDed in place), and only the surviving documents
    /// see the residual predicate. Falls back to the scan when no
    /// conjunct is index-answerable. Output is byte-identical to
    /// [`Collection::find_refs`] for every filter (differentially
    /// tested).
    pub fn find_refs_indexed(&self, filter: &Filter) -> Vec<DocRef> {
        expect_ungoverned(self.find_refs_indexed_with_ctx(filter, &QueryCtx::unlimited()))
    }

    /// [`Collection::find_refs_indexed`] under a [`QueryCtx`]: each
    /// materialised bitmap debits the byte budget, the residual pass
    /// polls per surviving document, and matches charge the row budget —
    /// the same observable governance surface as the scan path.
    pub fn find_refs_indexed_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<DocRef>, QueryError> {
        match self.indexes.plan(filter) {
            Some(plan) => self.indexes.execute(&plan, &self.segments, ctx),
            None => self.find_refs_with_ctx(filter, ctx),
        }
    }

    /// [`Collection::find`] answered by index probe (scan fallback when
    /// nothing is index-answerable).
    pub fn find_indexed(&self, filter: &Filter) -> Vec<Json> {
        expect_ungoverned(self.find_indexed_with_ctx(filter, &QueryCtx::unlimited()))
    }

    /// [`Collection::find_indexed`] under a [`QueryCtx`].
    pub fn find_indexed_with_ctx(
        &self,
        filter: &Filter,
        ctx: &QueryCtx,
    ) -> Result<Vec<Json>, QueryError> {
        let refs = self.find_refs_indexed_with_ctx(filter, ctx)?;
        self.materialize_refs(ctx, refs, |d| self.json_of(d))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Collection, Filter};

    fn coll() -> Collection {
        Collection::parse_str(
            r#"[
                {"name": {"first": "Sue"}, "age": 28, "tags": ["a", "b"]},
                {"name": {"first": "John"}, "age": 32},
                {"name": {"first": "Ann"}, "age": 28},
                {"age": 99},
                {"name": {"first": "Sue"}, "age": 40}
            ]"#,
        )
        .unwrap()
    }

    fn f(src: &str) -> Filter {
        Filter::parse_str(src).unwrap()
    }

    #[test]
    fn create_is_idempotent() {
        let mut c = coll();
        assert!(c.create_index("age"));
        assert!(!c.create_index("age"));
        assert!(c.has_index("age"));
        assert!(!c.has_index("name.first"));
    }

    #[test]
    fn eq_probe_matches_scan() {
        let mut c = coll();
        c.create_index("name.first");
        c.create_index("age");
        for src in [
            r#"{"name.first": "Sue"}"#,
            r#"{"age": {"$eq": 28}}"#,
            r#"{"name.first": "Sue", "age": {"$gte": 30}}"#,
            r#"{"age": {"$in": [28, 99]}}"#,
            r#"{"age": {"$gt": 28, "$lte": 99}}"#,
            r#"{"name.first": "Nobody"}"#,
            r#"{"age": {"$lt": 5}}"#,
        ] {
            let q = f(src);
            assert!(c.index_answerable(&q), "{src}");
            assert_eq!(c.find_refs_indexed(&q), c.find_refs(&q), "{src}");
        }
    }

    #[test]
    fn residual_conjuncts_apply() {
        let mut c = coll();
        c.create_index("age");
        // "name.first" is not indexed: it must run as residual on the
        // probe survivors.
        let q = f(r#"{"age": 28, "name.first": "Ann"}"#);
        assert!(c.index_answerable(&q));
        let hits = c.find_indexed(&q);
        assert_eq!(hits, c.find(&q));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn unanswerable_falls_back_to_scan() {
        let mut c = coll();
        c.create_index("age");
        for src in [
            r#"{"age": {"$ne": 28}}"#,
            r#"{"age": {"$nin": [28]}}"#,
            r#"{"$or": [{"age": 28}, {"age": 99}]}"#,
            r#"{"age": {"$exists": "true"}}"#,
        ] {
            let q = f(src);
            assert!(!c.index_answerable(&q), "{src}");
            assert_eq!(c.find_refs_indexed(&q), c.find_refs(&q), "{src}");
        }
    }

    #[test]
    fn incremental_insert_and_compact_maintain_indexes() {
        let mut c = coll();
        c.create_index("age");
        c.insert(&jsondata::parse(r#"{"name": {"first": "Zoe"}, "age": 28}"#).unwrap());
        let q = f(r#"{"age": 28}"#);
        assert_eq!(c.find_refs_indexed(&q).len(), 3);
        assert_eq!(c.find_refs_indexed(&q), c.find_refs(&q));
        c.compact();
        assert_eq!(c.find_refs_indexed(&q), c.find_refs(&q));
        assert_eq!(c.find_indexed(&q).len(), 3);
    }

    #[test]
    fn empty_collection_probes() {
        let mut c = Collection::parse_str("[]").unwrap();
        c.create_index("age");
        let q = f(r#"{"age": 28}"#);
        assert!(c.index_answerable(&q));
        assert!(c.find_refs_indexed(&q).is_empty());
    }

    #[test]
    fn governed_probe_charges_budgets() {
        use jguard::{QueryCtx, QueryError, Resource};
        let mut c = coll();
        c.create_index("age");
        let q = f(r#"{"age": 28}"#);
        // A one-byte budget cannot pay for the probe bitmap.
        let ctx = QueryCtx::new().with_byte_budget(1);
        match c.find_refs_indexed_with_ctx(&q, &ctx) {
            Err(QueryError::BudgetExceeded {
                resource: Resource::Bytes,
            }) => {}
            other => panic!("expected byte-budget error, got {other:?}"),
        }
        // An ample budget answers normally.
        let ctx = QueryCtx::new().with_byte_budget(1 << 20);
        assert_eq!(
            c.find_refs_indexed_with_ctx(&q, &ctx).unwrap(),
            c.find_refs(&q)
        );
    }
}
