//! The segment column: one record per segment of a [`Collection`]'s tree
//! column, holding everything the collection keeps per segment.
//!
//! A [`Segment`] record holds the segment's tree, the global ordinal of
//! its first document, whether its root *is* the one document (an
//! inserted value, arrays included) or its root array's children are the
//! documents (the initial load, a merged suffix), and its postings for
//! every declared index. Document locations ([`DocRef`]) are derived from
//! the records, so no per-document vector exists: scans walk each
//! segment's slice of document roots ([`Segments::doc_slices`]).
//!
//! [`Segments`] holds the records in sealed chunks of [`SEGMENT_CHUNK`]
//! records, each behind an [`Arc`] and never changed again, plus a short
//! owned tail. The list of sealed chunks is itself one [`Arc`], so a clone
//! costs one reference bump for every sealed chunk together plus a copy of
//! the tail (at most `SEGMENT_CHUNK - 1` records of two [`Arc`]s each),
//! whatever the segment and document counts. Sealing copies the list of
//! chunk handles once per `SEGMENT_CHUNK` appends.
//!
//! [`Collection`]: crate::Collection
//! [`DocRef`]: crate::DocRef

use std::ops::{Index, Range};
use std::sync::Arc;

use jsondata::{JsonTree, NodeId, NodeKind};

use crate::index::SegPosting;

/// Records per sealed chunk of [`Segments`].
pub const SEGMENT_CHUNK: usize = 32;

/// One segment of the tree column (see the module docs).
#[derive(Clone)]
pub struct Segment {
    tree: Arc<JsonTree>,
    /// Global ordinal of the segment's first document.
    first: usize,
    /// `true`: the root array's children are the documents; `false`: the
    /// root is the one document (whatever its type).
    many: bool,
    /// One posting per declared index, in declaration order.
    postings: Arc<[Arc<SegPosting>]>,
}

impl Segment {
    /// A segment whose root is one document, numbered `first`.
    pub(crate) fn single(tree: Arc<JsonTree>, first: usize) -> Segment {
        Segment {
            tree,
            first,
            many: false,
            postings: Arc::default(),
        }
    }

    /// A segment whose array root holds the documents `first..`.
    pub(crate) fn array(tree: Arc<JsonTree>, first: usize) -> Segment {
        debug_assert_eq!(tree.kind(tree.root()), NodeKind::Arr);
        Segment {
            tree,
            first,
            many: true,
            postings: Arc::default(),
        }
    }

    /// This segment renumbered to start at `first`, without postings.
    pub(crate) fn renumbered(&self, first: usize) -> Segment {
        Segment {
            tree: Arc::clone(&self.tree),
            first,
            many: self.many,
            postings: Arc::default(),
        }
    }

    /// This segment with `postings` in place of its own.
    pub(crate) fn with_postings(mut self, postings: Arc<[Arc<SegPosting>]>) -> Segment {
        self.postings = postings;
        self
    }

    /// The segment's tree.
    pub fn tree(&self) -> &Arc<JsonTree> {
        &self.tree
    }

    /// Global ordinal of the segment's first document.
    pub fn first(&self) -> usize {
        self.first
    }

    /// One past the global ordinal of the segment's last document.
    pub fn end(&self) -> usize {
        self.first + self.len()
    }

    /// Number of documents in the segment.
    pub fn len(&self) -> usize {
        if self.many {
            self.tree.child_count(self.tree.root())
        } else {
            1
        }
    }

    /// Whether the segment holds no document (an empty initial load).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root nodes of the segment's documents, in document order.
    pub fn docs(&self) -> &[NodeId] {
        if self.many {
            self.tree.arr_children(self.tree.root())
        } else {
            std::slice::from_ref(&NodeId::ROOT)
        }
    }

    /// The segment's postings, one per declared index.
    pub(crate) fn postings(&self) -> &[Arc<SegPosting>] {
        &self.postings
    }
}

/// The segment records of a collection, in segment order (see the module
/// docs for the chunked layout).
#[derive(Default)]
pub struct Segments {
    /// Full chunks of exactly [`SEGMENT_CHUNK`] records.
    sealed: Arc<Vec<Arc<[Segment]>>>,
    /// Fewer than [`SEGMENT_CHUNK`] records after the sealed ones.
    tail: Vec<Segment>,
}

/// Shares every sealed chunk and copies the tail, reserving room for the
/// tail to fill up to a chunk without reallocating.
impl Clone for Segments {
    fn clone(&self) -> Segments {
        let mut tail = Vec::with_capacity(SEGMENT_CHUNK);
        tail.extend_from_slice(&self.tail);
        Segments {
            sealed: Arc::clone(&self.sealed),
            tail,
        }
    }
}

impl Segments {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.sealed.len() * SEGMENT_CHUNK + self.tail.len()
    }

    /// Whether the column holds no segment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment at position `i`.
    pub fn get(&self, i: usize) -> Option<&Segment> {
        match self.sealed.get(i / SEGMENT_CHUNK) {
            Some(chunk) => Some(&chunk[i % SEGMENT_CHUNK]),
            None => self.tail.get(i - self.sealed.len() * SEGMENT_CHUNK),
        }
    }

    /// The last segment.
    pub fn last(&self) -> Option<&Segment> {
        match self.tail.last() {
            Some(s) => Some(s),
            None => self.sealed.last().and_then(|c| c.last()),
        }
    }

    /// Total number of documents.
    pub fn doc_count(&self) -> usize {
        self.last().map_or(0, Segment::end)
    }

    /// The sealed chunks, oldest first. A chunk is never changed once
    /// sealed, so snapshots taken between two compactions share it by
    /// [`Arc::ptr_eq`].
    pub fn sealed_chunks(&self) -> &[Arc<[Segment]>] {
        &self.sealed
    }

    /// The records as contiguous slices: each sealed chunk, then the tail.
    fn slices(&self) -> impl DoubleEndedIterator<Item = &[Segment]> {
        self.sealed
            .iter()
            .map(|c| &c[..])
            .chain(std::iter::once(&self.tail[..]))
    }

    /// Every segment, in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Segment> {
        self.slices().flatten()
    }

    /// The segments from position `k` on.
    pub fn iter_from(&self, k: usize) -> impl Iterator<Item = &Segment> {
        self.slices()
            .skip(k / SEGMENT_CHUNK)
            .flatten()
            .skip(k % SEGMENT_CHUNK)
    }

    /// Every segment's tree, in order (the per-segment JNL batch input).
    pub fn trees(&self) -> Vec<&JsonTree> {
        self.iter().map(|s| s.tree.as_ref()).collect()
    }

    /// Position of the segment holding document `ordinal`: the first
    /// segment ending after it (`len()` when `ordinal` is past the end).
    fn position_of(&self, ordinal: usize) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self[mid].end() <= ordinal {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The documents with ordinals in `r`, as one slice of document roots
    /// per segment they span: `(segment position, segment, roots)`. One
    /// binary search finds the first segment; the rest is a walk.
    pub(crate) fn doc_slices(
        &self,
        r: Range<usize>,
    ) -> impl Iterator<Item = (u32, &Segment, &[NodeId])> {
        let start = self.position_of(r.start);
        self.iter_from(start)
            .enumerate()
            .map_while(move |(i, seg)| {
                if seg.first >= r.end {
                    return None;
                }
                let docs = seg.docs();
                let lo = r.start.saturating_sub(seg.first);
                let hi = (r.end - seg.first).min(docs.len());
                Some(((start + i) as u32, seg, &docs[lo..hi]))
            })
    }

    /// Appends a record, sealing the tail once it holds a full chunk.
    pub(crate) fn push(&mut self, seg: Segment) {
        debug_assert_eq!(seg.first, self.doc_count(), "ordinals are dense");
        self.tail.push(seg);
        if self.tail.len() == SEGMENT_CHUNK {
            let chunk: Arc<[Segment]> = std::mem::take(&mut self.tail).into();
            Arc::make_mut(&mut self.sealed).push(chunk);
            self.tail.reserve(SEGMENT_CHUNK);
        }
    }

    /// Keeps the first `k` segments. Cutting inside a sealed chunk moves
    /// that chunk's kept records into the tail.
    pub(crate) fn truncate(&mut self, k: usize) {
        let sealed_len = self.sealed.len() * SEGMENT_CHUNK;
        if k >= sealed_len {
            self.tail.truncate(k - sealed_len);
            return;
        }
        let c = k / SEGMENT_CHUNK;
        let mut tail = Vec::with_capacity(SEGMENT_CHUNK);
        tail.extend_from_slice(&self.sealed[c][..k % SEGMENT_CHUNK]);
        Arc::make_mut(&mut self.sealed).truncate(c);
        self.tail = tail;
    }

    /// A new column of `f` applied to every record.
    pub(crate) fn map(&self, mut f: impl FnMut(&Segment) -> Segment) -> Segments {
        let mut out = Segments::default();
        for seg in self.iter() {
            out.push(f(seg));
        }
        out
    }
}

impl Index<usize> for Segments {
    type Output = Segment;

    fn index(&self, i: usize) -> &Segment {
        self.get(i).expect("segment position in range")
    }
}
