//! The sparse bounded-row `SLen` backend — candidate rows only, truncated
//! at the pattern's maximum finite bound.
//!
//! ## Why it is enough
//!
//! GPNM only ever consults `SLen` through `within(v, v', f_e)` checks whose
//! source `v` carries a label that occurs in the pattern (the matcher seeds
//! sets from label candidates; DER-I candidates and DER-III re-checks range
//! over matched/label sets too), and whose bound `f_e` is one of the
//! pattern's bounded path lengths. So the index only needs, per
//! *candidate* node `x` (label ∈ pattern labels), the distances
//! `d(x, y) ≤ B` where `B` is the pattern's maximum finite bound — any
//! longer distance is indistinguishable from ∞ for every check the engine
//! performs. Patterns containing an unbounded (`*`) edge need full
//! reachability, so `B` falls back to [`INF`] and rows are untruncated
//! (still candidate-sources-only).
//!
//! ## Representation and cost
//!
//! Each resident row is a sorted `(target, dist)` vector filled by a BFS
//! truncated at depth `B` over the shared [`CsrSnapshot`]. A DER-II
//! *probe* batch against an unmutated graph shares one CSR build. Every
//! graph mutation invalidates the snapshot, so a single-update commit
//! that runs a BFS pays one in-place, allocation-reusing rebuild, while
//! a [batch commit](#batch-commit) pays one for the whole batch. Memory
//! is `O(Σ_candidates |ball_B(x)|)`
//! instead of `O(n²)` — on a 100k-node power-law graph with a 6-node
//! pattern over 60 labels that is tens of MB instead of 40 GB, which is
//! what lets the `gpnm` binary run 100k+-node end-to-end experiments.
//!
//! ## Repair
//!
//! The PR-2 delta-proportional repair carries over in truncated form:
//!
//! * *Edge insert `(u, v)`*: only resident sources `x` with
//!   `d_B(x, u) + 1 < d_B(x, v)` can change (the dense triangle-inequality
//!   pruning, applied to the truncated function), and candidate targets
//!   come from one truncated BFS row of `v` (valid pre- *and* post-insert:
//!   a simple shortest path from `v` cannot use an edge *into* `v`).
//! * *Edge delete `(u, v)`*: only resident sources with
//!   `d_B(x, u) + 1 == d_B(x, v)` can lose a path; their rows are re-run by
//!   truncated BFS. A source whose `d(x, v)` exceeds `B` can only change
//!   beyond the truncation horizon — invisible to the engine by
//!   construction.
//! * *Node delete*: resident sources whose row reaches the node, plus the
//!   node's own row.
//!
//! ## Batch commit
//!
//! [`SlenBackend::commit_batch`] applies the whole batch to the graph
//! first, then marks the *pre-batch* rows that can change, refreshes the
//! CSR snapshot once, re-runs the truncated BFS once per marked row (and
//! once per newly inserted node with a required label), and diffs each
//! new row against its old one. A row of source `x` is marked if it
//! contains any of
//!
//! * a deleted node;
//! * the tail `u` of an inserted edge with `d(x, u) < B`;
//! * a *tight* deleted edge `(u, v)`: `d(x, u) + 1 == d(x, v)`.
//!
//! The rule is sound. Any post-batch path within `B` that uses an
//! inserted edge reaches the first such edge's tail `u` over edges that
//! were already there before the batch, in fewer than `B` hops, so
//! `d(x, u) < B` held before the batch. An unmarked row therefore gains
//! no shorter path. A pre-batch shortest path within `B` has every node
//! in the row and every edge tight, so it breaks only at a deleted node
//! or a tight deleted edge (an edge deleted and re-inserted is also an
//! inserted edge). An unmarked row therefore loses no path either, and
//! its truncated row is unchanged. The marks are computed in one pass
//! over the resident entries against slot-indexed markers.
//!
//! Deltas are therefore the dense deltas *projected* onto resident sources
//! with distances `> B` mapped to ∞ — exactly the projection the matcher
//! observes, which is what the backend-equivalence proptest suite asserts
//! record-for-record against [`crate::IncrementalIndex`].
//!
//! ## Row stores
//!
//! The algorithms above touch rows only through a small crate-private
//! row-store trait: fetch a row for repair, look a distance up through
//! `&self`, put, update or remove a row, iterate and grow the slots, and
//! reset all rows at once for a build. Two
//! stores implement it, and each algorithm exists once for both:
//!
//! * [`VecStore`] (the default) keeps every resident row on the heap —
//!   the `sparse` backend.
//! * [`crate::PagedStore`] keeps them in spill-file pages behind a
//!   byte-budgeted hot-row cache — the `paged` backend:
//!   [`crate::PagedIndex`] is `SparseIndex<PagedStore>`.
//!
//! Both grow their slot vectors with one policy, `grow_with_slack`, which
//! avoids the doubling transient that a 10M-node graph under a hard
//! address-space ceiling cannot afford.

use gpnm_graph::{CsrGraph, CsrSnapshot, DataGraph, DataUpdate, GraphError, Label, NodeId};

use crate::aff::AffDelta;
use crate::backend::{BatchCommit, CostHints, IoStats, RepairHint, SlenBackend, SlenRequirements};
use crate::oracle::DistanceOracle;
use crate::{sat_add, INF};

/// One resident row: `(target slot, distance)` sorted by slot. Both row
/// stores hold these; [`crate::PagedStore`] serializes them to disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseRow {
    pub(crate) entries: Vec<(u32, u32)>,
}

impl SparseRow {
    /// The row of a source with no out-edges: itself at distance 0.
    fn isolated(x: NodeId) -> Self {
        SparseRow {
            entries: vec![(x.0, 0)],
        }
    }

    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<u32> {
        self.entries
            .binary_search_by_key(&slot, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Merge `updates` (sorted by slot, each an improvement or insertion)
    /// into the row, keeping it sorted.
    pub(crate) fn apply_sorted_updates(&mut self, updates: &[(u32, u32)]) {
        let mut merged = Vec::with_capacity(self.entries.len() + updates.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < updates.len() {
            match self.entries[i].0.cmp(&updates[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(self.entries[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(updates[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(updates[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&updates[j..]);
        self.entries = merged;
    }
}

/// What the truncated BFS must pretend is absent (deletion probes).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Skip {
    Nothing,
    Edge(NodeId, NodeId),
    Node(NodeId),
}

/// BFS from `source`, truncated at `depth` hops ([`INF`] = untruncated),
/// honoring `skip`. `dist` is an all-[`INF`] scratch array that is restored
/// before returning; `queue` is reusable scratch.
pub(crate) fn bfs_truncated(
    csr: &CsrGraph,
    source: NodeId,
    depth: u32,
    skip: Skip,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) -> SparseRow {
    debug_assert!(dist.len() >= csr.slot_count());
    queue.clear();
    dist[source.index()] = 0;
    queue.push(source);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u.index()];
        if du >= depth {
            continue; // at the truncation horizon: do not expand further
        }
        let u_is_skip_source = matches!(skip, Skip::Edge(a, _) if a == u);
        for &v in csr.out_neighbors(u) {
            match skip {
                Skip::Edge(_, b) if u_is_skip_source && v == b => continue,
                Skip::Node(s) if v == s => continue,
                _ => {}
            }
            if dist[v.index()] == INF {
                dist[v.index()] = du + 1;
                queue.push(v);
            }
        }
    }
    let mut entries: Vec<(u32, u32)> = queue.iter().map(|&v| (v.0, dist[v.index()])).collect();
    for &v in queue.iter() {
        dist[v.index()] = INF; // restore the all-INF invariant
    }
    entries.sort_unstable_by_key(|e| e.0);
    SparseRow { entries }
}

/// Record every difference between two sorted sparse rows of source `x`
/// (absent entries read as [`INF`]), in ascending target order.
pub(crate) fn diff_rows(x: NodeId, old: &SparseRow, new: &SparseRow, delta: &mut AffDelta) {
    let (a, b) = (&old.entries, &new.entries);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                delta.record(x, NodeId(a[i].0), a[i].1, INF);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                delta.record(x, NodeId(b[j].0), INF, b[j].1);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    delta.record(x, NodeId(a[i].0), a[i].1, b[j].1);
                }
                i += 1;
                j += 1;
            }
        }
    }
    for &(y, d) in &a[i..] {
        delta.record(x, NodeId(y), d, INF);
    }
    for &(y, d) in &b[j..] {
        delta.record(x, NodeId(y), INF, d);
    }
}

// Per-slot markers of a batch's edits, read by the batch candidate rule.
const DELETED_NODE: u8 = 1;
const INSERTED_TAIL: u8 = 2;
const DELETED_TAIL: u8 = 4;
const CREATED_NODE: u8 = 8;

/// The graph edits of one batch, as the batch candidate rule reads them.
struct BatchEdits {
    /// Slot-indexed `DELETED_NODE` / `INSERTED_TAIL` / `DELETED_TAIL` /
    /// `CREATED_NODE` bits.
    marks: Vec<u8>,
    /// Deleted edges `(tail, head)`, sorted.
    deleted_edges: Vec<(u32, u32)>,
    /// Created nodes with their labels, in batch order.
    created: Vec<(NodeId, Label)>,
}

impl BatchEdits {
    fn mark(&mut self, id: NodeId, bit: u8) {
        let i = id.index();
        if self.marks.len() <= i {
            self.marks.resize(i + 1, 0);
        }
        self.marks[i] |= bit;
    }

    /// Whether the pre-batch `row` may change (see the module docs).
    fn is_candidate(&self, row: &SparseRow, depth: u32) -> bool {
        row.entries.iter().any(|&(y, d)| {
            let m = self.marks.get(y as usize).copied().unwrap_or(0);
            if m & DELETED_NODE != 0 || (m & INSERTED_TAIL != 0 && d < depth) {
                return true;
            }
            if m & DELETED_TAIL == 0 {
                return false;
            }
            let from = self.deleted_edges.partition_point(|e| e.0 < y);
            self.deleted_edges[from..]
                .iter()
                .take_while(|e| e.0 == y)
                .any(|&(_, v)| row.get(v) == Some(d + 1))
        })
    }
}

/// Grow a slot-aligned vector to `n` elements without the doubling
/// transient. `Vec::resize` grows by doubling, which at 10M+ slots
/// allocates a second quarter-GiB buffer while the old one is still
/// live — enough to blow a tight address-space budget on a single
/// node insert. Reserving ~1.5% headroom past `n` instead keeps a
/// long run of single-slot commits realloc-free and bounds the
/// transient to the exact new size.
pub(crate) fn grow_with_slack<T>(v: &mut Vec<T>, n: usize, fill: impl FnMut() -> T) {
    if n > v.capacity() {
        v.reserve_exact(n + n / 64 + 16 - v.len());
    }
    if v.len() < n {
        v.resize_with(n, fill);
    }
}

/// The sources `reqs` implies in `graph`, in requirement-label order.
fn required_sources<'a>(
    reqs: &'a SlenRequirements,
    graph: &'a DataGraph,
) -> impl Iterator<Item = NodeId> + 'a {
    reqs.labels()
        .iter()
        .flat_map(|&label| graph.nodes_with_label(label))
        .copied()
}

/// Where a [`SparseIndex`] keeps its rows: exactly the row operations the
/// repair algorithms perform. Slots are node indices. Not nameable outside
/// the crate, so [`VecStore`] and [`crate::PagedStore`] are the only
/// implementations.
pub trait RowStore: Default + Clone + std::fmt::Debug + Send + Sync {
    /// The backend name [`SlenBackend::kind`] reports.
    const KIND: &'static str;

    /// Addressable slots, resident or not.
    fn slots(&self) -> usize;

    /// Make slots `0..n` addressable.
    fn grow(&mut self, n: usize);

    /// Whether `slot` holds a row. Reads no row.
    fn is_resident(&self, slot: usize) -> bool;

    /// `slot`'s row for the `&mut` repair paths, `None` if not resident.
    fn fetch(&mut self, slot: usize) -> Option<&SparseRow>;

    /// `d(u, v)` through a shared borrow — the matcher's hot path.
    fn distance(&self, u: NodeId, v: NodeId) -> u32;

    /// Set `slot`'s row, resident or not.
    fn put(&mut self, slot: usize, row: SparseRow);

    /// Mutate `slot`'s resident row in place.
    fn update(&mut self, slot: usize, f: impl FnOnce(&mut SparseRow));

    /// Drop `slot`'s row, if any.
    fn remove(&mut self, slot: usize);

    /// Replace every row with `rows` — the bulk build. A store with a
    /// cache leaves it cold: the rows warm on use.
    fn reset(&mut self, rows: impl Iterator<Item = (usize, SparseRow)>);

    /// See [`SlenBackend::mem_bytes`].
    fn mem_bytes(&self) -> usize;

    /// See [`SlenBackend::io_stats`].
    fn io_stats(&self) -> Option<IoStats> {
        None
    }

    /// See [`SlenBackend::cost_hints`].
    fn cost_hints(&self) -> CostHints {
        CostHints::default()
    }
}

/// The in-memory row store: one heap vector per resident row. The
/// default store of [`SparseIndex`].
#[derive(Debug, Clone, Default)]
pub struct VecStore {
    /// Slot-indexed rows (`None` = not a candidate source).
    rows: Vec<Option<SparseRow>>,
}

impl RowStore for VecStore {
    const KIND: &'static str = "sparse";

    fn slots(&self) -> usize {
        self.rows.len()
    }

    fn grow(&mut self, n: usize) {
        grow_with_slack(&mut self.rows, n, || None);
    }

    fn is_resident(&self, slot: usize) -> bool {
        self.rows.get(slot).is_some_and(Option::is_some)
    }

    #[inline]
    fn fetch(&mut self, slot: usize) -> Option<&SparseRow> {
        self.rows.get(slot)?.as_ref()
    }

    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.rows
            .get(u.index())
            .and_then(|r| r.as_ref())
            .and_then(|r| r.get(v.0))
            .unwrap_or(INF)
    }

    fn put(&mut self, slot: usize, row: SparseRow) {
        self.rows[slot] = Some(row);
    }

    fn update(&mut self, slot: usize, f: impl FnOnce(&mut SparseRow)) {
        f(self.rows[slot].as_mut().expect("resident row"));
    }

    fn remove(&mut self, slot: usize) {
        self.rows[slot] = None;
    }

    fn reset(&mut self, rows: impl Iterator<Item = (usize, SparseRow)>) {
        self.rows.iter_mut().for_each(|r| *r = None);
        for (slot, row) in rows {
            self.rows[slot] = Some(row);
        }
    }

    fn mem_bytes(&self) -> usize {
        // Capacity, not len: `apply_sorted_updates` and `retain` leave slack
        // in row vectors, and the slot vector itself over-allocates on
        // growth. `max_index_gb` admission and `LeastLoaded` placement
        // compare against the real allocation, not the live entry count.
        self.rows.capacity() * std::mem::size_of::<Option<SparseRow>>()
            + self
                .rows
                .iter()
                .flatten()
                .map(|r| r.entries.capacity())
                .sum::<usize>()
                * std::mem::size_of::<(u32, u32)>()
    }
}

/// Bounded-row sparse `SLen` index over candidate sources only, generic
/// over where its rows live: in memory ([`VecStore`], the default) or in
/// spill-file pages behind a hot-row cache ([`crate::PagedIndex`]).
///
/// [`DistanceOracle::distance`] answers [`INF`] for any pair outside the
/// resident projection — sound for every consumer in this workspace
/// because they all source distance queries at pattern-labeled nodes (see
/// the module docs), but *not* a general-purpose APSP oracle.
#[derive(Debug, Clone)]
pub struct SparseIndex<S: RowStore = VecStore> {
    /// The covered requirement set (source labels + truncation depth) —
    /// the single source of truth for what is resident.
    reqs: SlenRequirements,
    /// The rows, slot-indexed (non-resident = not a candidate source).
    pub(crate) store: S,
    snapshot: CsrSnapshot,
    dist_buf: Vec<u32>,
    queue_buf: Vec<NodeId>,
}

impl SparseIndex {
    /// Build an in-memory index of `graph` covering `reqs`. Inherent so
    /// that `SparseIndex::build` names the default store without a type
    /// annotation.
    pub fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        <Self as SlenBackend>::build(graph, reqs)
    }

    /// Total `(target, dist)` entries across all resident rows.
    pub fn entry_count(&self) -> usize {
        self.store
            .rows
            .iter()
            .flatten()
            .map(|r| r.entries.len())
            .sum()
    }
}

impl<S: RowStore> SparseIndex<S> {
    /// Build over `store` (emptied first) covering `reqs`.
    pub(crate) fn with_store(graph: &DataGraph, reqs: &SlenRequirements, store: S) -> Self {
        let mut index = SparseIndex {
            reqs: reqs.clone(),
            store,
            snapshot: CsrSnapshot::new(),
            dist_buf: Vec::new(),
            queue_buf: Vec::new(),
        };
        index.materialize_all(graph);
        index
    }

    /// The truncation depth currently honored ([`INF`] = untruncated).
    pub fn depth(&self) -> u32 {
        self.reqs.depth()
    }

    /// The source labels currently materialized.
    pub fn labels(&self) -> &[Label] {
        self.reqs.labels()
    }

    fn required(&self, label: Option<Label>) -> bool {
        label.is_some_and(|l| self.reqs.labels().binary_search(&l).is_ok())
    }

    fn ensure_slots(&mut self, graph: &DataGraph) {
        let n = graph.slot_count();
        self.store.grow(n);
        grow_with_slack(&mut self.dist_buf, n, || INF);
    }

    /// The resident sources, in slot order.
    fn resident(&self) -> Vec<NodeId> {
        (0..self.store.slots())
            .filter(|&i| self.store.is_resident(i))
            .map(NodeId::from_index)
            .collect()
    }

    /// The required sources without a row.
    fn missing_required(&self, graph: &DataGraph) -> Vec<NodeId> {
        required_sources(&self.reqs, graph)
            .filter(|x| !self.store.is_resident(x.index()))
            .collect()
    }

    /// `pick` over every resident row in slot order, keeping its answers.
    /// The one full pass a repair makes over the rows.
    fn scan<T>(&mut self, mut pick: impl FnMut(NodeId, &SparseRow) -> Option<T>) -> Vec<T> {
        let mut picked = Vec::new();
        for i in 0..self.store.slots() {
            if let Some(row) = self.store.fetch(i) {
                picked.extend(pick(NodeId::from_index(i), row));
            }
        }
        picked
    }

    /// Store a fresh truncated BFS row for every source in `todo`.
    fn put_bfs_rows(&mut self, graph: &DataGraph, todo: &[NodeId]) {
        if todo.is_empty() {
            return;
        }
        let depth = self.reqs.depth();
        let Self {
            store,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let csr = snapshot.get(graph);
        for &x in todo {
            let row = bfs_truncated(csr, x, depth, Skip::Nothing, dist_buf, queue_buf);
            store.put(x.index(), row);
        }
    }

    /// Re-run the truncated BFS (honoring `skip`) of every resident source
    /// in `todo` and record how each row changed. With `commit` the new
    /// rows replace the old, and a source gone from the graph loses its
    /// row (every entry reads [`INF`]).
    fn rerun_rows(
        &mut self,
        graph: &DataGraph,
        todo: &[NodeId],
        skip: Skip,
        commit: bool,
        delta: &mut AffDelta,
    ) {
        if todo.is_empty() {
            return;
        }
        let depth = self.reqs.depth();
        let Self {
            store,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let csr = snapshot.get(graph);
        let gone = SparseRow::default();
        for &x in todo {
            let new_row = graph
                .contains(x)
                .then(|| bfs_truncated(csr, x, depth, skip, dist_buf, queue_buf));
            let old_row = store.fetch(x.index()).expect("candidate is resident");
            diff_rows(x, old_row, new_row.as_ref().unwrap_or(&gone), delta);
            if commit {
                match new_row {
                    Some(row) => store.put(x.index(), row),
                    None => store.remove(x.index()),
                }
            }
        }
    }

    /// Recompute every row the requirement set implies, from scratch.
    fn materialize_all(&mut self, graph: &DataGraph) {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let Self {
            reqs,
            store,
            snapshot,
            dist_buf,
            queue_buf,
        } = self;
        let csr = snapshot.get(graph);
        store.reset(required_sources(reqs, graph).map(|x| {
            let row = bfs_truncated(csr, x, depth, Skip::Nothing, dist_buf, queue_buf);
            (x.index(), row)
        }));
    }

    /// Shared insert-edge repair: the truncated analogue of the dense
    /// affected-source × finite-target pruning. Valid with the graph in
    /// either its pre-insert (probe) or post-insert (commit) state: a
    /// simple shortest path from `v` never traverses an edge into `v`, so
    /// the BFS row of `v` is identical in both.
    fn insert_edge_delta(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        commit: bool,
    ) -> AffDelta {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let mut delta = AffDelta::new();
        // Affected sources first: `x` with `d_B(x,u) + 1 < d_B(x,v)` and
        // within the horizon. Needs only row lookups, so the (much more
        // expensive) BFS row of `v` is skipped entirely for the common
        // no-candidate insert.
        let candidates = self.scan(|x, row| {
            let through = sat_add(row.get(u.0)?, 1);
            let within = through <= depth && through < row.get(v.0).unwrap_or(INF);
            within.then_some((x, through))
        });
        if candidates.is_empty() {
            return delta;
        }
        let Self {
            store,
            snapshot,
            dist_buf,
            queue_buf,
            ..
        } = self;
        let csr = snapshot.get(graph);
        let vrow = bfs_truncated(csr, v, depth, Skip::Nothing, dist_buf, queue_buf);
        let mut updates: Vec<(u32, u32)> = Vec::new();
        for (x, through) in candidates {
            let row = store.fetch(x.index()).expect("candidate is resident");
            updates.clear();
            for &(y, dvy) in &vrow.entries {
                let cand = sat_add(through, dvy);
                if cand > depth {
                    continue;
                }
                let old = row.get(y).unwrap_or(INF);
                if cand < old {
                    delta.record(x, NodeId(y), old, cand);
                    if commit {
                        updates.push((y, cand));
                    }
                }
            }
            if commit && !updates.is_empty() {
                store.update(x.index(), |row| row.apply_sorted_updates(&updates));
            }
        }
        delta
    }

    fn delete_edge_delta(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        commit: bool,
    ) -> AffDelta {
        self.ensure_slots(graph);
        // Resident sources whose shortest path to `v` may run through the
        // edge `(u, v)` — the truncated delete-candidate test.
        let candidates =
            self.scan(|x, row| (sat_add(row.get(u.0)?, 1) == row.get(v.0)?).then_some(x));
        // Probe: the edge is still present, skip it. Commit: already gone.
        let skip = if commit {
            Skip::Nothing
        } else {
            Skip::Edge(u, v)
        };
        let mut delta = AffDelta::new();
        self.rerun_rows(graph, &candidates, skip, commit, &mut delta);
        delta
    }

    fn delete_node_delta(&mut self, graph: &DataGraph, id: NodeId, commit: bool) -> AffDelta {
        self.ensure_slots(graph);
        let sources = self.scan(|x, row| (x != id && row.get(id.0).is_some()).then_some(x));
        let mut delta = AffDelta::new();
        // The node's own row: every entry becomes INF.
        if let Some(row) = self.store.fetch(id.index()) {
            for &(y, d) in &row.entries {
                delta.record(id, NodeId(y), d, INF);
            }
            if commit {
                self.store.remove(id.index());
            }
        }
        let skip = if commit {
            Skip::Nothing
        } else {
            Skip::Node(id)
        };
        self.rerun_rows(graph, &sources, skip, commit, &mut delta);
        delta
    }

    /// Repair every row the batch `edits` (already applied to `graph`)
    /// can have changed, returning the net delta.
    fn repair_batch(&mut self, graph: &DataGraph, edits: &BatchEdits) -> AffDelta {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        // A created node with a required label starts as its isolated row,
        // exactly as `commit_insert_node` leaves it.
        for &(id, label) in &edits.created {
            if self.required(Some(label)) {
                self.store.put(id.index(), SparseRow::isolated(id));
            }
        }
        let todo = self.scan(|x, row| {
            let created = edits
                .marks
                .get(x.index())
                .is_some_and(|m| m & CREATED_NODE != 0);
            (created || edits.is_candidate(row, depth)).then_some(x)
        });
        let mut delta = AffDelta::new();
        self.rerun_rows(graph, &todo, Skip::Nothing, true, &mut delta);
        delta
    }
}

impl<S: RowStore> DistanceOracle for SparseIndex<S> {
    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.store.distance(u, v)
    }
}

impl<S: RowStore> SlenBackend for SparseIndex<S> {
    fn kind(&self) -> &'static str {
        S::KIND
    }

    fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        Self::with_store(graph, reqs, S::default())
    }

    fn rebuild(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        // Absorb the widened requirements first: the single materialize
        // pass below then covers old and new coverage together.
        self.reqs.absorb(reqs);
        self.materialize_all(graph);
    }

    fn sync_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        self.ensure_slots(graph);
        let deeper = reqs.depth() > self.reqs.depth();
        let widened = reqs
            .labels()
            .iter()
            .any(|l| self.reqs.labels().binary_search(l).is_err());
        if !deeper && !widened {
            return;
        }
        self.reqs.absorb(reqs);
        // A deeper horizon re-runs every resident row (each was truncated
        // too early); a wider label set adds the newly required sources.
        let mut todo = if deeper { self.resident() } else { Vec::new() };
        todo.extend(self.missing_required(graph));
        self.put_bfs_rows(graph, &todo);
    }

    fn narrow_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        self.ensure_slots(graph);
        if self.reqs == *reqs {
            return;
        }
        let deeper = reqs.depth() > self.reqs.depth();
        let shallower = reqs.depth() < self.reqs.depth();
        self.reqs = reqs.clone();
        let depth = self.reqs.depth();
        // Drop rows whose source label left the requirement set. A shrunken
        // horizon needs no BFS: a depth-B truncated row is exactly the full
        // row filtered to `d ≤ B`, so retaining the near entries of a
        // deeper row *is* the shallower row.
        for x in self.resident() {
            if !self.required(graph.label(x)) {
                self.store.remove(x.index());
            } else if shallower {
                self.store
                    .update(x.index(), |row| row.entries.retain(|&(_, d)| d <= depth));
            }
        }
        // A deeper horizon (or a label the old set lacked) needs fresh BFS.
        let mut todo = if deeper { self.resident() } else { Vec::new() };
        todo.extend(self.missing_required(graph));
        self.put_bfs_rows(graph, &todo);
    }

    fn probe_insert_edge(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        debug_assert!(!graph.has_edge(u, v), "probe_insert_edge on present edge");
        self.insert_edge_delta(graph, u, v, false)
    }

    fn probe_delete_edge(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        debug_assert!(graph.has_edge(u, v), "probe_delete_edge on absent edge");
        self.delete_edge_delta(graph, u, v, false)
    }

    fn probe_delete_node(&mut self, graph: &DataGraph, id: NodeId) -> AffDelta {
        debug_assert!(graph.contains(id), "probe_delete_node on absent node");
        self.delete_node_delta(graph, id, false)
    }

    fn commit_insert_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        debug_assert!(graph.has_edge(u, v), "commit before graph mutation");
        self.insert_edge_delta(graph, u, v, true)
    }

    fn commit_delete_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        debug_assert!(!graph.has_edge(u, v), "commit before graph mutation");
        self.delete_edge_delta(graph, u, v, true)
    }

    fn commit_insert_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        self.ensure_slots(graph);
        if self.required(graph.label(id)) {
            self.store.put(id.index(), SparseRow::isolated(id));
        }
        AffDelta::new()
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        debug_assert!(!graph.contains(id), "commit before graph mutation");
        self.delete_node_delta(graph, id, true)
    }

    fn commit_batch(
        &mut self,
        graph: &mut DataGraph,
        updates: &[DataUpdate],
        _hint: RepairHint,
    ) -> Result<BatchCommit, GraphError> {
        let mut edits = BatchEdits {
            marks: vec![0; graph.slot_count()],
            deleted_edges: Vec::new(),
            created: Vec::new(),
        };
        let mut failure = None;
        for update in updates {
            match graph.apply(update) {
                Err(e) => {
                    failure = Some(e);
                    break;
                }
                Ok(created) => match *update {
                    DataUpdate::InsertEdge { from, .. } => edits.mark(from, INSERTED_TAIL),
                    DataUpdate::DeleteEdge { from, to } => {
                        edits.mark(from, DELETED_TAIL);
                        edits.deleted_edges.push((from.0, to.0));
                    }
                    DataUpdate::InsertNode { label } => {
                        let id = created.expect("insert-node creates a node");
                        edits.mark(id, CREATED_NODE);
                        edits.created.push((id, label));
                    }
                    DataUpdate::DeleteNode { node } => edits.mark(node, DELETED_NODE),
                },
            }
        }
        edits.deleted_edges.sort_unstable();
        // Repair before reporting a failure: the index must agree with
        // the graph on the updates that were applied.
        let delta = self.repair_batch(graph, &edits);
        match failure {
            Some(e) => Err(e),
            None => Ok(BatchCommit {
                delta,
                created: edits.created.iter().map(|&(id, _)| id).collect(),
            }),
        }
    }

    fn resident_rows(&self) -> usize {
        (0..self.store.slots())
            .filter(|&i| self.store.is_resident(i))
            .count()
    }

    fn mem_bytes(&self) -> usize {
        self.store.mem_bytes()
    }

    fn io_stats(&self) -> Option<IoStats> {
        self.store.io_stats()
    }

    fn cost_hints(&self) -> CostHints {
        self.store.cost_hints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use crate::incremental::IncrementalIndex;
    use gpnm_graph::paper::fig1;

    fn fig1_sparse() -> (gpnm_graph::paper::Fig1, SparseIndex) {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let s = SparseIndex::build(&f.graph, &reqs);
        (f, s)
    }

    /// The truncated-projection equality every test leans on.
    fn assert_projection(s: &SparseIndex, graph: &DataGraph, dense: &crate::DistanceMatrix) {
        let n = graph.slot_count();
        for i in 0..n {
            let x = NodeId::from_index(i);
            if !s.store.is_resident(i) {
                continue;
            }
            for j in 0..n {
                let y = NodeId::from_index(j);
                let d = dense.get(x, y);
                let expected = if d <= s.depth() { d } else { INF };
                assert_eq!(s.distance(x, y), expected, "d({x:?},{y:?})");
            }
        }
    }

    #[test]
    fn build_matches_truncated_dense() {
        let (f, s) = fig1_sparse();
        // All four pattern labels cover 7 of the 8 nodes (DB1 is not a
        // pattern label).
        assert_eq!(s.resident_rows(), 7);
        assert_eq!(s.depth(), 4);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        assert_eq!(s.distance(f.db1, f.se1), INF, "non-resident row reads INF");
    }

    #[test]
    fn commits_track_dense_through_a_mixed_sequence() {
        let (mut f, mut s) = fig1_sparse();
        let mut dense = IncrementalIndex::build(&f.graph);

        f.graph.add_edge(f.se1, f.te2).unwrap();
        dense.commit_insert_edge(f.se1, f.te2);
        SlenBackend::commit_insert_edge(&mut s, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        dense.commit_delete_edge(&f.graph, f.pm1, f.db1);
        SlenBackend::commit_delete_edge(&mut s, &f.graph, f.pm1, f.db1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        let label = f.interner.get("TE").unwrap();
        let id = f.graph.add_node(label);
        dense.commit_insert_node(f.graph.slot_count());
        SlenBackend::commit_insert_node(&mut s, &f.graph, id, RepairHint::Baseline);
        assert_eq!(s.distance(id, id), 0, "required newcomer is resident");

        f.graph.add_edge(f.s1, id).unwrap();
        dense.commit_insert_edge(f.s1, id);
        SlenBackend::commit_insert_edge(&mut s, &f.graph, f.s1, id, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_node(f.se1).unwrap();
        dense.commit_delete_node(&f.graph, f.se1);
        SlenBackend::commit_delete_node(&mut s, &f.graph, f.se1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());
        assert_eq!(s.distance(f.se1, f.se2), INF, "tombstone row dropped");
    }

    #[test]
    fn probe_equals_commit_delta() {
        let (mut f, mut s) = fig1_sparse();
        let probe = SlenBackend::probe_insert_edge(&mut s, &f.graph, f.se1, f.te2);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let commit =
            SlenBackend::commit_insert_edge(&mut s, &f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_eq!(probe.changed, commit.changed);

        let probe = SlenBackend::probe_delete_edge(&mut s, &f.graph, f.se1, f.s1);
        f.graph.remove_edge(f.se1, f.s1).unwrap();
        let commit =
            SlenBackend::commit_delete_edge(&mut s, &f.graph, f.se1, f.s1, RepairHint::Baseline);
        let (mut p, mut c) = (probe.changed.clone(), commit.changed.clone());
        p.sort_unstable();
        c.sort_unstable();
        assert_eq!(p, c);

        let probe = SlenBackend::probe_delete_node(&mut s, &f.graph, f.s1);
        f.graph.remove_node(f.s1).unwrap();
        let commit = SlenBackend::commit_delete_node(&mut s, &f.graph, f.s1, RepairHint::Baseline);
        let (mut p, mut c) = (probe.changed.clone(), commit.changed.clone());
        p.sort_unstable();
        c.sort_unstable();
        assert_eq!(p, c);
    }

    #[test]
    fn sync_requirements_deepens_and_widens() {
        let (f, mut s) = fig1_sparse();
        assert_eq!(s.resident_rows(), 7);
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        // Widen: DB becomes a pattern label; deepen: a bound of 6 arrives.
        reqs.absorb_label(f.interner.get("DB").unwrap());
        reqs.absorb_bound(gpnm_graph::Bound::Hops(6));
        s.sync_requirements(&f.graph, &reqs);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        // Narrower requirements are a no-op (coverage is monotone).
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.sync_requirements(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
    }

    #[test]
    fn narrow_requirements_matches_a_fresh_build() {
        let (f, mut s) = fig1_sparse();
        // Widen first: DB becomes a source label, the horizon deepens to 6.
        let mut wide = SlenRequirements::of_pattern(&f.pattern);
        wide.absorb_label(f.interner.get("DB").unwrap());
        wide.absorb_bound(gpnm_graph::Bound::Hops(6));
        s.sync_requirements(&f.graph, &wide);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        // Narrow back to the bare pattern: rows drop, entries re-truncate,
        // and the result is indistinguishable from building fresh.
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.narrow_requirements(&f.graph, &narrow);
        let fresh = SparseIndex::build(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), fresh.resident_rows());
        assert_eq!(s.depth(), fresh.depth());
        assert_eq!(s.entry_count(), fresh.entry_count());
        let n = f.graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(s.distance(x, y), fresh.distance(x, y), "d({x:?},{y:?})");
            }
        }
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    #[test]
    fn narrow_requirements_can_widen_too() {
        // "Narrow" re-targets: a requirement set that is wider on one axis
        // and absent on another still lands exactly.
        let (f, mut s) = fig1_sparse();
        let mut only_db = SlenRequirements::empty();
        only_db.absorb_label(f.interner.get("DB").unwrap());
        only_db.absorb_bound(gpnm_graph::Bound::Hops(6));
        s.narrow_requirements(&f.graph, &only_db);
        assert_eq!(s.resident_rows(), 1, "only DB1's row survives");
        assert_eq!(s.depth(), 6);
        let fresh = SparseIndex::build(&f.graph, &only_db);
        assert_eq!(s.entry_count(), fresh.entry_count());
        assert_eq!(s.distance(f.db1, f.se2), fresh.distance(f.db1, f.se2));
    }

    #[test]
    fn unbounded_requirements_store_full_rows() {
        let f = fig1();
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        reqs.absorb_bound(gpnm_graph::Bound::Unbounded);
        let s = SparseIndex::build(&f.graph, &reqs);
        assert_eq!(s.depth(), INF);
        let dense = apsp_matrix(&f.graph);
        assert_projection(&s, &f.graph, &dense);
        // PM1 reaches TE1 in 5 hops — beyond the bounded pattern's horizon
        // of 4, but a full row must resolve it.
        assert_eq!(s.distance(f.pm2, f.te1), dense.get(f.pm2, f.te1));
    }
}
