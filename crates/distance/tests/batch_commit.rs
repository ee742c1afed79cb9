//! Batch commits against the per-update commit loop.
//!
//! `SlenBackend::commit_batch` applies a whole batch to the graph and
//! repairs the index once. These property tests draw random valid batches
//! that mix edge inserts and deletes, node deletes, and inserted nodes
//! that receive edges later in the same batch, and check:
//!
//! * `SparseIndex`'s one-pass override leaves every row equal to what the
//!   per-update `commit_update` loop leaves, and its net delta equals the
//!   loop's deltas folded by `NetDelta`, as a sorted set of records;
//! * the same through `AnyBackend::Sparse`, record order included, so a
//!   missing delegation (which would fall back to the default fold, whose
//!   order differs) fails;
//! * the paged backend runs the same override over its paged row store:
//!   its net delta equals the in-memory one record for record, directly
//!   and through `AnyBackend::Paged`;
//! * the default fold on the dense and partitioned backends: their net
//!   deltas project onto the sparse net delta;
//! * a batch that fails mid-way leaves the index repaired for exactly the
//!   updates before the failure.

use gpnm_distance::{
    commit_update, project_delta, AffDelta, AnyBackend, BackendKind, BatchCommit, IncrementalIndex,
    NetDelta, PagedConfig, PagedIndex, PartitionedBackend, RepairHint, SlenBackend,
    SlenRequirements, SparseIndex,
};
use gpnm_graph::{Bound, DataGraph, DataUpdate, GraphError, Label, NodeId};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use proptest::test_runner::TestCaseError;

/// Raw generated case: graph shape, requirement knobs, batch ops.
type RawCase = (
    usize,               // nodes
    usize,               // labels
    Vec<(u32, u32)>,     // edge endpoints (mod nodes)
    u8,                  // label mask (which labels are required)
    u8,                  // depth selector: 0 = unbounded, else Hops(sel)
    Vec<(u8, u32, u32)>, // ops: (kind, a, b)
);

fn raw_case() -> impl PropStrategy<Value = RawCase> {
    (4usize..16, 1usize..5).prop_flat_map(|(nodes, labels)| {
        (
            (nodes..nodes + 1),
            (labels..labels + 1),
            vec(((0u32..nodes as u32), (0u32..nodes as u32)), 0..40),
            1u8..16,
            0u8..5,
            vec(((0u8..6), (0u32..4096), (0u32..4096)), 1..24),
        )
    })
}

fn build_graph(nodes: usize, labels: usize, edges: &[(u32, u32)]) -> (DataGraph, Vec<Label>) {
    let label_ids: Vec<Label> = (0..labels as u32).map(Label).collect();
    let mut g = DataGraph::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| g.add_node(label_ids[i % labels]))
        .collect();
    for &(a, b) in edges {
        let (u, v) = (ids[a as usize % nodes], ids[b as usize % nodes]);
        if u != v {
            let _ = g.add_edge(u, v);
        }
    }
    (g, label_ids)
}

fn requirements(label_ids: &[Label], mask: u8, depth_sel: u8) -> SlenRequirements {
    let mut reqs = SlenRequirements::empty();
    for (i, &l) in label_ids.iter().enumerate() {
        if mask & (1 << (i % 4)) != 0 {
            reqs.absorb_label(l);
        }
    }
    reqs.absorb_bound(if depth_sel == 0 {
        Bound::Unbounded
    } else {
        Bound::Hops(depth_sel as u32)
    });
    reqs
}

/// Turn raw ops into a batch that is valid in order, drawn against a
/// shadow copy of `graph`. Kinds 0–1 insert an edge (kind 1 prefers an
/// endpoint created earlier in the batch), 2 deletes an edge, 3 inserts a
/// node and 4–5 delete a node. Also returns every slot's label, created
/// and deleted nodes included.
fn draw_batch(
    graph: &DataGraph,
    label_ids: &[Label],
    ops: &[(u8, u32, u32)],
) -> (Vec<DataUpdate>, Vec<Label>) {
    let mut shadow = graph.clone();
    let mut labels: Vec<Label> = (0..graph.slot_count())
        .map(|i| graph.label(NodeId::from_index(i)).expect("dense fixture"))
        .collect();
    let mut created: Vec<NodeId> = Vec::new();
    let mut batch = Vec::new();
    for &(kind, a, b) in ops {
        let live: Vec<NodeId> = shadow.nodes().collect();
        let update = match kind {
            0 | 1 if live.len() >= 2 => {
                let mut u = live[a as usize % live.len()];
                let v = live[b as usize % live.len()];
                let fresh: Vec<NodeId> = created
                    .iter()
                    .copied()
                    .filter(|&c| shadow.contains(c))
                    .collect();
                if kind == 1 && !fresh.is_empty() {
                    u = fresh[a as usize % fresh.len()];
                }
                let (u, v) = if b % 2 == 0 { (u, v) } else { (v, u) };
                if u == v || shadow.has_edge(u, v) {
                    continue;
                }
                DataUpdate::InsertEdge { from: u, to: v }
            }
            2 => {
                let all: Vec<(NodeId, NodeId)> = shadow.edges().collect();
                if all.is_empty() {
                    continue;
                }
                let (u, v) = all[a as usize % all.len()];
                DataUpdate::DeleteEdge { from: u, to: v }
            }
            3 => DataUpdate::InsertNode {
                label: label_ids[a as usize % label_ids.len()],
            },
            4 | 5 if live.len() > 2 => DataUpdate::DeleteNode {
                node: live[a as usize % live.len()],
            },
            _ => continue,
        };
        if let Some(id) = shadow.apply(&update).expect("drawn valid") {
            created.push(id);
            let DataUpdate::InsertNode { label } = update else {
                unreachable!("only insert-node creates")
            };
            labels.push(label);
        }
        batch.push(update);
    }
    (batch, labels)
}

/// The per-update loop: commit one update at a time, fold the deltas.
fn commit_each<B: SlenBackend>(
    index: &mut B,
    graph: &mut DataGraph,
    batch: &[DataUpdate],
) -> Result<BatchCommit, GraphError> {
    let mut net = NetDelta::new();
    let mut created = Vec::new();
    for update in batch {
        let (delta, id) = commit_update(index, graph, update, RepairHint::Baseline)?;
        net.push(&delta);
        created.extend(id);
    }
    Ok(BatchCommit {
        delta: net.finish(),
        created,
    })
}

fn sorted(delta: &AffDelta) -> Vec<(NodeId, NodeId, u32, u32)> {
    let mut records = delta.changed.clone();
    records.sort_unstable();
    records
}

/// Two indexes answer every pair of `graph`'s slots identically and keep
/// the same number of rows — for sparse rows (canonical sorted vectors)
/// that is bitwise row equality.
fn assert_same_rows<A: SlenBackend, B: SlenBackend>(
    graph: &DataGraph,
    a: &A,
    b: &B,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.resident_rows(),
        b.resident_rows(),
        "{} resident rows",
        what
    );
    let n = graph.slot_count();
    for i in 0..n {
        let x = NodeId::from_index(i);
        for j in 0..n {
            let y = NodeId::from_index(j);
            prop_assert_eq!(
                a.distance(x, y),
                b.distance(x, y),
                "{} distance({:?},{:?})",
                what,
                x,
                y
            );
        }
    }
    Ok(())
}

fn tiny_paged() -> PagedConfig {
    PagedConfig {
        page_size: 256,
        cache_budget_bytes: 512,
    }
}

fn check_case(case: RawCase) -> Result<(), TestCaseError> {
    let (nodes, labels, edges, mask, depth_sel, ops) = case;
    let (graph, label_ids) = build_graph(nodes, labels, &edges);
    let reqs = requirements(&label_ids, mask, depth_sel);
    let depth = reqs.depth();
    let (batch, slot_labels) = draw_batch(&graph, &label_ids, &ops);
    let resident = |x: NodeId| reqs.labels().contains(&slot_labels[x.index()]);

    // Reference: sparse, one update at a time.
    let mut loop_graph = graph.clone();
    let mut looped = SparseIndex::build(&graph, &reqs);
    let expected = commit_each(&mut looped, &mut loop_graph, &batch).expect("valid batch");
    let want = sorted(&expected.delta);

    // The sparse override, directly and through `AnyBackend`.
    let mut g = graph.clone();
    let mut sparse = SparseIndex::build(&graph, &reqs);
    let direct = sparse
        .commit_batch(&mut g, &batch, RepairHint::Baseline)
        .expect("valid batch");
    prop_assert_eq!(sorted(&direct.delta), want.clone(), "sparse net delta");
    prop_assert_eq!(&direct.delta.affected, &expected.delta.affected);
    prop_assert_eq!(&direct.created, &expected.created);
    prop_assert_eq!(sparse.entry_count(), looped.entry_count());
    assert_same_rows(&loop_graph, &sparse, &looped, "sparse")?;

    let mut g = graph.clone();
    let mut any = AnyBackend::Sparse(SparseIndex::build(&graph, &reqs));
    let got = any
        .commit_batch(&mut g, &batch, RepairHint::Baseline)
        .expect("valid batch");
    // Record order too: the override emits rows in slot order, the
    // default fold in first-change order, so a missing delegation shows.
    prop_assert_eq!(
        &got.delta.changed,
        &direct.delta.changed,
        "AnyBackend::Sparse net delta"
    );
    assert_same_rows(&loop_graph, &any, &looped, "AnyBackend::Sparse")?;

    // The default fold: dense and partitioned project onto sparse.
    let mut g = graph.clone();
    let mut dense = <IncrementalIndex as SlenBackend>::build(&graph, &reqs);
    let got = dense
        .commit_batch(&mut g, &batch, RepairHint::Baseline)
        .expect("valid batch");
    let mut projected = project_delta(&got.delta, depth, resident);
    projected.sort_unstable();
    prop_assert_eq!(projected, want.clone(), "dense net delta, projected");

    let mut g = graph.clone();
    let mut part = PartitionedBackend::build(&graph, &reqs);
    part.prepare_accelerator(&g);
    let got = part
        .commit_batch(&mut g, &batch, RepairHint::Accelerated)
        .expect("valid batch");
    let mut projected = project_delta(&got.delta, depth, resident);
    projected.sort_unstable();
    prop_assert_eq!(projected, want.clone(), "partitioned net delta, projected");
    assert_same_rows(&g, &part, &dense, "partitioned vs dense")?;

    // Paged is the sparse override over paged rows: the same records in
    // the same order (the default fold's first-change order would differ).
    let mut g = graph.clone();
    let mut paged = PagedIndex::with_config(&graph, &reqs, tiny_paged());
    let got = paged
        .commit_batch(&mut g, &batch, RepairHint::Baseline)
        .expect("valid batch");
    prop_assert_eq!(sorted(&got.delta), want, "paged net delta");
    prop_assert_eq!(
        &got.delta.changed,
        &direct.delta.changed,
        "paged net delta, record order"
    );
    prop_assert_eq!(&got.created, &direct.created);
    assert_same_rows(&g, &paged, &looped, "paged")?;

    let mut g = graph.clone();
    let mut any = AnyBackend::Paged(PagedIndex::with_config(&graph, &reqs, tiny_paged()));
    let got = any
        .commit_batch(&mut g, &batch, RepairHint::Baseline)
        .expect("valid batch");
    prop_assert_eq!(
        &got.delta.changed,
        &direct.delta.changed,
        "AnyBackend::Paged net delta"
    );
    assert_same_rows(&g, &any, &looped, "AnyBackend::Paged")?;
    Ok(())
}

/// Cut the batch at `cut` and insert an update that is invalid there:
/// the failed commit must leave the graph holding exactly the prefix and
/// the index equal to a clean commit of it, on the sparse override (over
/// both row stores) and on the default fold alike.
fn check_failure(case: RawCase, cut: usize) -> Result<(), TestCaseError> {
    let (nodes, labels, edges, mask, depth_sel, ops) = case;
    let (graph, label_ids) = build_graph(nodes, labels, &edges);
    let reqs = requirements(&label_ids, mask, depth_sel);
    let (batch, _) = draw_batch(&graph, &label_ids, &ops);
    let prefix = &batch[..cut % (batch.len() + 1)];

    for kind in [BackendKind::Sparse, BackendKind::Paged, BackendKind::Dense] {
        let mut want_graph = graph.clone();
        let mut want = AnyBackend::of_kind(kind, &graph, &reqs);
        want.commit_batch(&mut want_graph, prefix, RepairHint::Baseline)
            .expect("valid prefix");
        // Deleting a slot past the end is invalid whatever the prefix did.
        let mut failing = prefix.to_vec();
        failing.push(DataUpdate::DeleteNode {
            node: NodeId::from_index(want_graph.slot_count() + 1),
        });
        failing.extend_from_slice(&batch[prefix.len()..]);

        let mut g = graph.clone();
        let mut index = AnyBackend::of_kind(kind, &graph, &reqs);
        let err = index.commit_batch(&mut g, &failing, RepairHint::Baseline);
        prop_assert!(err.is_err(), "{:?} accepted an invalid update", kind);
        prop_assert_eq!(g.edge_count(), want_graph.edge_count());
        prop_assert_eq!(g.node_count(), want_graph.node_count());
        prop_assert_eq!(g.slot_count(), want_graph.slot_count());
        assert_same_rows(&g, &index, &want, kind.name())?;
    }
    Ok(())
}

proptest! {
    /// Finite bounds: truncated rows.
    #[test]
    fn batch_commit_matches_the_update_loop(case in raw_case()) {
        let (nodes, labels, edges, mask, depth_sel, ops) = case;
        let depth_sel = if depth_sel == 0 { 2 } else { depth_sel };
        check_case((nodes, labels, edges, mask, depth_sel, ops))?;
    }

    /// Unbounded (`*`) depth: full rows.
    #[test]
    fn batch_commit_matches_the_update_loop_unbounded(case in raw_case()) {
        let (nodes, labels, edges, mask, _, ops) = case;
        check_case((nodes, labels, edges, mask, 0, ops))?;
    }

    /// A mid-batch failure leaves the applied prefix committed.
    #[test]
    fn failed_batch_keeps_the_applied_prefix(case in raw_case(), cut in 0usize..24) {
        check_failure(case, cut)?;
    }
}
