//! Input generation. Every input is a function of a seed — the workload's
//! fixed dataset seed or `--seed` — and the program under test only ever
//! sees the generated graphs, patterns and batches.

use std::collections::HashSet;

use gpnm_graph::{Bound, DataGraph, LabelInterner, NodeId, PatternGraph};
use gpnm_updates::{DataUpdate, UpdateBatch};
use gpnm_workload::{generate_social_graph, SocialGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of every workload's fixed dataset (its graph and patterns). Like the
/// paper's fixed SNAP graphs, the dataset does not change with `--seed`,
/// which draws the update stream: with graph and patterns drawn per seed,
/// the median tick of `paged-starved` varied by half between seeds, more
/// than any change the benchmark is meant to resolve.
pub const DATASET_SEED: u64 = 0x6770_6e6d;

/// Derive an independent stream seed from `seed`.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser: nearby (seed, stream) pairs give unrelated seeds.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A community-structured social graph.
pub fn social_graph(
    nodes: usize,
    edges: usize,
    labels: usize,
    seed: u64,
) -> (DataGraph, LabelInterner) {
    generate_social_graph(&SocialGraphConfig {
        nodes,
        edges,
        labels,
        communities: labels,
        label_coherence: 0.85,
        intra_community_bias: 0.8,
        seed,
    })
}

/// `count` patterns extracted from `graph`, so each has a non-empty match
/// when registered: on a sparse social graph, patterns with random labels
/// match nothing, which would leave refresh and publish with empty results.
///
/// Each pattern grows a random tree of `nodes` distinct data nodes along
/// edges (either direction), takes their labels, and turns the tree edges
/// into pattern edges with bounds 1..=3; further edges join tree nodes that
/// reach each other within 3 hops, bounded by that distance or more, until
/// the pattern has `edges` edges or no pair is left. The sampled data nodes
/// are a witness match.
pub fn patterns(
    graph: &DataGraph,
    count: usize,
    nodes: usize,
    edges: usize,
    seed: u64,
) -> Vec<PatternGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        if let Some(p) = extract_pattern(graph, nodes, edges, &mut rng) {
            out.push(p);
        }
    }
    out
}

/// One extraction attempt; `None` when the start node's component is too
/// small.
fn extract_pattern(
    graph: &DataGraph,
    nodes: usize,
    edges: usize,
    rng: &mut StdRng,
) -> Option<PatternGraph> {
    let start = random_node(graph, rng, |v| graph.out_degree(v) > 0)?;
    let mut picked = vec![start];
    let mut tree: Vec<(usize, usize)> = Vec::new();
    for _ in 0..nodes * 64 {
        if picked.len() == nodes {
            break;
        }
        let from = rng.gen_range(0..picked.len());
        let v = picked[from];
        let forward = rng.gen_bool(0.5);
        let next = if forward {
            graph.out_neighbors(v)
        } else {
            graph.in_neighbors(v)
        };
        if next.is_empty() {
            continue;
        }
        let w = next[rng.gen_range(0..next.len())];
        if picked.contains(&w) {
            continue;
        }
        picked.push(w);
        let to = picked.len() - 1;
        tree.push(if forward { (from, to) } else { (to, from) });
    }
    if picked.len() < nodes {
        return None;
    }
    let mut pattern = PatternGraph::new();
    let ids: Vec<_> = picked
        .iter()
        .map(|&v| pattern.add_node(graph.label(v).expect("picked live nodes")))
        .collect();
    for (a, b) in tree {
        let bound = Bound::Hops(rng.gen_range(1..=3));
        pattern
            .add_edge(ids[a], ids[b], bound)
            .expect("tree edges are distinct");
    }
    let mut extra: Vec<(usize, usize, u32)> = Vec::new();
    for (a, &v) in picked.iter().enumerate() {
        for (b, dist) in hops_within(graph, v, 3) {
            if let Some(j) = picked.iter().position(|&w| w == b) {
                if j != a && !pattern.has_edge(ids[a], ids[j]) {
                    extra.push((a, j, dist));
                }
            }
        }
    }
    while pattern.edge_count() < edges && !extra.is_empty() {
        let (a, b, dist) = extra.swap_remove(rng.gen_range(0..extra.len()));
        let bound = Bound::Hops(rng.gen_range(dist..=3));
        pattern
            .add_edge(ids[a], ids[b], bound)
            .expect("candidate edges are distinct");
    }
    Some(pattern)
}

/// Nodes reachable from `from` along out-edges within `depth` hops, with
/// their distance.
fn hops_within(graph: &DataGraph, from: NodeId, depth: u32) -> Vec<(NodeId, u32)> {
    // The Vec keeps discovery order, so extraction repeats for a seed.
    let mut found = Vec::new();
    let mut seen = HashSet::from([from]);
    let mut frontier = vec![from];
    for d in 1..=depth {
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in graph.out_neighbors(u) {
                if seen.insert(w) {
                    found.push((w, d));
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    found
}

/// The updates in one tick of a service workload.
#[derive(Debug, Clone, Copy)]
pub struct UpdateMix {
    /// Edge insertions, and as many edge deletions: drawn per tick from
    /// this inclusive range, so tick costs spread instead of clustering.
    pub edge_flips: (usize, usize),
    /// Nodes deleted and re-inserted under a new id with the same label and
    /// edges (1 node deletion, 1 node insertion and `degree` edge
    /// insertions each).
    pub node_replacements: usize,
    /// Highest total degree of a replaced node, which caps the batch size.
    pub max_replaced_degree: usize,
}

/// A stream of `ticks` data-update batches that keeps the graph stationary,
/// so a tick's cost does not depend on how far into the stream a run got —
/// a faster program runs more ticks of the same distribution, not a
/// different graph.
///
/// Each batch holds every update kind: edge insertions re-add edges that
/// earlier ticks deleted (triadic closures until enough have been deleted),
/// edge deletions remove random edges, and node replacements delete a
/// low-degree node and insert a same-label node with the same neighbours.
/// Edge and node counts therefore stay level.
pub fn update_stream(
    base: &DataGraph,
    mix: &UpdateMix,
    ticks: usize,
    seed: u64,
) -> Vec<UpdateBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = base.clone();
    // Edges deleted by earlier ticks, waiting to be re-inserted. Holding
    // about three ticks' worth keeps an edge out for a few ticks on average.
    let mut removed: Vec<(NodeId, NodeId)> = Vec::new();
    let mut batches = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        let mut batch = UpdateBatch::new();
        let flips = rng.gen_range(mix.edge_flips.0..=mix.edge_flips.1);
        for _ in 0..flips {
            let reinsert = if removed.len() > 3 * mix.edge_flips.1 {
                take_reinsertable(&graph, &mut removed, &mut rng)
            } else {
                None
            };
            if let Some((u, v)) = reinsert.or_else(|| triadic_closure(&graph, &mut rng)) {
                graph
                    .add_edge(u, v)
                    .expect("picked an absent edge between live nodes");
                batch.push(DataUpdate::InsertEdge { from: u, to: v });
            }
        }
        for _ in 0..flips {
            if let Some((u, v)) = random_edge(&graph, &mut rng) {
                graph.remove_edge(u, v).expect("picked a live edge");
                removed.push((u, v));
                batch.push(DataUpdate::DeleteEdge { from: u, to: v });
            }
        }
        for _ in 0..mix.node_replacements {
            replace_node(&mut graph, mix.max_replaced_degree, &mut batch, &mut rng);
        }
        batches.push(batch);
    }
    batches
}

/// A uniformly random live node, by rejection over slots.
fn random_node(
    graph: &DataGraph,
    rng: &mut StdRng,
    accept: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let slots = graph.slot_count();
    (0..256)
        .map(|_| NodeId::from_index(rng.gen_range(0..slots)))
        .find(|&v| graph.contains(v) && accept(v))
}

/// A random live edge: a random node with out-edges, then one of them.
fn random_edge(graph: &DataGraph, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let u = random_node(graph, rng, |v| graph.out_degree(v) > 0)?;
    let outs = graph.out_neighbors(u);
    Some((u, outs[rng.gen_range(0..outs.len())]))
}

/// Pop a random previously deleted edge that can be inserted again,
/// discarding entries whose endpoints have since been deleted.
fn take_reinsertable(
    graph: &DataGraph,
    removed: &mut Vec<(NodeId, NodeId)>,
    rng: &mut StdRng,
) -> Option<(NodeId, NodeId)> {
    while !removed.is_empty() {
        let (u, v) = removed.swap_remove(rng.gen_range(0..removed.len()));
        if graph.contains(u) && graph.contains(v) && !graph.has_edge(u, v) {
            return Some((u, v));
        }
    }
    None
}

/// `u → v` closing a path `u → w → v` (the common shape of a new social tie).
fn triadic_closure(graph: &DataGraph, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    for _ in 0..64 {
        let (u, w) = random_edge(graph, rng)?;
        let outs = graph.out_neighbors(w);
        if outs.is_empty() {
            continue;
        }
        let v = outs[rng.gen_range(0..outs.len())];
        if v != u && !graph.has_edge(u, v) {
            return Some((u, v));
        }
    }
    None
}

/// Delete a node of total degree `1..=max_degree` and insert a same-label
/// node wired to the same neighbours.
fn replace_node(
    graph: &mut DataGraph,
    max_degree: usize,
    batch: &mut UpdateBatch,
    rng: &mut StdRng,
) {
    let Some(old) = random_node(graph, rng, |v| {
        let degree = graph.out_degree(v) + graph.in_degree(v);
        (1..=max_degree).contains(&degree)
    }) else {
        return;
    };
    let label = graph.label(old).expect("live node has a label");
    let outs = graph.out_neighbors(old).to_vec();
    let ins: Vec<NodeId> = graph
        .in_neighbors(old)
        .iter()
        .copied()
        .filter(|&u| u != old)
        .collect();
    graph.remove_node(old).expect("picked a live node");
    batch.push(DataUpdate::DeleteNode { node: old });
    let new = graph.add_node(label);
    batch.push(DataUpdate::InsertNode { label });
    for v in outs.into_iter().filter(|&v| v != old) {
        graph.add_edge(new, v).expect("fresh node has no edges");
        batch.push(DataUpdate::InsertEdge { from: new, to: v });
    }
    for u in ins {
        graph.add_edge(u, new).expect("fresh node has no edges");
        batch.push(DataUpdate::InsertEdge { from: u, to: new });
    }
}
