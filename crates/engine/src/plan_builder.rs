//! Translate updates (plus their detection artifacts) into repair plans.
//!
//! The [`gpnm_matcher::repair`] contract (see its docs) asks the caller
//! for every *primary* membership trigger. This module centralizes that
//! derivation so every strategy satisfies the contract the same way.

use gpnm_distance::AffDelta;
use gpnm_graph::{DataGraph, NodeId, NodeSet, PatternGraph, PatternNodeId};
use gpnm_matcher::{MatchResult, RepairPlan};
use gpnm_updates::{Candidates, DataUpdate, PatternUpdate};

/// Plan for a data update, given the `SLen` delta its commit produced.
///
/// * `verify` — the affected nodes (their distances changed).
/// * additions — only distance *decreases* (edge inserts) or fresh nodes
///   can admit new members; deletions only remove. For decreases, a
///   pattern node may gain a member only if some affected node carries its
///   label and is not yet matched.
pub fn plan_for_data_update(
    update: &DataUpdate,
    delta: &AffDelta,
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &MatchResult,
    created: Option<NodeId>,
) -> RepairPlan {
    let mut plan = RepairPlan::new();
    plan.verify = delta.affected.clone();
    match update {
        DataUpdate::InsertEdge { .. } => {
            // Distances shrank: any pattern node with an unmatched affected
            // node of its label may gain members.
            for u in pattern.nodes() {
                let Some(lu) = pattern.label(u) else { continue };
                let gains = delta
                    .affected
                    .iter()
                    .any(|v| graph.label(v) == Some(lu) && !result.contains(u, v));
                if gains {
                    plan.addition_sources.push(u);
                }
            }
        }
        DataUpdate::InsertNode { label } => {
            if let Some(id) = created {
                plan.verify.insert(id);
                for u in pattern.nodes() {
                    if pattern.label(u) == Some(*label) {
                        plan.addition_sources.push(u);
                    }
                }
            }
        }
        // Deletions only lengthen/lose paths: no additions possible.
        DataUpdate::DeleteEdge { .. } | DataUpdate::DeleteNode { .. } => {}
    }
    plan
}

/// One net plan for a whole committed batch, given its net delta
/// ([`gpnm_distance::BatchCommit`]) and the post-batch graph.
///
/// * `verify` — the net affected nodes plus the created nodes.
/// * additions — a pattern node may gain members only through a distance
///   that *decreased* over the batch or a created node: it is an addition
///   source if an endpoint of a decreased pair carries its label and is
///   not yet matched to it, or a created node carries its label.
///
/// `result` is the pattern's pre-batch result.
pub fn plan_for_batch(
    delta: &AffDelta,
    created: &[NodeId],
    pattern: &PatternGraph,
    graph: &DataGraph,
    result: &MatchResult,
) -> RepairPlan {
    let mut plan = RepairPlan::new();
    plan.verify = delta.affected.clone();
    for &id in created {
        plan.verify.insert(id);
    }
    let mut closer = NodeSet::new();
    for &(x, y, old, new) in &delta.changed {
        if new < old {
            closer.insert(x);
            closer.insert(y);
        }
    }
    for u in pattern.nodes() {
        let Some(lu) = pattern.label(u) else { continue };
        let gains = created.iter().any(|&id| graph.label(id) == Some(lu))
            || closer
                .iter()
                .any(|v| graph.label(v) == Some(lu) && !result.contains(u, v));
        if gains {
            plan.addition_sources.push(u);
        }
    }
    plan
}

/// Plan for a pattern update, given its DER-I candidate sets.
///
/// The plan must be computed against the *pre-update* pattern for
/// `DeleteNode` (the incident edges are consulted); all strategies call it
/// right before applying the update.
pub fn plan_for_pattern_update(
    update: &PatternUpdate,
    candidates: &Candidates,
    pattern: &PatternGraph,
    next_pattern_slot: usize,
) -> RepairPlan {
    let mut plan = RepairPlan::new();
    plan.verify = candidates.can_rn.clone();
    match *update {
        // A new constraint only removes members.
        PatternUpdate::InsertEdge { .. } => {}
        // A removed constraint can admit members at both endpoints.
        PatternUpdate::DeleteEdge { from, to } => {
            plan.addition_sources.push(from);
            plan.addition_sources.push(to);
        }
        // The new pattern node (its id is the next slot) starts unmatched.
        PatternUpdate::InsertNode { .. } => {
            plan.addition_sources
                .push(PatternNodeId::from_index(next_pattern_slot));
        }
        // Neighbors' constraints relax when a pattern node disappears.
        PatternUpdate::DeleteNode { node } => {
            let mut neighbors: Vec<PatternNodeId> = pattern
                .out_edges(node)
                .iter()
                .map(|&(t, _)| t)
                .chain(pattern.in_edges(node).iter().map(|&(s, _)| s))
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            plan.addition_sources.extend(neighbors);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::{IncrementalIndex, RepairHint, SlenBackend, SlenRequirements, SparseIndex};
    use gpnm_graph::paper::fig1;
    use gpnm_graph::Bound;
    use gpnm_matcher::{match_graph, repair, MatchSemantics};
    use gpnm_updates::candidates_for;

    #[test]
    fn data_insert_plan_flags_addition_sources() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        let result = match_graph(&f.pattern, &f.graph, &idx, MatchSemantics::DualSimulation);
        // Under dual semantics TE2 is unmatched; UD1 shortens paths into
        // TE2, so p_te must be an addition source.
        let up = DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        };
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let delta = idx.commit_insert_edge(f.se1, f.te2);
        let plan = plan_for_data_update(&up, &delta, &f.pattern, &f.graph, &result, None);
        assert!(plan.addition_sources.contains(&f.p_te));
        assert!(!plan.verify.is_empty());
    }

    #[test]
    fn data_delete_plan_has_no_additions() {
        let mut f = fig1();
        let mut idx = IncrementalIndex::build(&f.graph);
        let result = match_graph(&f.pattern, &f.graph, &idx, MatchSemantics::Simulation);
        let up = DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.s1,
        };
        f.graph.remove_edge(f.se1, f.s1).unwrap();
        let delta = idx.commit_delete_edge(&f.graph, f.se1, f.s1);
        let plan = plan_for_data_update(&up, &delta, &f.pattern, &f.graph, &result, None);
        assert!(plan.addition_sources.is_empty());
    }

    /// Commit `batch` to fig1 through the sparse backend's one-pass batch
    /// commit and derive the net plan against `semantics`' initial result.
    fn batch_plan(
        batch: &[DataUpdate],
        semantics: MatchSemantics,
    ) -> (
        gpnm_graph::paper::Fig1,
        SparseIndex,
        MatchResult,
        RepairPlan,
    ) {
        let mut f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut idx = SparseIndex::build(&f.graph, &reqs);
        let result = match_graph(&f.pattern, &f.graph, &idx, semantics);
        let commit = idx
            .commit_batch(&mut f.graph, batch, RepairHint::Baseline)
            .expect("valid batch");
        let plan = plan_for_batch(
            &commit.delta,
            &commit.created,
            &f.pattern,
            &f.graph,
            &result,
        );
        (f, idx, result, plan)
    }

    #[test]
    fn batch_plan_flags_decreases_and_repairs_to_scratch() {
        let f = fig1();
        let batch = [
            DataUpdate::InsertEdge {
                from: f.se1,
                to: f.te2,
            },
            DataUpdate::DeleteEdge {
                from: f.se1,
                to: f.s1,
            },
        ];
        let semantics = MatchSemantics::DualSimulation;
        let (f, idx, mut result, plan) = batch_plan(&batch, semantics);
        // As for the single insert: the shortened paths into the unmatched
        // TE2 make p_te an addition source.
        assert!(plan.addition_sources.contains(&f.p_te));
        assert!(!plan.verify.is_empty());
        repair(&f.pattern, &f.graph, &idx, semantics, &mut result, &plan);
        assert_eq!(result, match_graph(&f.pattern, &f.graph, &idx, semantics));
    }

    #[test]
    fn batch_plan_of_deletions_has_no_additions() {
        let f = fig1();
        let batch = [
            DataUpdate::DeleteEdge {
                from: f.se1,
                to: f.s1,
            },
            DataUpdate::DeleteNode { node: f.db1 },
        ];
        let (_, _, _, plan) = batch_plan(&batch, MatchSemantics::Simulation);
        assert!(plan.addition_sources.is_empty());
        assert!(!plan.verify.is_empty());
    }

    #[test]
    fn batch_plan_seeds_created_nodes() {
        let f = fig1();
        let te = f.interner.get("TE").unwrap();
        let created = NodeId::from_index(f.graph.slot_count());
        let batch = [
            DataUpdate::InsertNode { label: te },
            DataUpdate::InsertEdge {
                from: f.s1,
                to: created,
            },
        ];
        let (f, idx, mut result, plan) = batch_plan(&batch, MatchSemantics::Simulation);
        assert!(plan.verify.contains(created));
        assert!(plan.addition_sources.contains(&f.p_te));
        repair(
            &f.pattern,
            &f.graph,
            &idx,
            MatchSemantics::Simulation,
            &mut result,
            &plan,
        );
        let scratch = match_graph(&f.pattern, &f.graph, &idx, MatchSemantics::Simulation);
        assert_eq!(result, scratch);
        assert!(result.contains(f.p_te, created), "the newcomer matches");
    }

    #[test]
    fn batch_plan_of_a_net_nil_batch_is_empty() {
        let f = fig1();
        let batch = [
            DataUpdate::InsertEdge {
                from: f.se1,
                to: f.te2,
            },
            DataUpdate::DeleteEdge {
                from: f.se1,
                to: f.te2,
            },
        ];
        let (_, _, _, plan) = batch_plan(&batch, MatchSemantics::Simulation);
        assert!(plan.is_empty(), "distances ended where they started");
    }

    #[test]
    fn pattern_plans_by_kind() {
        let f = fig1();
        let idx = IncrementalIndex::build(&f.graph);
        let iq = match_graph(&f.pattern, &f.graph, &idx, MatchSemantics::Simulation);
        // Insert: verify = Can_RN, no additions.
        let ins = PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_te,
            bound: Bound::Hops(2),
        };
        let can = candidates_for(&f.pattern, &f.graph, &idx, &iq, &ins);
        let plan = plan_for_pattern_update(&ins, &can, &f.pattern, f.pattern.slot_count());
        assert!(plan.addition_sources.is_empty());
        assert!(plan.verify.contains(f.pm2));
        // Delete: endpoints become addition sources.
        let del = PatternUpdate::DeleteEdge {
            from: f.p_se,
            to: f.p_te,
        };
        let can = candidates_for(&f.pattern, &f.graph, &idx, &iq, &del);
        let plan = plan_for_pattern_update(&del, &can, &f.pattern, f.pattern.slot_count());
        assert_eq!(plan.addition_sources, vec![f.p_se, f.p_te]);
        // DeleteNode: pattern neighbors become addition sources.
        let deln = PatternUpdate::DeleteNode { node: f.p_se };
        let can = candidates_for(&f.pattern, &f.graph, &idx, &iq, &deln);
        let plan = plan_for_pattern_update(&deln, &can, &f.pattern, f.pattern.slot_count());
        assert!(plan.addition_sources.contains(&f.p_pm));
        assert!(plan.addition_sources.contains(&f.p_te));
    }
}
