//! The outside-in traced tick.
//!
//! A [`Mirror`] holds its own copy of a service's state — graph, `SLen`
//! backend, per-pattern results and a read front — built by the same calls
//! `ServiceBuilder::build` and `register_pattern` make. [`Mirror::tick`]
//! re-drives one `GpnmService::apply` through the layers' public functions,
//! in the order `apply` calls them, and times every call from outside. No
//! timer inside the program is read, so the per-layer split needs no
//! instrumentation in it; `service.overhead_ms` (untraced `apply` minus the
//! traced tick) prices whatever `apply` does beyond these calls.

use std::time::{Duration, Instant};

use gpnm_distance::{AnyBackend, BackendKind, IoStats, RepairHint, SlenBackend, SlenRequirements};
use gpnm_engine::pipeline::{
    commit_data_update, plan_for_data_update, refresh_pattern_strategy, CommittedUpdate,
    SharedElimination,
};
use gpnm_engine::RefreshStrategy;
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{match_graph, MatchResult, MatchSemantics, RepairPlan};
use gpnm_service::{HandleId, ReadFront, ReadView};
use gpnm_updates::{reduce_batch, DataUpdate, Update, UpdateBatch};

/// The per-kind commit metrics, in `TickTrace::commit_by_kind` order.
pub const COMMIT_BY_KIND: [&str; 4] = [
    "distance.commit_ms.insert_edge",
    "distance.commit_ms.delete_edge",
    "distance.commit_ms.insert_node",
    "distance.commit_ms.delete_node",
];

fn kind_index(update: &DataUpdate) -> usize {
    match update {
        DataUpdate::InsertEdge { .. } => 0,
        DataUpdate::DeleteEdge { .. } => 1,
        DataUpdate::InsertNode { .. } => 2,
        DataUpdate::DeleteNode { .. } => 3,
    }
}

/// One registered pattern's state in the mirror.
struct Session {
    handle: HandleId,
    pattern: PatternGraph,
    result: MatchResult,
    version: u64,
}

/// Layer times and work counts of one traced tick.
#[derive(Debug, Clone, Default)]
pub struct TickTrace {
    /// `UpdateBatch::validate_data`.
    pub validate: Duration,
    /// `reduce_batch`.
    pub reduce: Duration,
    /// Every `commit_data_update`, plus the backend's `prepare_accelerator`.
    pub commit: Duration,
    /// `commit_data_update` by update kind ([`COMMIT_BY_KIND`] order).
    pub commit_by_kind: [Duration; 4],
    /// Every `plan_for_data_update`, all patterns.
    pub plan: Duration,
    /// `SharedElimination::detect`.
    pub detect: Duration,
    /// Every pattern's `refresh_pattern_strategy` plus its delta extraction.
    pub refresh: Duration,
    /// The slowest single pattern's refresh.
    pub refresh_max: Duration,
    /// Building the views and `ReadFront::publish_tick`.
    pub publish: Duration,
    /// Updates submitted.
    pub submitted: u64,
    /// Updates left after reduction.
    pub committed: u64,
    /// Committed updates the EH-Tree eliminated.
    pub eliminated: u64,
    /// `SLen` pairs changed (`AffDelta::changed`).
    pub slen_changed: u64,
    /// Nodes in the commits' `Aff_N` sets, with multiplicity.
    pub affected_nodes: u64,
    /// Repair passes run, all patterns.
    pub repair_calls: u64,
    /// Patterns whose published delta is non-empty.
    pub patterns_changed: u64,
    /// Paging during the tick (`None` on in-memory backends).
    pub io: Option<IoStats>,
}

impl TickTrace {
    /// The traced tick: the sum of the timed calls.
    pub fn total(&self) -> Duration {
        self.validate
            + self.reduce
            + self.commit
            + self.plan
            + self.detect
            + self.refresh
            + self.publish
    }
}

/// A private copy of a service's state, driven layer by layer.
pub struct Mirror {
    graph: DataGraph,
    index: AnyBackend,
    sessions: Vec<Session>,
    arm: RefreshStrategy,
    front: ReadFront,
    tick: u64,
}

impl Mirror {
    /// Build the state `ServiceBuilder::new().backend(kind)` plus one
    /// `register_pattern` per pattern would build, with the paged cache
    /// budget set as `cache_budget_mb` sets it.
    pub fn new(
        graph: DataGraph,
        kind: BackendKind,
        cache_budget_bytes: Option<usize>,
        patterns: &[PatternGraph],
        arm: RefreshStrategy,
    ) -> Self {
        let mut index = AnyBackend::of_kind(kind, &graph, &SlenRequirements::empty());
        if let (AnyBackend::Paged(paged), Some(bytes)) = (&mut index, cache_budget_bytes) {
            paged.set_cache_budget(bytes);
        }
        let mut reqs = SlenRequirements::empty();
        let front = ReadFront::new();
        let mut sessions = Vec::with_capacity(patterns.len());
        for (i, pattern) in patterns.iter().enumerate() {
            reqs.absorb(&SlenRequirements::of_pattern(pattern));
            index.sync_requirements(&graph, &reqs);
            let result = match_graph(pattern, &graph, &index, MatchSemantics::Simulation);
            let handle = HandleId::from_raw(i as u64);
            front.publish(
                handle,
                ReadView {
                    result: result.clone(),
                    result_version: 0,
                    tick: 0,
                },
            );
            sessions.push(Session {
                handle,
                pattern: pattern.clone(),
                result,
                version: 0,
            });
        }
        Mirror {
            graph,
            index,
            sessions,
            arm,
            front,
            tick: 0,
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The backend.
    pub fn index(&self) -> &AnyBackend {
        &self.index
    }

    /// Each pattern's current result and version, in registration order.
    pub fn results(&self) -> impl Iterator<Item = (&MatchResult, u64)> {
        self.sessions.iter().map(|s| (&s.result, s.version))
    }

    /// Apply `batch` the way `GpnmService::apply` does, timing each call.
    pub fn tick(&mut self, batch: &UpdateBatch) -> TickTrace {
        let mut trace = TickTrace {
            submitted: batch.len() as u64,
            ..TickTrace::default()
        };
        let io_before = self.index.io_stats();

        let t = Instant::now();
        batch
            .validate_data(&self.graph)
            .expect("generated batches are valid");
        trace.validate = t.elapsed();

        let t = Instant::now();
        let reduced = reduce_batch(&self.graph, &PatternGraph::new(), batch);
        trace.reduce = t.elapsed();
        trace.committed = reduced.len() as u64;

        // The service's default repair hint is `Accelerated`.
        let t = Instant::now();
        self.index.prepare_accelerator(&self.graph);
        trace.commit = t.elapsed();

        let mut committed: Vec<CommittedUpdate> = Vec::with_capacity(reduced.len());
        let mut plans: Vec<Vec<RepairPlan>> = self
            .sessions
            .iter()
            .map(|_| Vec::with_capacity(reduced.len()))
            .collect();
        for update in reduced.updates() {
            let Update::Data(du) = update else {
                unreachable!("service workloads submit data updates only");
            };
            let t = Instant::now();
            let cu = commit_data_update(
                &mut self.graph,
                &mut self.index,
                du,
                RepairHint::Accelerated,
            )
            .expect("validated batch commits");
            let took = t.elapsed();
            trace.commit += took;
            trace.commit_by_kind[kind_index(du)] += took;
            trace.slen_changed += cu.delta.changed.len() as u64;
            trace.affected_nodes += cu.delta.affected.len() as u64;

            let t = Instant::now();
            for (sess, pattern_plans) in self.sessions.iter().zip(plans.iter_mut()) {
                pattern_plans.push(plan_for_data_update(
                    du,
                    &cu.delta,
                    &sess.pattern,
                    &self.graph,
                    &sess.result,
                    cu.created,
                ));
            }
            trace.plan += t.elapsed();
            committed.push(cu);
        }

        let t = Instant::now();
        let shared = SharedElimination::detect(&committed);
        trace.detect = t.elapsed();
        trace.eliminated = shared.eliminated_count() as u64;

        let mut deltas = Vec::with_capacity(self.sessions.len());
        for (sess, pattern_plans) in self.sessions.iter_mut().zip(plans.iter()) {
            let t = Instant::now();
            let prev = sess.result.clone();
            let stats = refresh_pattern_strategy(
                self.arm,
                &sess.pattern,
                &self.graph,
                &self.index,
                MatchSemantics::Simulation,
                &mut sess.result,
                pattern_plans,
                &shared,
            );
            sess.version += 1;
            let delta = sess.result.delta_from(&prev, sess.version);
            let took = t.elapsed();
            trace.refresh += took;
            trace.refresh_max = trace.refresh_max.max(took);
            trace.repair_calls += stats.repair_calls as u64;
            trace.patterns_changed += u64::from(!delta.is_empty());
            deltas.push(delta);
        }
        self.tick += 1;

        let t = Instant::now();
        let tick = self.tick;
        let items: Vec<_> = self
            .sessions
            .iter()
            .zip(deltas)
            .map(|(sess, delta)| {
                (
                    sess.handle,
                    ReadView {
                        result: sess.result.clone(),
                        result_version: sess.version,
                        tick,
                    },
                    delta,
                )
            })
            .collect();
        self.front.publish_tick(items);
        trace.publish = t.elapsed();

        trace.io = match (io_before, self.index.io_stats()) {
            (Some(before), Some(after)) => Some(after.since(&before)),
            _ => None,
        };
        trace
    }
}
