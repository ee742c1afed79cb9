//! The four workloads: what each one runs, at which size, and why.
//!
//! Every workload keeps the adaptive controller off and fixes its refresh
//! arm: the controller decides from measured time, so with it on the work
//! counters would not repeat between runs.

use gpnm_distance::BackendKind;
use gpnm_engine::RefreshStrategy;

use crate::gen::UpdateMix;

/// The named workloads `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many standing patterns, a few updates per tick: refresh, publish and
    /// the fixed per-tick cost dominate.
    Trickle,
    /// Two patterns, large batches and a concurrent reader: the per-update
    /// `SLen` commit dominates.
    Churn,
    /// Paged backend whose cache holds about a third of the index: the only
    /// workload whose working set exceeds the program's cache.
    Paged,
    /// The paper's engine path on the email-EU-core stand-in, with pattern
    /// updates and the §V partition.
    Paper,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Trickle,
        Workload::Churn,
        Workload::Paged,
        Workload::Paper,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trickle => "trickle-k16",
            Workload::Churn => "churn-k2-readers",
            Workload::Paged => "paged-starved",
            Workload::Paper => "paper-cell",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale. `Full` is what `BENCHMARK.json` runs; `Tiny` shrinks every
/// workload so the self-test covers all four in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Self-test sizes.
    Tiny,
}

/// Shape of a workload served by one `GpnmService`.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// `SLen` backend the service is built on.
    pub backend: BackendKind,
    /// Generated social graph: nodes, edges, label alphabet.
    pub nodes: usize,
    /// Edges of the generated graph.
    pub edges: usize,
    /// Label alphabet size.
    pub labels: usize,
    /// Standing patterns registered on the service.
    pub patterns: usize,
    /// Nodes and edges of each generated pattern (bounds 1..=3).
    pub pattern_nodes: usize,
    /// Edges of each generated pattern.
    pub pattern_edges: usize,
    /// Updates in every tick's batch.
    pub mix: UpdateMix,
    /// Refresh arm every pattern is pinned to.
    pub arm: RefreshStrategy,
    /// Whether a reader thread polls every handle while ticks run.
    pub reader: bool,
    /// Paged cache budget as a share of the equivalent in-memory index.
    pub cache_share: Option<f64>,
    /// Reference deployment the traced run times beside each tick.
    pub baseline: Option<Baseline>,
    /// Whether the traced run also prices in-program telemetry.
    pub price_telemetry: bool,
    /// Ticks the traced run's work counters cover (a fixed count, so they
    /// repeat exactly whatever the machine's speed).
    pub counted_ticks: usize,
    /// Times the service is built before each pass of an untraced run;
    /// `setup_s` is the median of all the run's builds. Builds of a few
    /// milliseconds are repeated more, so the median rests on more samples.
    pub setup_reps: usize,
    /// Highest tick rate a run plans for: the pre-generated stream holds
    /// this many batches per measured second.
    pub max_ticks_per_s: usize,
}

/// A reference deployment timed on the same ticks as the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// A fresh sparse index plus a re-match of every pattern on the
    /// post-batch graph (`baseline.rebuild_tick_ms_p50`).
    Rebuild,
    /// The same service on the in-memory sparse backend
    /// (`baseline.sparse_tick_ms_p50`).
    SparseTwin,
}

/// Shape of the `paper-cell` workload, served by `GpnmEngine`.
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Divisor applied to the email-EU-core stand-in (1 = full size).
    pub scale_div: usize,
    /// Pattern nodes and edges (bounds 1..=3).
    pub pattern_nodes: usize,
    /// Pattern edges.
    pub pattern_edges: usize,
    /// Pattern updates per batch.
    pub pattern_updates: usize,
    /// Data updates per batch.
    pub data_updates: usize,
    /// Distinct batches; ticks cycle through them.
    pub batch_pool: usize,
    /// Ticks the traced run's work counters cover.
    pub counted_ticks: usize,
    /// Times the engine is set up before each pass of an untraced run;
    /// `setup_s` is the median of all the run's set-ups.
    pub setup_reps: usize,
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Spec {
    /// One `GpnmService` with standing patterns.
    Service(ServiceSpec),
    /// `GpnmEngine` on the paper's protocol.
    Paper(PaperSpec),
}

impl Workload {
    /// The workload's shape at `size`.
    pub fn spec(self, size: Size) -> Spec {
        let tiny = size == Size::Tiny;
        Spec::Service(match self {
            Workload::Trickle => ServiceSpec {
                backend: BackendKind::Sparse,
                nodes: if tiny { 400 } else { 4_000 },
                edges: if tiny { 1_000 } else { 10_500 },
                labels: if tiny { 12 } else { 20 },
                patterns: if tiny { 4 } else { 16 },
                pattern_nodes: 6,
                pattern_edges: 6,
                mix: UpdateMix {
                    edge_flips: (1, 3),
                    node_replacements: 1,
                    max_replaced_degree: 2,
                },
                arm: RefreshStrategy::Eliminative,
                reader: false,
                cache_share: None,
                baseline: None,
                price_telemetry: true,
                counted_ticks: if tiny { 4 } else { 40 },
                setup_reps: if tiny { 1 } else { 2 },
                max_ticks_per_s: 300,
            },
            Workload::Churn => ServiceSpec {
                backend: BackendKind::Sparse,
                nodes: if tiny { 600 } else { 12_000 },
                edges: if tiny { 1_500 } else { 30_000 },
                labels: if tiny { 12 } else { 60 },
                patterns: 2,
                pattern_nodes: 8,
                pattern_edges: 8,
                mix: UpdateMix {
                    edge_flips: if tiny { (6, 10) } else { (40, 60) },
                    node_replacements: if tiny { 1 } else { 6 },
                    max_replaced_degree: 4,
                },
                arm: RefreshStrategy::Rematch,
                reader: true,
                cache_share: None,
                baseline: Some(Baseline::Rebuild),
                price_telemetry: false,
                counted_ticks: if tiny { 3 } else { 12 },
                setup_reps: if tiny { 1 } else { 6 },
                max_ticks_per_s: 200,
            },
            Workload::Paged => ServiceSpec {
                backend: BackendKind::Paged,
                nodes: if tiny { 400 } else { 3_000 },
                edges: if tiny { 1_000 } else { 7_500 },
                labels: if tiny { 12 } else { 60 },
                patterns: 2,
                pattern_nodes: 8,
                pattern_edges: 8,
                mix: UpdateMix {
                    edge_flips: (2, 4),
                    node_replacements: 1,
                    max_replaced_degree: 2,
                },
                arm: RefreshStrategy::Eliminative,
                reader: false,
                cache_share: Some(1.0 / 3.0),
                baseline: Some(Baseline::SparseTwin),
                price_telemetry: false,
                counted_ticks: if tiny { 3 } else { 10 },
                setup_reps: if tiny { 1 } else { 10 },
                max_ticks_per_s: 300,
            },
            Workload::Paper => {
                return Spec::Paper(PaperSpec {
                    scale_div: if tiny { 8 } else { 1 },
                    pattern_nodes: 10,
                    pattern_edges: 10,
                    pattern_updates: 6,
                    data_updates: if tiny { 4 } else { 6 },
                    batch_pool: if tiny { 4 } else { 400 },
                    counted_ticks: if tiny { 4 } else { 64 },
                    setup_reps: if tiny { 1 } else { 2 },
                })
            }
        })
    }
}
