//! Runs of `paper-cell`: the paper's UA-GPNM engine path
//! (`GpnmEngine::subsequent_query` on the partitioned backend) over the
//! email-EU-core stand-in, with mixed pattern and data update batches.
//!
//! As in the paper's evaluation, every batch applies to the same base
//! graphs: each tick clones the prepared engine (untimed) and times one
//! `subsequent_query`. Ticks cycle through a pool of distinct batches; an
//! untraced run makes [`Passes::COUNT`] passes, each on a freshly prepared
//! engine.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gpnm_distance::{SlenBackend, SlenRequirements, SparseIndex};
use gpnm_engine::{ExecStats, GpnmEngine, Strategy};
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{match_graph, MatchResult, MatchSemantics};
use gpnm_updates::UpdateBatch;
use gpnm_workload::{
    generate_batch, generate_pattern, generate_social_graph, Dataset, PatternConfig, UpdateProtocol,
};

use crate::gen::{subseed, DATASET_SEED};
use crate::report::{self, Outcome};
use crate::service_run::set_latency;
use crate::stats::{median, ms, ratio, Passes};
use crate::workload::PaperSpec;

type Engine = GpnmEngine;

/// One run of `paper-cell`.
pub fn run(spec: &PaperSpec, seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let dataset = Dataset::EmailEuCore;
    let config = if spec.scale_div > 1 {
        dataset.config_scaled(subseed(DATASET_SEED, 1), spec.scale_div)
    } else {
        dataset.config(subseed(DATASET_SEED, 1))
    };
    let (graph, interner) = generate_social_graph(&config);
    let pattern = generate_pattern(
        &PatternConfig {
            nodes: spec.pattern_nodes,
            edges: spec.pattern_edges,
            bound_range: (1, 3),
            seed: subseed(DATASET_SEED, 2),
        },
        &interner,
    );
    let protocol = UpdateProtocol::from_scale(spec.pattern_updates, spec.data_updates);
    let batches: Vec<UpdateBatch> = (0..spec.batch_pool as u64)
        .map(|i| {
            generate_batch(
                &graph,
                &pattern,
                &interner,
                &protocol,
                subseed(seed, 100 + i),
            )
        })
        .collect();

    if traced {
        return run_traced(spec, &set_up(&graph, &pattern), &batches, seconds);
    }
    let mut outcome = Outcome::default();
    let mut passes = Passes::new(seconds);
    let mut setup = Vec::with_capacity(Passes::COUNT * spec.setup_reps);
    // Each tick's result in the first pass; later passes must repeat it, and
    // the last pass also checks it against a re-match.
    let mut results: Vec<MatchResult> = Vec::new();
    let mut last = None;
    for pass in 0..Passes::COUNT {
        drop(last.take());
        let mut base = None;
        for _ in 0..spec.setup_reps.max(1) {
            drop(base.take());
            let t = Instant::now();
            base = Some(set_up(&graph, &pattern));
            setup.push(t.elapsed().as_secs_f64());
        }
        let base = base.expect("set up at least once");
        passes.begin();
        for (i, batch) in batches.iter().cycle().enumerate() {
            if !passes.runs(i) {
                break;
            }
            let mut engine = base.clone();
            let t = Instant::now();
            let stats = engine.subsequent_query(batch, Strategy::UaGpnm);
            passes.record(i, t.elapsed());
            outcome.attempted += 1;
            if pass == 0 {
                results.push(engine.result().clone());
            }
            if let Err(e) = black_box(stats) {
                outcome.failed += 1;
                outcome
                    .notes
                    .push(format!("pass {pass} tick {i} failed: {e}"));
            } else if engine.result() != &results[i]
                || (pass + 1 == Passes::COUNT && engine.result() != &engine.scratch_query())
            {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "pass {pass} tick {i}: result differs from the first pass or a re-match"
                ));
            }
            last = Some(engine);
        }
    }
    if let Some(engine) = &last {
        if !matches_oracle(engine) {
            outcome.failed += 1;
            outcome
                .notes
                .push("final result differs from a from-scratch match".to_string());
        }
    }
    let ticks_ms = passes.tick_ms();
    let timed = passes.timed();
    let updates = batches
        .iter()
        .cycle()
        .skip(timed.start)
        .take(timed.len())
        .map(UpdateBatch::len)
        .sum();
    set_latency(&mut outcome, &ticks_ms, updates);
    outcome.set("setup_s", median(&setup));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome
}

/// Engine construction, `initial_query` and `prepare_partition`: the work
/// `setup_s` times.
fn set_up(graph: &DataGraph, pattern: &PatternGraph) -> Engine {
    let mut engine = Engine::new(graph.clone(), pattern.clone(), MatchSemantics::Simulation);
    engine.initial_query();
    engine.prepare_partition();
    engine
}

/// Whether the engine's result equals a match over a freshly built index.
fn matches_oracle(engine: &Engine) -> bool {
    let reqs = SlenRequirements::of_pattern(engine.pattern());
    let index = SparseIndex::build(engine.graph(), &reqs);
    engine.result()
        == &match_graph(
            engine.pattern(),
            engine.graph(),
            &index,
            MatchSemantics::Simulation,
        )
}

/// The traced run: the per-phase split `subsequent_query` returns in its
/// `ExecStats`, and `Strategy::Scratch` on the same batches, whose results
/// must equal UA-GPNM's bitwise.
fn run_traced(
    spec: &PaperSpec,
    base: &Engine,
    batches: &[UpdateBatch],
    seconds: Duration,
) -> Outcome {
    let mut outcome = Outcome::default();
    report::zero_per_layer(&mut outcome);
    let mut stats: Vec<ExecStats> = Vec::new();
    let mut ticks_ms = Vec::new();
    let mut scratch_ms = Vec::new();
    let (mut submitted, mut reduced, mut eliminated, mut slen, mut repairs) = (0, 0, 0, 0, 0);
    let mut resident = (0usize, 0usize);
    let start = Instant::now();
    for batch in batches.iter().cycle() {
        if stats.len() >= spec.counted_ticks && start.elapsed() >= seconds {
            break;
        }
        outcome.attempted += 1;
        let mut ua = base.clone();
        let t = Instant::now();
        let ua_stats = ua.subsequent_query(batch, Strategy::UaGpnm);
        let took = t.elapsed();
        let mut scratch = base.clone();
        let t = Instant::now();
        let scratch_stats = scratch.subsequent_query(batch, Strategy::Scratch);
        scratch_ms.push(ms(t.elapsed()));
        let (Ok(s), Ok(_)) = (ua_stats, scratch_stats) else {
            outcome.failed += 1;
            outcome
                .notes
                .push(format!("tick {} failed", outcome.attempted));
            continue;
        };
        if ua.result() != scratch.result() {
            outcome.failed += 1;
            outcome.notes.push(format!(
                "tick {}: UA-GPNM and Scratch results differ",
                outcome.attempted
            ));
        }
        ticks_ms.push(ms(took));
        if stats.len() < spec.counted_ticks {
            submitted += s.updates_submitted;
            reduced += s.updates_after_reduction;
            eliminated += s.eliminated;
            slen += s.slen_changes;
            repairs += s.repair_calls;
            if stats.len() + 1 == spec.counted_ticks {
                resident = (ua.backend().resident_rows(), ua.backend().mem_bytes());
            }
        }
        stats.push(s);
    }
    let phase = |f: &dyn Fn(&ExecStats) -> Duration| -> f64 {
        median(&stats.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    outcome.set("engine.slen_ms", phase(&|s| s.slen_time));
    outcome.set("engine.detect_ms", phase(&|s| s.detect_time));
    outcome.set("engine.tree_ms", phase(&|s| s.tree_time));
    outcome.set("engine.repair_ms", phase(&|s| s.repair_time));
    outcome.set(
        "engine.unattributed_ms",
        phase(&|s| {
            s.total_time
                .saturating_sub(s.slen_time + s.detect_time + s.tree_time + s.repair_time)
        }),
    );
    outcome.set("tick.untraced_ms", median(&ticks_ms));
    outcome.set("baseline.scratch_tick_ms_p50", median(&scratch_ms));
    outcome.set(
        "updates.reduced_frac",
        ratio((submitted - reduced) as f64, submitted as f64),
    );
    outcome.set(
        "updates.eliminated_frac",
        ratio(eliminated as f64, reduced as f64),
    );
    outcome.set("distance.slen_changed", slen as f64);
    outcome.set("distance.resident_rows", resident.0 as f64);
    outcome.set("distance.index_mb", resident.1 as f64 / (1u64 << 20) as f64);
    outcome.set("matcher.repair_calls", repairs as f64);
    outcome.notes.push(format!(
        "{} traced ticks; counters cover the first {}",
        stats.len(),
        spec.counted_ticks
    ));
    outcome
}
