//! Runs of the three service workloads (`trickle-k16`, `churn-k2-readers`,
//! `paged-starved`): one closed-loop writer calls `GpnmService::apply` on
//! pre-generated batches, each call starting when the previous returns.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpnm_distance::{BackendKind, SlenBackend, SlenRequirements, SparseIndex};
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{match_graph, MatchResult, MatchSemantics};
use gpnm_service::{GpnmService, HandleId, PatternHandle, ReadFront};
use gpnm_telemetry::NoopSubscriber;
use gpnm_updates::UpdateBatch;

use crate::gen::{self, subseed, DATASET_SEED};
use crate::mirror::{Mirror, TickTrace, COMMIT_BY_KIND};
use crate::report::{self, Outcome};
use crate::stats::{median, ms, ratio, upper_percentile, Passes};
use crate::workload::{Baseline, ServiceSpec};

type Service = GpnmService<gpnm_distance::AnyBackend>;

/// Reads the reader thread times as one sample.
const READS_PER_SAMPLE: usize = 1024;
/// Batches the telemetry pricing applies under each configuration.
const TELEMETRY_TICKS: usize = 60;

/// Everything a run feeds the service, derived from the seed.
struct Inputs {
    graph: DataGraph,
    patterns: Vec<PatternGraph>,
    batches: Vec<UpdateBatch>,
    /// Paged cache budget in bytes.
    cache_budget: Option<usize>,
}

fn inputs(spec: &ServiceSpec, seed: u64, seconds: Duration) -> Inputs {
    let (graph, _) = gen::social_graph(
        spec.nodes,
        spec.edges,
        spec.labels,
        subseed(DATASET_SEED, 1),
    );
    let patterns = gen::patterns(
        &graph,
        spec.patterns,
        spec.pattern_nodes,
        spec.pattern_edges,
        subseed(DATASET_SEED, 2),
    );
    // Enough for a traced run; an untraced run's passes replay a prefix.
    let ticks = (seconds.as_secs_f64() * spec.max_ticks_per_s as f64).ceil() as usize
        + spec.counted_ticks
        + if spec.price_telemetry {
            TELEMETRY_TICKS
        } else {
            0
        };
    let batches = gen::update_stream(&graph, &spec.mix, ticks, subseed(seed, 3));
    let cache_budget = spec.cache_share.map(|share| {
        let index = SparseIndex::build(&graph, &union_requirements(&patterns));
        (index.mem_bytes() as f64 * share) as usize
    });
    Inputs {
        graph,
        patterns,
        batches,
        cache_budget,
    }
}

fn union_requirements(patterns: &[PatternGraph]) -> SlenRequirements {
    let mut reqs = SlenRequirements::empty();
    for p in patterns {
        reqs.absorb(&SlenRequirements::of_pattern(p));
    }
    reqs
}

/// Build the service and register every pattern: the work `setup_s` times.
fn build(
    spec: &ServiceSpec,
    kind: BackendKind,
    inputs: &Inputs,
    graph: DataGraph,
) -> (Service, Vec<PatternHandle>) {
    let mut builder = GpnmService::builder().backend(kind).adaptive(false);
    if let Some(bytes) = inputs.cache_budget.filter(|_| kind == BackendKind::Paged) {
        builder = builder.cache_budget_mb(bytes as f64 / (1u64 << 20) as f64);
    }
    let mut svc = builder
        .build(graph)
        .expect("the workload's backend is admitted");
    let handles = inputs
        .patterns
        .iter()
        .map(|p| {
            let h = svc
                .register_pattern(p.clone(), MatchSemantics::Simulation)
                .expect("generated patterns are non-empty");
            svc.set_refresh_strategy(h, spec.arm)
                .expect("just registered");
            h
        })
        .collect();
    (svc, handles)
}

/// Each pattern's result on `graph`, matched from scratch over a freshly
/// built index — the correctness oracle.
fn oracle(graph: &DataGraph, patterns: &[PatternGraph]) -> Vec<MatchResult> {
    let index = SparseIndex::build(graph, &union_requirements(patterns));
    patterns
        .iter()
        .map(|p| match_graph(p, graph, &index, MatchSemantics::Simulation))
        .collect()
}

/// Whether every pattern's standing result equals the oracle's.
fn matches_oracle(svc: &Service, handles: &[PatternHandle], patterns: &[PatternGraph]) -> bool {
    let expected = oracle(svc.graph(), patterns);
    handles
        .iter()
        .zip(&expected)
        .all(|(&h, want)| svc.result(h).expect("registered") == want)
}

/// What the reader thread saw.
struct ReaderStats {
    reads: u64,
    elapsed: Duration,
    /// Mean `read_view` latency of each block of reads, in ns.
    read_ns: Vec<f64>,
}

/// Poll every handle's published view until `stop` is set.
fn read_loop(front: &ReadFront, handles: &[HandleId], stop: &AtomicBool) -> ReaderStats {
    let start = Instant::now();
    let mut stats = ReaderStats {
        reads: 0,
        elapsed: Duration::ZERO,
        read_ns: Vec::new(),
    };
    let rounds = READS_PER_SAMPLE.div_ceil(handles.len());
    // RELAXED: the stop flag publishes no data; the join orders the rest.
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        for _ in 0..rounds {
            for &h in handles {
                let view = front
                    .read_view(h)
                    .expect("handle published at registration");
                black_box(view.result_version);
            }
        }
        let n = (rounds * handles.len()) as u64;
        stats.read_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        stats.reads += n;
    }
    stats.elapsed = start.elapsed();
    stats
}

/// Run `writer` on this thread while, if `enabled`, a reader thread polls
/// `front`; the reader is stopped and joined before returning.
fn with_reader<R>(
    enabled: bool,
    front: ReadFront,
    handles: &[PatternHandle],
    writer: impl FnOnce() -> R,
) -> (R, Option<ReaderStats>) {
    if !enabled {
        return (writer(), None);
    }
    let ids: Vec<HandleId> = handles.iter().map(|&h| h.into()).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&front, &ids, &stop));
        let out = writer();
        // RELAXED: see `read_loop`.
        stop.store(true, Ordering::Relaxed);
        let stats = reader.join().expect("reader thread panicked");
        (out, Some(stats))
    })
}

/// One run of a service workload.
pub fn run(spec: &ServiceSpec, seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let inputs = inputs(spec, seed, seconds);
    if traced {
        let (svc, handles) = build(spec, spec.backend, &inputs, inputs.graph.clone());
        run_traced(spec, &inputs, svc, handles, seconds)
    } else {
        run_untraced(spec, &inputs, seconds)
    }
}

/// Build the service `spec.setup_reps` times, timing every build into
/// `setup`, and keep the last.
fn build_timed(
    spec: &ServiceSpec,
    inputs: &Inputs,
    setup: &mut Vec<f64>,
) -> (Service, Vec<PatternHandle>) {
    let mut built = None;
    for _ in 0..spec.setup_reps.max(1) {
        drop(built.take());
        let graph = inputs.graph.clone();
        let t = Instant::now();
        built = Some(build(spec, spec.backend, inputs, graph));
        setup.push(t.elapsed().as_secs_f64());
    }
    built.expect("built at least once")
}

/// The untraced run: [`Passes::COUNT`] passes through the same batches,
/// each on a freshly built service. Every pass must end with the same
/// results, and the first pass's must equal a from-scratch match.
fn run_untraced(spec: &ServiceSpec, inputs: &Inputs, seconds: Duration) -> Outcome {
    let mut outcome = Outcome::default();
    let mut passes = Passes::new(seconds);
    let mut setup = Vec::with_capacity(Passes::COUNT * spec.setup_reps);
    let mut first: Option<Vec<MatchResult>> = None;
    for pass in 0..Passes::COUNT {
        let (mut svc, handles) = build_timed(spec, inputs, &mut setup);
        let front = svc.reader();
        passes.begin();
        let (exhausted, _) = with_reader(spec.reader, front, &handles, || {
            for (i, batch) in inputs.batches.iter().enumerate() {
                if !passes.runs(i) {
                    return false;
                }
                let t = Instant::now();
                let report = svc.apply(batch);
                passes.record(i, t.elapsed());
                outcome.attempted += 1;
                match report {
                    Ok(report) => {
                        black_box(report);
                    }
                    Err(e) => {
                        outcome.failed += 1;
                        outcome
                            .notes
                            .push(format!("pass {pass} tick {i} failed: {e}"));
                    }
                }
            }
            true
        });
        if exhausted && pass == 0 {
            outcome
                .notes
                .push("the pre-generated stream ran out before the time did".to_string());
        }
        let results: Vec<MatchResult> = handles
            .iter()
            .map(|&h| svc.result(h).expect("registered").clone())
            .collect();
        match &first {
            None => {
                if results != oracle(svc.graph(), &inputs.patterns) {
                    outcome.failed += 1;
                    outcome
                        .notes
                        .push("final results differ from a from-scratch match".to_string());
                }
                first = Some(results);
            }
            Some(want) if &results != want => {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "pass {pass} ended with other results than the first pass"
                ));
            }
            Some(_) => {}
        }
    }
    let ticks_ms = passes.tick_ms();
    let updates = inputs.batches[passes.timed()]
        .iter()
        .map(UpdateBatch::len)
        .sum();
    set_latency(&mut outcome, &ticks_ms, updates);
    outcome.set("setup_s", median(&setup));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome
}

/// `tick_ms_p50`, `tick_ms_p90` and `updates_per_s` from per-tick times.
pub fn set_latency(outcome: &mut Outcome, ticks_ms: &[f64], updates: usize) {
    let busy_s = ticks_ms.iter().sum::<f64>() / 1e3;
    outcome.set("tick_ms_p50", median(ticks_ms));
    outcome.set("tick_ms_p90", upper_percentile(ticks_ms, 0.9));
    outcome.set("updates_per_s", ratio(updates as f64, busy_s));
    outcome.notes.push(format!(
        "{} ticks timed, each the upper quartile of its {} passes; {} of them beyond the reported p90",
        ticks_ms.len(),
        Passes::COUNT,
        ticks_ms.len() - crate::stats::upper_rank(ticks_ms.len(), 0.9)
    ));
}

/// Work counts summed over the counted window.
#[derive(Default)]
struct Counts {
    submitted: u64,
    committed: u64,
    eliminated: u64,
    slen_changed: u64,
    affected_nodes: u64,
    repair_calls: u64,
    refreshed: u64,
    changed: u64,
    pages_read: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Counts {
    fn add(&mut self, t: &TickTrace, patterns: usize) {
        self.submitted += t.submitted;
        self.committed += t.committed;
        self.eliminated += t.eliminated;
        self.slen_changed += t.slen_changed;
        self.affected_nodes += t.affected_nodes;
        self.repair_calls += t.repair_calls;
        self.refreshed += patterns as u64;
        self.changed += t.patterns_changed;
        if let Some(io) = &t.io {
            self.pages_read += io.pages_read;
            self.hits += io.cache_hits;
            self.misses += io.cache_misses;
            self.evictions += io.cache_evictions;
        }
    }
}

fn run_traced(
    spec: &ServiceSpec,
    inputs: &Inputs,
    mut svc: Service,
    handles: Vec<PatternHandle>,
    seconds: Duration,
) -> Outcome {
    let mut outcome = Outcome::default();
    report::zero_per_layer(&mut outcome);
    let mut mirror = Mirror::new(
        inputs.graph.clone(),
        spec.backend,
        inputs.cache_budget,
        &inputs.patterns,
        spec.arm,
    );
    let mut twin = (spec.baseline == Some(Baseline::SparseTwin))
        .then(|| build(spec, BackendKind::Sparse, inputs, inputs.graph.clone()));

    let mut traces: Vec<TickTrace> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut baseline_ms = Vec::new();
    let mut counts = Counts::default();
    let mut resident = (0usize, 0usize);
    // The traced phase leaves enough of the stream for the telemetry
    // pricing, which continues it where the traced phase stopped.
    let reserved = if spec.price_telemetry {
        TELEMETRY_TICKS
    } else {
        0
    };
    let mut batches = inputs.batches[..inputs.batches.len() - reserved].iter();
    let front = svc.reader();
    let ((), reader) = with_reader(spec.reader, front, &handles, || {
        let start = Instant::now();
        while traces.len() < spec.counted_ticks || start.elapsed() < seconds {
            let Some(batch) = batches.next() else { break };
            let t = Instant::now();
            let report = svc.apply(batch);
            let apply = t.elapsed();
            outcome.attempted += 1;
            let trace = mirror.tick(batch);
            let mut ok = report.is_ok()
                && handles
                    .iter()
                    .zip(mirror.results())
                    .all(|(&h, (result, version))| {
                        svc.result(h).expect("registered") == result
                            && svc.result_version(h).expect("registered") == version
                    });
            match spec.baseline {
                Some(Baseline::Rebuild) => {
                    let t = Instant::now();
                    let rebuilt = oracle(mirror.graph(), &inputs.patterns);
                    baseline_ms.push(ms(t.elapsed()));
                    ok &= rebuilt
                        .iter()
                        .zip(mirror.results())
                        .all(|(want, (got, _))| want == got);
                }
                Some(Baseline::SparseTwin) => {
                    let (twin_svc, twin_handles) = twin.as_mut().expect("built for this baseline");
                    let t = Instant::now();
                    let twin_report = twin_svc.apply(batch);
                    baseline_ms.push(ms(t.elapsed()));
                    ok &= twin_report.is_ok()
                        && twin_handles.iter().zip(&handles).all(|(&a, &b)| {
                            twin_svc.result(a).expect("registered")
                                == svc.result(b).expect("registered")
                        });
                }
                None => {}
            }
            if !ok {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "tick {}: traced and untraced results differ",
                    outcome.attempted
                ));
            }
            untraced_ms.push(ms(apply));
            overhead_ms.push(ms(apply) - ms(trace.total()));
            if traces.len() < spec.counted_ticks {
                counts.add(&trace, handles.len());
                if traces.len() + 1 == spec.counted_ticks {
                    resident = (mirror.index().resident_rows(), mirror.index().mem_bytes());
                }
            }
            traces.push(trace);
        }
    });
    drop(mirror);
    drop(twin);

    let layer = |f: &dyn Fn(&TickTrace) -> Duration| -> f64 {
        median(&traces.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    outcome.set("updates.validate_ms", layer(&|t| t.validate));
    outcome.set("updates.reduce_ms", layer(&|t| t.reduce));
    outcome.set("updates.detect_ms", layer(&|t| t.detect));
    outcome.set("distance.commit_ms", layer(&|t| t.commit));
    for (i, name) in COMMIT_BY_KIND.into_iter().enumerate() {
        outcome.set(name, layer(&|t| t.commit_by_kind[i]));
    }
    outcome.set("engine.plan_ms", layer(&|t| t.plan));
    outcome.set("matcher.refresh_ms", layer(&|t| t.refresh));
    outcome.set("matcher.refresh_max_ms", layer(&|t| t.refresh_max));
    outcome.set("service.publish_ms", layer(&|t| t.publish));
    outcome.set("service.overhead_ms", median(&overhead_ms));
    outcome.set("tick.untraced_ms", median(&untraced_ms));

    outcome.set(
        "updates.reduced_frac",
        ratio(
            (counts.submitted - counts.committed) as f64,
            counts.submitted as f64,
        ),
    );
    outcome.set(
        "updates.eliminated_frac",
        ratio(counts.eliminated as f64, counts.committed as f64),
    );
    outcome.set("distance.slen_changed", counts.slen_changed as f64);
    outcome.set("distance.affected_nodes", counts.affected_nodes as f64);
    outcome.set("distance.resident_rows", resident.0 as f64);
    outcome.set("distance.index_mb", resident.1 as f64 / (1u64 << 20) as f64);
    outcome.set("distance.pages_read", counts.pages_read as f64);
    outcome.set(
        "distance.cache_hit_ratio",
        ratio(counts.hits as f64, (counts.hits + counts.misses) as f64),
    );
    outcome.set("distance.evictions", counts.evictions as f64);
    outcome.set("matcher.repair_calls", counts.repair_calls as f64);
    outcome.set(
        "matcher.changed_frac",
        ratio(counts.changed as f64, counts.refreshed as f64),
    );
    if let Some(r) = reader {
        outcome.set("service.read_ns_p50", median(&r.read_ns));
        outcome.set(
            "service.reads_per_s",
            ratio(r.reads as f64, r.elapsed.as_secs_f64()),
        );
    }
    match spec.baseline {
        Some(Baseline::Rebuild) => {
            outcome.set("baseline.rebuild_tick_ms_p50", median(&baseline_ms))
        }
        Some(Baseline::SparseTwin) => {
            outcome.set("baseline.sparse_tick_ms_p50", median(&baseline_ms))
        }
        None => {}
    }
    if spec.price_telemetry {
        let (noop, collector) = price_telemetry(
            &mut svc,
            &handles,
            &inputs.batches[traces.len()..],
            &mut outcome,
        );
        outcome.set("telemetry.noop_overhead_pct", noop);
        outcome.set("telemetry.collector_overhead_pct", collector);
    }
    if !matches_oracle(&svc, &handles, &inputs.patterns) {
        outcome.failed += 1;
        outcome
            .notes
            .push("final results differ from a from-scratch match".to_string());
    }
    outcome.notes.push(format!(
        "{} traced ticks; counters cover the first {}",
        traces.len(),
        spec.counted_ticks
    ));
    outcome
}

/// What a tick costs with a no-op subscriber and with a span collector
/// installed, in percent over no subscriber. Two clones of the service
/// follow it through the same batches; each batch is applied once per
/// configuration, rotating which goes first, and the result is the median
/// over batches of the paired per-tick ratio.
fn price_telemetry(
    svc: &mut Service,
    handles: &[PatternHandle],
    batches: &[UpdateBatch],
    outcome: &mut Outcome,
) -> (f64, f64) {
    let mut noop = svc.clone();
    let mut collected = svc.clone();
    let mut noop_pct = Vec::with_capacity(TELEMETRY_TICKS);
    let mut collector_pct = Vec::with_capacity(TELEMETRY_TICKS);
    for (i, batch) in batches.iter().take(TELEMETRY_TICKS).enumerate() {
        let mut took = [0.0f64; 3];
        for k in 0..3 {
            let config = (i + k) % 3;
            let (host, collector) = match config {
                0 => (&mut *svc, None),
                1 => {
                    let sub: Arc<dyn tracing::Subscriber> = Arc::new(NoopSubscriber::new());
                    tracing::subscriber::replace_global_default(Some(sub));
                    (&mut noop, None)
                }
                _ => (&mut collected, Some(gpnm_telemetry::install_collector())),
            };
            let t = Instant::now();
            let report = host.apply(batch);
            took[config] = ms(t.elapsed());
            gpnm_telemetry::uninstall_collector();
            if let Some(c) = collector {
                black_box(c.finish());
            }
            outcome.attempted += 1;
            if let Err(e) = report {
                outcome.failed += 1;
                outcome.notes.push(format!("telemetry tick failed: {e}"));
            }
        }
        noop_pct.push((ratio(took[1], took[0]) - 1.0) * 100.0);
        collector_pct.push((ratio(took[2], took[0]) - 1.0) * 100.0);
    }
    let agree = |other: &Service| {
        handles
            .iter()
            .all(|&h| other.result(h).expect("registered") == svc.result(h).expect("registered"))
    };
    if !(agree(&noop) && agree(&collected)) {
        outcome.failed += 1;
        outcome
            .notes
            .push("results differ between telemetry configurations".to_string());
    }
    (median(&noop_pct), median(&collector_pct))
}
