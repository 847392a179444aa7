//! Headless perf harness: runs the sweep / cross-validation / solver hot
//! paths before and after the allocation-free-engine + warm-started-solver
//! overhaul and emits `BENCH_sweep.json`, so every PR has a recorded perf
//! trajectory instead of an empty benches directory.
//!
//! The "before" side is not a guess: the pre-optimization engine is
//! preserved in this binary as trace-path [`EvalBackend`]s
//! ([`TracePathEventSim`], [`TracePathNetSim`]) that drive the exact same
//! event loop through the fully instrumented, allocate-per-call entry
//! points (`run_batch_ext` with owned jobs and span clones) — precisely
//! what `EventSimBackend`/`NetSimBackend` did before the scratch arena
//! existed. Because both sides share one event loop, the harness can also
//! **prove** the optimization changed nothing: it bit-compares every
//! priced point between the legacy and fast paths and exits non-zero on
//! any mismatch (that check, not wall-clock, is what CI gates on).
//!
//! Usage:
//! ```text
//! perf_harness [--small] [--out PATH]
//! ```
//! `--small` runs a reduced grid (CI-sized); `--out` defaults to
//! `BENCH_sweep.json` in the current directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use libra_bench::{
    default_registry, sweep_workloads_with_link, EventSimBackend, LinkParams, NetSimBackend,
    Session,
};
use libra_core::cost::CostModel;
use libra_core::dispatch::Dispatcher;
use libra_core::eval::{validate_plan, Analytical, CommPlan, EvalBackend};
use libra_core::expr::{compile, compile_seeded};
use libra_core::network::NetworkShape;
use libra_core::opt::MIN_DIM_BW;
use libra_core::presets;
use libra_core::scenario::{JsonLinesSink, Scenario};
use libra_core::sweep::{SweepEngine, SweepGrid, SweepWorkload};
use libra_core::LibraError;
use libra_net::stage_overhead_ps;
use libra_sim::collective::{run_batch_ext, BatchExt, CollectiveJob, FixedOrder};
use libra_sim::event::{ps_to_secs, Time};
use libra_workloads::zoo::PaperModel;

/// Global allocation counter: every `alloc`/`realloc` bumps it, so a delta
/// around a single-threaded timed section is the section's allocation
/// count.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// The preserved pre-optimization backends (the "before" side).
// ---------------------------------------------------------------------------

/// PR-2's `EventSimBackend::eval_plan`, verbatim: owned jobs (span clones),
/// fully instrumented trace-path engine, fresh allocations per call.
struct TracePathEventSim {
    chunks: usize,
}

fn eval_plan_trace_path(
    n_dims: usize,
    bw: &[f64],
    plan: &CommPlan,
    chunks: usize,
    mut ext_of: impl FnMut(&libra_core::eval::CommPhase) -> BatchExt,
) -> Result<f64, LibraError> {
    validate_plan(n_dims, bw, plan)?;
    let mut total = 0.0f64;
    for phase in &plan.phases {
        if phase.repeat == 0 {
            continue;
        }
        let jobs: Vec<CollectiveJob> = phase
            .ops
            .iter()
            .filter(|op| op.bytes > 0.0 && !op.span.is_trivial())
            .map(|op| CollectiveJob {
                collective: op.collective,
                bytes: op.bytes,
                span: op.span.clone(),
                chunks,
                release: 0,
            })
            .collect();
        if jobs.is_empty() {
            continue;
        }
        let ext = ext_of(phase);
        let res = run_batch_ext(n_dims, bw, &ext, &jobs, &mut FixedOrder);
        total += phase.repeat as f64 * ps_to_secs(res.makespan());
    }
    Ok(total)
}

impl EvalBackend for TracePathEventSim {
    fn name(&self) -> &str {
        "event-sim@trace-path"
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        eval_plan_trace_path(n_dims, bw, plan, self.chunks, |_| BatchExt::none())
    }
}

/// PR-3's `NetSimBackend::eval_plan`, verbatim: per-call dim resolution and
/// per-phase `BatchExt` vectors, trace-path engine underneath.
struct TracePathNetSim {
    chunks: usize,
}

impl EvalBackend for TracePathNetSim {
    fn name(&self) -> &str {
        "net-sim@trace-path"
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        let default_dim = libra_core::eval::DimTopology::zero_switch();
        let dims: Vec<_> = (0..n_dims)
            .map(|d| plan.net.as_ref().and_then(|net| net.dim(d)).unwrap_or(default_dim))
            .collect();
        eval_plan_trace_path(n_dims, bw, plan, self.chunks, |phase| {
            let mut overhead = vec![0 as Time; n_dims];
            for op in &phase.ops {
                for &(d, e) in op.span.extents() {
                    overhead[d] = overhead[d].max(stage_overhead_ps(dims[d], e));
                }
            }
            BatchExt { stage_overhead_ps: overhead, offload_dims: vec![false; n_dims] }
        })
    }
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// The `sweep_crossval3` grid (mirrors `benches/sweep_crossval3.rs`):
/// 2 shapes × 2 workloads × 5 budgets × 2 objectives = 40 points, or a
/// 8-point slice under `--small`.
fn scenario_grid(small: bool) -> SweepGrid {
    use libra_core::opt::Objective;
    if small {
        SweepGrid::new()
            .with_shapes([presets::topo_3d_512()])
            .with_budgets([100.0, 500.0])
            .with_objectives([Objective::Perf, Objective::PerfPerCost])
    } else {
        SweepGrid::new()
            .with_shapes([presets::topo_3d_512(), presets::topo_3d_1k()])
            .with_budgets([100.0, 300.0, 500.0, 700.0, 900.0])
            .with_objectives([Objective::Perf, Objective::PerfPerCost])
    }
}

fn workloads(small: bool) -> Vec<libra_core::sweep::FnWorkload> {
    // 20 ns per hop — NVLink-class latency, small against these payloads.
    let link = LinkParams::latency(20_000.0);
    let models: &[PaperModel] = if small {
        &[PaperModel::TuringNlg]
    } else {
        &[PaperModel::TuringNlg, PaperModel::ResNet50]
    };
    sweep_workloads_with_link(models, link)
}

struct EngineEvalStats {
    reps: u64,
    legacy_ns_per_eval: f64,
    fast_ns_per_eval: f64,
    speedup: f64,
    legacy_allocs_per_eval: f64,
    fast_allocs_per_eval: f64,
    chunk_stages_per_eval: u64,
    fast_chunk_stages_per_sec: f64,
}

/// Single plan evaluation: the chunk engine's fast path vs the preserved
/// trace path — wall clock, allocations, and a bit-identity check.
fn engine_eval_scenario(small: bool) -> EngineEvalStats {
    let shape = presets::topo_3d_512();
    let wls = workloads(true); // TuringNlg carries the plan
    let plan = wls[0].comm_plan(&shape).unwrap().expect("paper workloads expose plans");
    let n = shape.ndims();
    let bw = vec![300.0 / n as f64; n];
    let chunks = 64usize;
    let fast = EventSimBackend::new(chunks);
    let legacy = TracePathEventSim { chunks };

    // Bit-identity first (also warms the thread-local scratch).
    let t_fast = fast.eval_plan(n, &bw, &plan).unwrap();
    let t_legacy = legacy.eval_plan(n, &bw, &plan).unwrap();
    assert_eq!(
        t_fast.to_bits(),
        t_legacy.to_bits(),
        "DETERMINISM VIOLATION: fast path {t_fast} != trace path {t_legacy}"
    );

    // Work volume: chunk-stages per evaluation (RS+AG stages per chunk).
    let chunk_stages: u64 = plan
        .phases
        .iter()
        .map(|p| {
            p.repeat as u64
                * p.ops
                    .iter()
                    .filter(|op| op.bytes > 0.0 && !op.span.is_trivial())
                    .map(|op| 2 * op.span.extents().len() as u64 * chunks as u64)
                    .sum::<u64>()
        })
        .sum();

    let reps: u64 = if small { 30 } else { 120 };
    let time_evals = |backend: &dyn EvalBackend| -> (f64, f64) {
        backend.eval_plan(n, &bw, &plan).unwrap(); // warm-up
        let a0 = allocations();
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(backend.eval_plan(n, &bw, &plan).unwrap());
        }
        let dt = t0.elapsed().as_nanos() as f64 / reps as f64;
        let da = (allocations() - a0) as f64 / reps as f64;
        (dt, da)
    };
    let (legacy_ns, legacy_allocs) = time_evals(&legacy);
    let (fast_ns, fast_allocs) = time_evals(&fast);
    EngineEvalStats {
        reps,
        legacy_ns_per_eval: legacy_ns,
        fast_ns_per_eval: fast_ns,
        speedup: legacy_ns / fast_ns,
        legacy_allocs_per_eval: legacy_allocs,
        fast_allocs_per_eval: fast_allocs,
        chunk_stages_per_eval: chunk_stages,
        fast_chunk_stages_per_sec: chunk_stages as f64 * 1e9 / fast_ns,
    }
}

struct SweepStats {
    points: usize,
    legacy_secs: f64,
    optimized_secs: f64,
    speedup: f64,
    optimized_points_per_sec: f64,
    warm_seeded_solves: usize,
}

/// The headline scenario: a cold three-way cross-validated sweep
/// (`Session::run` with three backends), before (cold solver + trace-path backends) vs
/// after (warm-started solver + scratch-arena backends).
fn sweep_crossval3_cold(small: bool) -> SweepStats {
    let grid = scenario_grid(small);
    let wls = workloads(small);
    let cm = CostModel::default();
    let points = grid.len(wls.len());

    let analytical = Analytical::new();
    let legacy_event = TracePathEventSim { chunks: 64 };
    let legacy_net = TracePathNetSim { chunks: 64 };
    let legacy_backends: [&dyn EvalBackend; 3] = [&analytical, &legacy_event, &legacy_net];
    let t0 = Instant::now();
    let legacy_engine = SweepEngine::new(&cm).with_warm_start(false);
    let legacy_report = Session::over(&legacy_engine).run(&grid, &wls, &legacy_backends);
    let legacy_secs = t0.elapsed().as_secs_f64();

    let event = EventSimBackend::new(64);
    let net = NetSimBackend::new(64);
    let fast_backends: [&dyn EvalBackend; 3] = [&analytical, &event, &net];
    let t0 = Instant::now();
    let engine = SweepEngine::new(&cm);
    let report = Session::over(&engine).run(&grid, &wls, &fast_backends);
    let optimized_secs = t0.elapsed().as_secs_f64();

    assert!(legacy_report.sweep.errors.is_empty() && report.sweep.errors.is_empty());
    // Warm-started designs agree with cold designs within solver tolerance
    // on the metric each point optimizes (PerfPerCost optima are a plateau
    // in `weighted_time × cost`, so only the product is determined).
    let mut worst = 0.0f64;
    for (a, b) in legacy_report.sweep.results.iter().zip(&report.sweep.results) {
        let (ma, mb) = match a.point.objective {
            libra_core::opt::Objective::Perf => (a.design.weighted_time, b.design.weighted_time),
            libra_core::opt::Objective::PerfPerCost => {
                (a.design.weighted_time * a.design.cost, b.design.weighted_time * b.design.cost)
            }
        };
        let rel = (ma - mb).abs() / ma.max(1e-300);
        if rel > 1e-4 {
            eprintln!(
                "  drift {rel:.2e} at {:?} {} ({:?}): cold {ma} vs warm {mb}",
                a.point, a.workload, a.point.objective
            );
        }
        worst = worst.max(rel);
    }
    assert!(
        worst <= 1e-3,
        "DETERMINISM VIOLATION: warm-started designs drifted {worst} from cold designs"
    );

    SweepStats {
        points,
        legacy_secs,
        optimized_secs,
        speedup: legacy_secs / optimized_secs,
        optimized_points_per_sec: points as f64 / optimized_secs,
        warm_seeded_solves: report.sweep.cache.warm_seeded,
    }
}

/// Warm-engine re-validation (design cache hot): the per-point cost is
/// pure backend pricing, isolating the chunk-engine speedup — and because
/// both sides price identical designs, every point must agree
/// **bit-for-bit** between the trace path and the fast path.
fn sweep_crossval3_warm(small: bool) -> (SweepStats, usize) {
    let grid = scenario_grid(small);
    let wls = workloads(small);
    let cm = CostModel::default();
    let points = grid.len(wls.len());

    let engine = SweepEngine::new(&cm);
    let session = Session::over(&engine);
    session.run(&grid, &wls, &[]); // warm the design cache

    let analytical = Analytical::new();
    let legacy_event = TracePathEventSim { chunks: 64 };
    let legacy_net = TracePathNetSim { chunks: 64 };
    let event = EventSimBackend::new(64);
    let net = NetSimBackend::new(64);
    let legacy_backends: [&dyn EvalBackend; 3] = [&analytical, &legacy_event, &legacy_net];
    let fast_backends: [&dyn EvalBackend; 3] = [&analytical, &event, &net];

    // One pass each for the bit-identity audit (untimed).
    let legacy_report = session.run(&grid, &wls, &legacy_backends);
    let report = session.run(&grid, &wls, &fast_backends);
    let mut checked = 0usize;
    for (lp, fp) in legacy_report
        .divergence
        .pairs
        .iter()
        .zip(&report.divergence.pairs)
        .flat_map(|(l, f)| l.points.iter().zip(&f.points))
    {
        assert_eq!(
            lp.reference_secs.to_bits(),
            fp.reference_secs.to_bits(),
            "DETERMINISM VIOLATION at {:?}: trace {} vs fast {}",
            lp.point,
            lp.reference_secs,
            fp.reference_secs
        );
        checked += 1;
    }

    let reps = if small { 3 } else { 5 };
    let time_runs = |backends: &[&dyn EvalBackend]| -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(session.run(&grid, &wls, backends));
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let legacy_secs = time_runs(&legacy_backends);
    let optimized_secs = time_runs(&fast_backends);
    (
        SweepStats {
            points,
            legacy_secs,
            optimized_secs,
            speedup: legacy_secs / optimized_secs,
            optimized_points_per_sec: points as f64 / optimized_secs,
            warm_seeded_solves: 0,
        },
        checked,
    )
}

struct SolverStats {
    solves: usize,
    cold_newton_iters: usize,
    warm_newton_iters: usize,
    iters_saved_pct: f64,
    cold_secs: f64,
    warm_secs: f64,
    speedup: f64,
}

/// Budget-ladder solver study: cold interior-point solves at every budget
/// vs one cold anchor + warm-started (`solve_from`) solves seeded with the
/// anchor's optimum rescaled — Newton iterations and wall clock.
fn solver_warm_start_scenario(small: bool) -> SolverStats {
    let shape: NetworkShape = presets::topo_3d_512();
    let n = shape.ndims();
    let expr = libra_bench::time_expr_for(PaperModel::TuringNlg, &shape).unwrap();
    let targets = vec![(1.0, expr)];
    let budgets: Vec<f64> = if small {
        vec![100.0, 200.0, 300.0, 400.0]
    } else {
        (1..=10).map(|i| 100.0 * i as f64).collect()
    };
    // The `Constraint::TotalBw` rows, expressed directly on the compiled
    // problem (the harness measures the solver, not the request DSL).
    let build = |budget: f64, guess: &[f64], tight: bool| {
        let (mut p, _) = if tight {
            compile_seeded(&targets, n, guess, true)
        } else {
            compile(&targets, n, guess)
        };
        let terms: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
        p.add_lin_eq(&terms, budget);
        for i in 0..n {
            p.set_lower(i, MIN_DIM_BW);
        }
        p
    };

    // Cold ladder.
    let t0 = Instant::now();
    let mut cold_iters = 0usize;
    let mut cold_solutions = Vec::new();
    for &b in &budgets {
        let equal = vec![b / n as f64; n];
        let sol = build(b, &equal, false).solve().expect("cold solve");
        cold_iters += sol.newton_iters;
        cold_solutions.push(sol);
    }
    let cold_secs = t0.elapsed().as_secs_f64();

    // Warm ladder: anchor cold, then seed each budget from the anchor's
    // optimum rescaled (exactly what the sweep engine does).
    let t0 = Instant::now();
    let anchor = {
        let b = budgets[0];
        let equal = vec![b / n as f64; n];
        build(b, &equal, false).solve().expect("anchor solve")
    };
    let mut warm_iters = anchor.newton_iters;
    for &b in &budgets[1..] {
        let scale = b / budgets[0];
        let seed_bw: Vec<f64> = anchor.x[..n].iter().map(|x| x * scale).collect();
        let p = build(b, &seed_bw, true);
        let x0 = p.guess().expect("compile suggests a start").to_vec();
        let sol = p.solve_from(&x0).expect("warm solve");
        warm_iters += sol.newton_iters;
        // Same optimum as the cold ladder (within solver tolerance).
        let cold = &cold_solutions[budgets.iter().position(|&x| x == b).unwrap()];
        let rel = (sol.objective - cold.objective).abs() / cold.objective.max(1e-300);
        assert!(rel <= 1e-4, "DETERMINISM VIOLATION: warm ladder drifted {rel} at budget {b}");
    }
    let warm_secs = t0.elapsed().as_secs_f64();

    SolverStats {
        solves: budgets.len(),
        cold_newton_iters: cold_iters,
        warm_newton_iters: warm_iters,
        iters_saved_pct: 100.0 * (1.0 - warm_iters as f64 / cold_iters as f64),
        cold_secs,
        warm_secs,
        speedup: cold_secs / warm_secs,
    }
}

struct DispatchStats {
    points: usize,
    shards: usize,
    single_secs: f64,
    sharded_secs: f64,
    sharded_over_single_ratio: f64,
    merged_bytes: usize,
}

/// The shard dispatcher against a single-process run of the same
/// scenario: first a bit-identity check (the merged K-shard JSON-lines
/// stream must equal the single run's byte for byte), then interleaved
/// best-of-rounds wall clock for both. Each in-process shard pays for a
/// fresh session — cold design/plan caches plus the merge itself — so
/// the ratio is the dispatcher's sequential overhead, not a speedup; it
/// is recorded, never gated.
fn dispatch_scenario(small: bool) -> DispatchStats {
    use libra_core::opt::Objective;
    let shards = 4usize;
    let wls = workloads(small);
    let mut b = Scenario::builder("perf-dispatch")
        .with_budgets(if small {
            vec![100.0, 500.0]
        } else {
            vec![100.0, 300.0, 500.0, 700.0, 900.0]
        })
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
        .with_workloads(wls.iter().map(|w| w.name().to_string()))
        .with_backends(["analytical", "event-sim", "net-sim"])
        .with_chunks(64);
    b = if small {
        b.with_shapes([presets::topo_3d_512()])
    } else {
        b.with_shapes([presets::topo_3d_512(), presets::topo_3d_1k()])
    };
    let scenario = b.build().expect("perf-dispatch scenario builds");
    let cm = CostModel::default();
    let registry = default_registry();
    let points = scenario.grid().len(wls.len());

    // Bit-identity: the headline dispatch contract, checked on every
    // harness run before any timing.
    let mut sink = JsonLinesSink::new(Vec::new());
    let report = scenario
        .session(&cm)
        .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut sink])
        .expect("single-process scenario run");
    let single_stream = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    let merged = Dispatcher::new(&scenario, shards)
        .expect("shard count is nonzero")
        .run_in_process(&cm, &wls, &registry)
        .expect("sharded scenario run");
    assert_eq!(
        merged.to_jsonl(),
        single_stream,
        "DETERMINISM VIOLATION: {shards}-shard merge differs from the single-process stream"
    );
    assert_eq!(
        merged.within_tolerance(),
        report.divergence.within_tolerance(),
        "DETERMINISM VIOLATION: merged verdict differs from the single run's"
    );

    // Interleaved best-of-rounds; one run per side per round (each side
    // is a full crossval sweep, the costliest unit in this harness).
    let rounds = if small { 3 } else { 5 };
    let mut single_best = f64::INFINITY;
    let mut sharded_best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        std::hint::black_box(
            scenario.session(&cm).run_scenario(&scenario, &wls, &registry).unwrap(),
        );
        single_best = single_best.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(
            Dispatcher::new(&scenario, shards)
                .unwrap()
                .run_in_process(&cm, &wls, &registry)
                .unwrap(),
        );
        sharded_best = sharded_best.min(t0.elapsed().as_secs_f64());
    }
    DispatchStats {
        points,
        shards,
        single_secs: single_best,
        sharded_secs: sharded_best,
        sharded_over_single_ratio: sharded_best / single_best,
        merged_bytes: merged.to_jsonl().len(),
    }
}

struct StoreStats3 {
    points: usize,
    cold_secs: f64,
    warm_disk_secs: f64,
    speedup: f64,
}

/// Persistent-store study: a cold crossval3 run staging every design
/// into a fresh on-disk cache, then a second **process-fresh** session
/// re-running the same scenario warm-from-disk. Bit-identity of the two
/// JSON-lines streams is the gate on every run; the wall-clock floor
/// (warm ≥ 10× faster) is asserted only on the full grid — CI's
/// `--small` runs record it without failing on a noisy runner.
fn store_crossval3(small: bool) -> StoreStats3 {
    use libra_core::opt::Objective;
    let wls = workloads(small);
    let mut b = Scenario::builder("perf-store")
        .with_budgets(if small {
            vec![100.0, 500.0]
        } else {
            vec![100.0, 300.0, 500.0, 700.0, 900.0]
        })
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
        .with_workloads(wls.iter().map(|w| w.name().to_string()))
        .with_backends(["analytical", "event-sim", "net-sim"])
        .with_chunks(64);
    b = if small {
        b.with_shapes([presets::topo_3d_512()])
    } else {
        b.with_shapes([presets::topo_3d_512(), presets::topo_3d_1k()])
    };
    let scenario = b.build().expect("perf-store scenario builds");
    let cm = CostModel::default();
    let registry = default_registry();
    let points = scenario.grid().len(wls.len());
    let path = std::env::temp_dir().join(format!("libra-perf-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let run_with_store = |label: &str| -> (f64, String) {
        let t0 = Instant::now();
        let mut sink = JsonLinesSink::new(Vec::new());
        scenario
            .session(&cm)
            .with_store(&path)
            .expect("store opens")
            .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut sink])
            .unwrap_or_else(|e| panic!("{label} run: {e}"));
        // The session (and its store handle) drops here, flushing — the
        // warm run below opens the file the way a new process would.
        let secs = t0.elapsed().as_secs_f64();
        (secs, String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8"))
    };
    let (cold_secs, cold_stream) = run_with_store("cold");
    let (warm_disk_secs, warm_stream) = run_with_store("warm-from-disk");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        warm_stream, cold_stream,
        "DETERMINISM VIOLATION: warm-from-disk crossval3 differs from the cold stream"
    );
    let speedup = cold_secs / warm_disk_secs;
    if small {
        if speedup < 10.0 {
            eprintln!(
                "  note: small-grid store speedup {speedup:.2}x < 10x (not gated under --small)"
            );
        }
    } else {
        assert!(
            speedup >= 10.0,
            "PERF REGRESSION: warm-from-disk crossval3 is only {speedup:.2}x the cold run (floor 10x)"
        );
    }
    StoreStats3 { points, cold_secs, warm_disk_secs, speedup }
}

struct ChaosStats {
    points: usize,
    poisoned: usize,
    clean_secs: f64,
    chaos_secs: f64,
    chaos_over_clean_ratio: f64,
}

/// Chaos scenario: the fault seams threaded through the sweep engine must
/// be invisible when disarmed and deterministic when armed. Three
/// bit-level gates, checked on every harness run:
/// (a) a plan whose sites never fire (`sweep.point.error=0`) streams
///     byte-identically to a run with no injector at all — the armed-but-
///     silent seam perturbs nothing;
/// (b) two runs under the same armed plan stream byte-identically to each
///     other — injections are a pure function of (seed, site, index);
/// (c) every record the armed plan did *not* poison equals the clean
///     run's record for that grid point, line for line — failures are
///     isolated to their own points.
/// The armed-vs-clean wall-clock ratio (the price of chaos bookkeeping
/// plus poisoned points skipping their solves) is recorded, never gated.
///
/// The scenario solves cold (warm start off): a poisoned point publishes
/// no warm-start seed, so under warm start its downstream neighbors would
/// *legitimately* re-seed and drift by ulps — gate (c) isolates the
/// failure-containment property from that seed propagation.
fn chaos_scenario(small: bool) -> ChaosStats {
    use libra_core::fault::FaultInjector;
    use libra_core::opt::Objective;
    let wls = workloads(small);
    let mut b = Scenario::builder("perf-chaos")
        .with_warm_start(false)
        .with_budgets(if small {
            vec![100.0, 500.0]
        } else {
            vec![100.0, 300.0, 500.0, 700.0, 900.0]
        })
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
        .with_workloads(wls.iter().map(|w| w.name().to_string()))
        .with_backends(["analytical", "event-sim", "net-sim"])
        .with_chunks(64);
    b = if small {
        b.with_shapes([presets::topo_3d_512()])
    } else {
        b.with_shapes([presets::topo_3d_512(), presets::topo_3d_1k()])
    };
    let scenario = b.build().expect("perf-chaos scenario builds");
    let cm = CostModel::default();
    let registry = default_registry();
    let points = scenario.grid().len(wls.len());

    let run = |spec: Option<&str>| -> (f64, String) {
        let mut session = scenario.session(&cm);
        if let Some(spec) = spec {
            let injector = FaultInjector::from_spec(spec).expect("spec parses");
            session = session.with_fault(injector).expect("owned session arms");
        }
        let t0 = Instant::now();
        let mut sink = JsonLinesSink::new(Vec::new());
        session
            .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut sink])
            .expect("chaos scenario run");
        let secs = t0.elapsed().as_secs_f64();
        (secs, String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8"))
    };

    let (clean_secs, clean_stream) = run(None);
    let (_, silent_stream) = run(Some("seed=11;sweep.point.error=0"));
    assert_eq!(
        silent_stream, clean_stream,
        "DETERMINISM VIOLATION: an armed-but-silent fault plan perturbed the stream"
    );

    const ARMED: &str = "seed=11;sweep.point.error=0.5";
    let (chaos_secs, chaos_stream) = run(Some(ARMED));
    let (_, chaos_again) = run(Some(ARMED));
    assert_eq!(
        chaos_again, chaos_stream,
        "DETERMINISM VIOLATION: the same fault plan injected different failures"
    );

    let clean_lines: Vec<&str> = clean_stream.lines().collect();
    let chaos_lines: Vec<&str> = chaos_stream.lines().collect();
    assert_eq!(
        clean_lines.len(),
        chaos_lines.len(),
        "poisoned points must still produce records, not vanish"
    );
    let mut poisoned = 0usize;
    for (i, (c, h)) in clean_lines.iter().zip(&chaos_lines).enumerate() {
        if h.contains("injected fault: sweep.point.error") {
            poisoned += 1;
            continue;
        }
        if i + 1 == chaos_lines.len() {
            continue; // the summary line aggregates the error count
        }
        assert_eq!(
            c, h,
            "DETERMINISM VIOLATION: healthy line {i} drifted under an armed fault plan"
        );
    }
    assert!(poisoned > 0, "the armed plan must poison at least one of {points} points");
    assert!(poisoned < points, "the armed plan must leave healthy points to compare");

    ChaosStats {
        points,
        poisoned,
        clean_secs,
        chaos_secs,
        chaos_over_clean_ratio: chaos_secs / clean_secs,
    }
}

struct SearchStats {
    points: usize,
    evals: usize,
    coverage_pct: f64,
    rounds: usize,
    front_size: usize,
    exhaustive_secs: f64,
    search_secs: f64,
    search_over_exhaustive_ratio: f64,
}

/// Adaptive-search study: the Pareto-guided driver against an exhaustive
/// sweep of the same dense-budget design space. The gate, checked on
/// every harness run, is the subsystem's headline contract — the
/// adaptive front equals the exhaustive `pareto_front()` **exactly**
/// (same designs, same order, bit for bit). The evals/grid ratio and the
/// wall-clock ratio are recorded, never gated: how much of the space the
/// driver can skip depends on how much of it is Pareto-dominated.
fn adaptive_search_scenario(small: bool) -> SearchStats {
    use libra_core::opt::Objective;
    use libra_core::search::{self, SearchConfig};
    let wls = workloads(small);
    let n_budgets = if small { 40 } else { 100 };
    let step = 900.0 / (n_budgets - 1) as f64;
    let mut grid = SweepGrid::new()
        .with_budgets((0..n_budgets).map(|i| 100.0 + step * i as f64))
        .with_objectives([Objective::Perf, Objective::PerfPerCost]);
    grid = if small {
        grid.with_shapes([presets::topo_3d_512()])
    } else {
        grid.with_shapes([presets::topo_3d_512(), presets::topo_3d_1k()])
    };
    let cm = CostModel::default();
    let points = grid.len(wls.len());

    let t0 = Instant::now();
    let exhaustive_engine = SweepEngine::new(&cm);
    let exhaustive = Session::over(&exhaustive_engine).run(&grid, &wls, &[]).sweep;
    let exhaustive_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let search_engine = SweepEngine::new(&cm);
    let session = Session::over(&search_engine);
    let config = SearchConfig::default();
    let report =
        search::run_grid(&session, &grid, &wls, &config, &mut []).expect("adaptive search runs");
    let search_secs = t0.elapsed().as_secs_f64();

    let expected: Vec<_> = exhaustive.pareto_front().into_iter().cloned().collect();
    let got: Vec<_> = report.front().into_iter().cloned().collect();
    assert_eq!(
        got, expected,
        "DETERMINISM VIOLATION: adaptive front differs from the exhaustive Pareto front"
    );
    assert!(report.evals <= points, "search must never out-evaluate the grid");

    SearchStats {
        points,
        evals: report.evals,
        coverage_pct: 100.0 * report.coverage(),
        rounds: report.rounds.len(),
        front_size: got.len(),
        exhaustive_secs,
        search_secs,
        search_over_exhaustive_ratio: search_secs / exhaustive_secs,
    }
}

// ---------------------------------------------------------------------------
// JSON emission (hand-rolled; the container has no serde).
// ---------------------------------------------------------------------------

fn json(out: &mut String, indent: usize, key: &str, value: &str, last: bool) {
    out.push_str(&" ".repeat(indent));
    out.push_str(&format!("\"{key}\": {value}"));
    if !last {
        out.push(',');
    }
    out.push('\n');
}

fn f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());

    eprintln!("perf_harness: engine eval scenario...");
    let engine = engine_eval_scenario(small);
    eprintln!(
        "  legacy {:.0} ns/eval ({:.0} allocs) vs fast {:.0} ns/eval ({:.0} allocs) — {:.2}x",
        engine.legacy_ns_per_eval,
        engine.legacy_allocs_per_eval,
        engine.fast_ns_per_eval,
        engine.fast_allocs_per_eval,
        engine.speedup
    );

    eprintln!("perf_harness: cold sweep_crossval3 scenario...");
    let cold = sweep_crossval3_cold(small);
    eprintln!(
        "  {} points: legacy {:.3} s vs optimized {:.3} s — {:.2}x ({} warm-seeded solves)",
        cold.points, cold.legacy_secs, cold.optimized_secs, cold.speedup, cold.warm_seeded_solves
    );

    eprintln!("perf_harness: warm sweep_crossval3 scenario...");
    let (warm, bit_checked) = sweep_crossval3_warm(small);
    eprintln!(
        "  {} points: legacy {:.3} s vs optimized {:.3} s — {:.2}x ({} point-pairs bit-identical)",
        warm.points, warm.legacy_secs, warm.optimized_secs, warm.speedup, bit_checked
    );

    eprintln!("perf_harness: solver warm-start scenario...");
    let solver = solver_warm_start_scenario(small);
    eprintln!(
        "  {} budgets: {} cold vs {} warm Newton iters ({:.1}% saved), {:.2}x wall clock",
        solver.solves,
        solver.cold_newton_iters,
        solver.warm_newton_iters,
        solver.iters_saved_pct,
        solver.speedup
    );

    eprintln!("perf_harness: dispatch scenario...");
    let dispatch = dispatch_scenario(small);
    eprintln!(
        "  {} points, {} shards: single {:.3} s vs sharded {:.3} s — ratio {:.3} (merge bit-identical)",
        dispatch.points,
        dispatch.shards,
        dispatch.single_secs,
        dispatch.sharded_secs,
        dispatch.sharded_over_single_ratio
    );

    eprintln!("perf_harness: store_crossval3 scenario...");
    let store = store_crossval3(small);
    eprintln!(
        "  {} points: cold {:.3} s vs warm-from-disk {:.3} s — {:.2}x (streams bit-identical)",
        store.points, store.cold_secs, store.warm_disk_secs, store.speedup
    );

    eprintln!("perf_harness: chaos scenario...");
    let chaos = chaos_scenario(small);
    eprintln!(
        "  {} points, {} poisoned: clean {:.3} s vs chaos {:.3} s — ratio {:.3} (healthy lines bit-identical)",
        chaos.points, chaos.poisoned, chaos.clean_secs, chaos.chaos_secs, chaos.chaos_over_clean_ratio
    );

    eprintln!("perf_harness: adaptive search scenario...");
    let search = adaptive_search_scenario(small);
    eprintln!(
        "  {} points: exhaustive {:.3} s vs search {:.3} s ({} evals, {:.1}% of the grid, {} rounds; front bit-identical)",
        search.points,
        search.exhaustive_secs,
        search.search_secs,
        search.evals,
        search.coverage_pct,
        search.rounds
    );

    let mut o = String::from("{\n");
    json(&mut o, 2, "schema", "\"libra-bench-sweep-v1\"", false);
    json(&mut o, 2, "grid", &format!("\"{}\"", if small { "small" } else { "full" }), false);
    o.push_str("  \"scenarios\": {\n");
    o.push_str("    \"engine_eval\": {\n");
    json(&mut o, 6, "reps", &engine.reps.to_string(), false);
    json(&mut o, 6, "legacy_ns_per_eval", &f(engine.legacy_ns_per_eval), false);
    json(&mut o, 6, "fast_ns_per_eval", &f(engine.fast_ns_per_eval), false);
    json(&mut o, 6, "speedup", &f(engine.speedup), false);
    json(&mut o, 6, "legacy_allocs_per_eval", &f(engine.legacy_allocs_per_eval), false);
    json(&mut o, 6, "fast_allocs_per_eval", &f(engine.fast_allocs_per_eval), false);
    json(&mut o, 6, "chunk_stages_per_eval", &engine.chunk_stages_per_eval.to_string(), false);
    json(&mut o, 6, "fast_chunk_stages_per_sec", &f(engine.fast_chunk_stages_per_sec), true);
    o.push_str("    },\n");
    for (name, s) in [("sweep_crossval3_cold", &cold), ("sweep_crossval3_warm", &warm)] {
        o.push_str(&format!("    \"{name}\": {{\n"));
        json(&mut o, 6, "points", &s.points.to_string(), false);
        json(&mut o, 6, "legacy_secs", &f(s.legacy_secs), false);
        json(&mut o, 6, "optimized_secs", &f(s.optimized_secs), false);
        json(&mut o, 6, "speedup", &f(s.speedup), false);
        json(&mut o, 6, "optimized_points_per_sec", &f(s.optimized_points_per_sec), false);
        json(&mut o, 6, "warm_seeded_solves", &s.warm_seeded_solves.to_string(), true);
        o.push_str("    },\n");
    }
    o.push_str("    \"solver_warm_start\": {\n");
    json(&mut o, 6, "solves", &solver.solves.to_string(), false);
    json(&mut o, 6, "cold_newton_iters", &solver.cold_newton_iters.to_string(), false);
    json(&mut o, 6, "warm_newton_iters", &solver.warm_newton_iters.to_string(), false);
    json(&mut o, 6, "iters_saved_pct", &f(solver.iters_saved_pct), false);
    json(&mut o, 6, "cold_secs", &f(solver.cold_secs), false);
    json(&mut o, 6, "warm_secs", &f(solver.warm_secs), false);
    json(&mut o, 6, "speedup", &f(solver.speedup), true);
    o.push_str("    },\n");
    o.push_str("    \"dispatch\": {\n");
    json(&mut o, 6, "points", &dispatch.points.to_string(), false);
    json(&mut o, 6, "shards", &dispatch.shards.to_string(), false);
    json(&mut o, 6, "single_secs", &f(dispatch.single_secs), false);
    json(&mut o, 6, "sharded_secs", &f(dispatch.sharded_secs), false);
    json(&mut o, 6, "sharded_over_single_ratio", &f(dispatch.sharded_over_single_ratio), false);
    json(&mut o, 6, "merged_bytes", &dispatch.merged_bytes.to_string(), false);
    json(&mut o, 6, "merge_bit_identical", "true", true);
    o.push_str("    },\n");
    o.push_str("    \"store_crossval3\": {\n");
    json(&mut o, 6, "points", &store.points.to_string(), false);
    json(&mut o, 6, "cold_secs", &f(store.cold_secs), false);
    json(&mut o, 6, "warm_disk_secs", &f(store.warm_disk_secs), false);
    json(&mut o, 6, "speedup", &f(store.speedup), false);
    json(&mut o, 6, "bit_identical", "true", true);
    o.push_str("    },\n");
    o.push_str("    \"chaos\": {\n");
    json(&mut o, 6, "points", &chaos.points.to_string(), false);
    json(&mut o, 6, "poisoned_points", &chaos.poisoned.to_string(), false);
    json(&mut o, 6, "clean_secs", &f(chaos.clean_secs), false);
    json(&mut o, 6, "chaos_secs", &f(chaos.chaos_secs), false);
    json(&mut o, 6, "chaos_over_clean_ratio", &f(chaos.chaos_over_clean_ratio), false);
    json(&mut o, 6, "healthy_lines_bit_identical", "true", true);
    o.push_str("    },\n");
    o.push_str("    \"adaptive_search\": {\n");
    json(&mut o, 6, "points", &search.points.to_string(), false);
    json(&mut o, 6, "evals", &search.evals.to_string(), false);
    json(&mut o, 6, "coverage_pct", &f(search.coverage_pct), false);
    json(&mut o, 6, "rounds", &search.rounds.to_string(), false);
    json(&mut o, 6, "front_size", &search.front_size.to_string(), false);
    json(&mut o, 6, "exhaustive_secs", &f(search.exhaustive_secs), false);
    json(&mut o, 6, "search_secs", &f(search.search_secs), false);
    json(&mut o, 6, "search_over_exhaustive_ratio", &f(search.search_over_exhaustive_ratio), false);
    json(&mut o, 6, "front_bit_identical", "true", true);
    o.push_str("    }\n");
    o.push_str("  },\n");
    o.push_str("  \"determinism\": {\n");
    json(&mut o, 4, "engine_bit_identical_point_pairs", &bit_checked.to_string(), false);
    json(&mut o, 4, "chaos_poisoned_points", &chaos.poisoned.to_string(), false);
    json(&mut o, 4, "violations", "0", true);
    o.push_str("  }\n}\n");

    std::fs::write(&out_path, &o).expect("write BENCH_sweep.json");
    eprintln!("perf_harness: wrote {out_path}");
    print!("{o}");
}
