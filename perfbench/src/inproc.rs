//! The in-process workload: warm cross-validated sweeps of the
//! design-space grid over a store a cold run filled. Every repetition is
//! a fresh `Session` in `ExecMode::Serial`, timed from outside.

use std::path::Path;
use std::time::Instant;

use libra_bench::{default_registry, scenario_workloads, ExecMode, Scenario};
use libra_core::cost::CostModel;
use libra_core::opt::Objective;
use libra_core::scenario::{JsonLinesSink, ReportSink};
use libra_core::sweep::{FnWorkload, SweepReport, SweepResult};

use crate::inputs::{self, DEFAULT_SEED};
use crate::report::Metrics;
use crate::stats::{geomean, low, median, tail, LOW_Q};
use crate::trace::{self, Snapshot};
use crate::{peak_rss_mb, Args, Outcome, ScratchDir};

/// Fewest repetitions a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 4;

/// Everything a repetition needs before its first point is priced.
struct Setup<'c> {
    scenario: Scenario,
    workloads: Vec<FnWorkload>,
    registry: libra_bench::BackendRegistry,
    session: libra_bench::Session<'c>,
    parse_s: f64,
    store_open_s: f64,
}

fn setup<'c>(
    text: &str,
    cost_model: &'c CostModel,
    store: &Path,
    traced: bool,
) -> Result<Setup<'c>, String> {
    let started = Instant::now();
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    let parse_s = started.elapsed().as_secs_f64();
    let resolve = if traced { trace::timed_workloads } else { scenario_workloads };
    let workloads = resolve(&scenario).map_err(|e| e.to_string())?;
    let registry = if traced { trace::timed_registry() } else { default_registry() };
    scenario.build_backends(&registry).map_err(|e| e.to_string())?;
    let session = scenario.session(cost_model).with_mode(ExecMode::Serial);
    let opened = Instant::now();
    let session = session.with_store(store).map_err(|e| e.to_string())?;
    let store_open_s = opened.elapsed().as_secs_f64();
    Ok(Setup { scenario, workloads, registry, session, parse_s, store_open_s })
}

/// The counts a repetition must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Default)]
struct Counts {
    solves: usize,
    memo_hits: usize,
    warm_seeded: usize,
    failed_points: u64,
    store_hits: usize,
    store_staged: usize,
    records: u64,
    sink_bytes: usize,
    targets_calls: u64,
    plan_calls: u64,
    analytical_calls: u64,
    event_sim_calls: u64,
    net_sim_calls: u64,
}

/// One repetition's measurements.
struct Rep {
    traced: bool,
    setup_s: f64,
    parse_s: f64,
    store_open_s: f64,
    answer_s: f64,
    spans: Snapshot,
    counts: Counts,
}

/// What a repetition answered: its record stream and sweep. Only the
/// first answer is kept; later ones are compared and dropped, so the peak
/// RSS is the library's, not the benchmark's.
struct Answer {
    bytes: Vec<u8>,
    sweep: SweepReport,
}

fn rep(text: &str, store: &Path, traced: bool) -> Result<(Rep, Answer), String> {
    let cost_model = CostModel::default();
    let started = Instant::now();
    let s = setup(text, &cost_model, store, traced)?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut jsonl = JsonLinesSink::new(Vec::new());
    let mut timed = trace::TimedSink(JsonLinesSink::new(Vec::new()));
    let before = Snapshot::take();
    let asked = Instant::now();
    let sweep = {
        let sink: &mut dyn ReportSink = if traced { &mut timed } else { &mut jsonl };
        s.session
            .run_scenario_with_sinks(&s.scenario, &s.workloads, &s.registry, &mut [sink])
            .map_err(|e| e.to_string())?
            .sweep
    };
    let answer_s = asked.elapsed().as_secs_f64();
    let spans = Snapshot::take().since(&before);
    let bytes = if traced { timed.0.into_inner() } else { jsonl.into_inner() };

    let cache = s.session.engine().cache_stats();
    let store_stats = s.session.engine().store_stats().unwrap_or_default();
    let (records, failed_points) = point_failures(&sweep);
    let counts = Counts {
        solves: cache.design_misses,
        memo_hits: cache.design_hits,
        warm_seeded: cache.warm_seeded,
        failed_points,
        store_hits: store_stats.hits,
        store_staged: store_stats.staged,
        records,
        sink_bytes: bytes.len(),
        targets_calls: spans.calls(&trace::TARGETS),
        plan_calls: spans.calls(&trace::PLAN),
        analytical_calls: spans.calls(&trace::ANALYTICAL),
        event_sim_calls: spans.calls(&trace::EVENT_SIM),
        net_sim_calls: spans.calls(&trace::NET_SIM),
    };
    let rep = Rep {
        traced,
        setup_s,
        parse_s: s.parse_s,
        store_open_s: s.store_open_s,
        answer_s,
        spans,
        counts,
    };
    Ok((rep, Answer { bytes, sweep }))
}

/// Attempts and failures of one answer: its grid points, and the
/// poisoned ones among them.
pub fn point_failures(sweep: &SweepReport) -> (u64, u64) {
    let failed = sweep.errors.len() as u64;
    (sweep.results.len() as u64 + failed, failed)
}

/// Geomeans of the Perf points' speedups and the PerfPerCost points'
/// perf-per-cost gains.
fn gains<'a>(results: impl IntoIterator<Item = &'a SweepResult>) -> (f64, f64) {
    let (mut perf, mut ppc) = (Vec::new(), Vec::new());
    for r in results {
        match r.point.objective {
            Objective::Perf => perf.push(r.speedup()),
            Objective::PerfPerCost => ppc.push(r.ppc_gain()),
        }
    }
    (geomean(&perf), geomean(&ppc))
}

/// The crossval_warm workload. A cold run fills the store first; it is
/// the reference every warm repetition's stream must equal, and for the
/// default seed it must equal the committed golden stream.
pub fn run(args: &Args, scratch: &ScratchDir) -> Result<Outcome, String> {
    let root = &args.root;
    let text =
        inputs::crossval_scenario(&inputs::read_repo_file(root, args.files.crossval)?, args.seed)?;
    let store = scratch.path().join("solves.cache");

    let (fill, reference) = rep(&text, &store, args.trace)?;
    if fill.counts.solves == 0 {
        return Err("the store-filling run solved nothing".to_string());
    }
    if args.seed == DEFAULT_SEED {
        let golden = inputs::read_repo_file(root, args.files.crossval_golden)?;
        if reference.bytes != golden.as_bytes() {
            return Err(format!(
                "the default-seed stream differs from {}",
                args.files.crossval_golden
            ));
        }
    }

    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate traced and untraced repetitions, so the
        // tracing overhead is measured under the same host conditions.
        let traced = args.trace && reps.len().is_multiple_of(2);
        let (r, answer) = rep(&text, &store, traced)?;
        let n = reps.len();
        if reference.bytes != answer.bytes {
            return Err(format!("warm repetition {n} streamed other records than the cold run"));
        }
        if r.counts.solves != 0 || r.counts.store_hits == 0 {
            return Err(format!(
                "warm repetition {n} solved {} designs with {} store hits; want 0 solves",
                r.counts.solves, r.counts.store_hits
            ));
        }
        if let Some(first) = reps.iter().find(|p| p.traced == traced) {
            if first.counts != r.counts {
                return Err(format!(
                    "nondeterminism: repetition {n} counted {:?}, an earlier one {:?}",
                    r.counts, first.counts
                ));
            }
        }
        reps.push(r);
    }

    let attempted = reps.iter().map(|r| r.counts.records).sum();
    let failed = reps.iter().map(|r| r.counts.failed_points).sum();
    let mut m = Metrics::default();
    if args.trace {
        // The cold fill is the "before" split for solver work.
        print_split("cold store fill (one run)", &fill);
        layers(&mut m, &reps, &store)?;
    } else {
        let answers: Vec<f64> = reps.iter().map(|r| r.answer_s).collect();
        let (perf, ppc) = gains(&reference.sweep.results);
        let (pct, tail_s) = tail(&answers);
        eprintln!(
            "perfbench: answer p{:.0} {:.5} s, median {:.5} s, tail p{pct} {tail_s:.5} s ({} samples)",
            100.0 * LOW_Q,
            low(&answers),
            median(&answers),
            answers.len()
        );
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        m.put("setup_s", low(&setups), "s");
        m.put("time_to_answer_s", low(&answers), "s");
        // One client: a job is one set-up plus one answer, back to back,
        // taken at the run's timing quantile like every in-process time.
        let jobs: Vec<f64> = reps.iter().map(|r| r.setup_s + r.answer_s).collect();
        m.put("job_latency_p50_s", low(&jobs), "s");
        m.put("jobs_per_s", 1.0 / low(&jobs), "1/s");
        m.put("perf_speedup_geomean", perf, "x");
        m.put("ppc_gain_geomean", ppc, "x");
        m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    }
    Ok(Outcome { attempted, failed, metrics: m })
}

/// Prints a repetition's self-time split by layer to stderr.
fn print_split(label: &str, r: &Rep) {
    let sp = &r.spans;
    eprintln!("perfbench: per-layer self-time split of the {label}");
    for (layer, secs) in [
        ("sweep (engine + opt + solver)", r.answer_s - sp.wrapped_secs()),
        ("backends (eval + sim + net)", sp.backend_secs()),
        ("workloads (targets + plan)", sp.secs(&trace::TARGETS) + sp.secs(&trace::PLAN)),
        ("scenario sink", sp.secs(&trace::SINK)),
    ] {
        eprintln!("perfbench:   {layer:<32} {secs:>10.6} s  {:>6.2}%", 100.0 * secs / r.answer_s);
    }
}

/// The per-layer split of a traced run: the timing quantile over its
/// traced repetitions, counts from its first one (all of them are equal).
fn layers(m: &mut Metrics, reps: &[Rep], store: &Path) -> Result<(), String> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let plain: Vec<f64> = reps.iter().filter(|r| !r.traced).map(|r| r.answer_s).collect();
    let q = |f: &dyn Fn(&Rep) -> f64| low(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let c = &traced[0].counts;
    let run_s = q(&|r| r.answer_s);
    let self_s = q(&|r| r.answer_s - r.spans.wrapped_secs());

    m.put("scenario.parse_s", q(&|r| r.parse_s), "s");
    m.put("scenario.sink_s", q(&|r| r.spans.secs(&trace::SINK)), "s");
    m.put("scenario.sink_bytes", c.sink_bytes as f64, "bytes");
    m.put("scenario.records", c.records as f64, "count");
    m.put("workloads.targets_s", q(&|r| r.spans.secs(&trace::TARGETS)), "s");
    m.put("workloads.targets_calls", c.targets_calls as f64, "count");
    m.put("workloads.plan_s", q(&|r| r.spans.secs(&trace::PLAN)), "s");
    m.put("workloads.plan_calls", c.plan_calls as f64, "count");
    m.put("sweep.run_s", run_s, "s");
    m.put("sweep.self_s", self_s, "s");
    m.put("sweep.self_share", self_s / run_s, "ratio");
    m.put("sweep.solves", c.solves as f64, "count");
    m.put("sweep.memo_hits", c.memo_hits as f64, "count");
    m.put("eval.analytical_s", q(&|r| r.spans.secs(&trace::ANALYTICAL)), "s");
    m.put("eval.analytical_calls", c.analytical_calls as f64, "count");
    m.put("sim.event_sim_s", q(&|r| r.spans.secs(&trace::EVENT_SIM)), "s");
    m.put("sim.event_sim_calls", c.event_sim_calls as f64, "count");
    m.put("net.net_sim_s", q(&|r| r.spans.secs(&trace::NET_SIM)), "s");
    m.put("net.net_sim_calls", c.net_sim_calls as f64, "count");
    m.put("eval.backends_share", q(&|r| r.spans.backend_secs()) / run_s, "ratio");
    m.put("store.open_s", q(&|r| r.store_open_s), "s");
    m.put("store.hits", c.store_hits as f64, "count");
    m.put("store.staged", c.store_staged as f64, "count");
    let file_bytes = std::fs::metadata(store).map_err(|e| format!("store file: {e}"))?.len();
    m.put("store.file_bytes", file_bytes as f64, "bytes");
    m.put("search.evals", 0.0, "count");
    crate::serve::zero_server_layers(m);
    m.put("trace.overhead_share", run_s / low(&plain) - 1.0, "ratio");

    let fastest = traced.iter().min_by(|a, b| a.answer_s.total_cmp(&b.answer_s)).expect("traced");
    print_split(&format!("fastest of {} traced warm repetitions", traced.len()), fastest);
    eprintln!(
        "perfbench:   traced answer p{:.0} {run_s:.5} s vs untraced {:.5} s",
        100.0 * LOW_Q,
        low(&plain)
    );
    Ok(())
}
