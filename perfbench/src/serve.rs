//! The served path: an in-process `Server::start` over a shared store,
//! driven by closed-loop `ServiceClient` threads through a seeded mix
//! of warm, cold and search jobs.

use std::collections::HashMap;
use std::hash::Hasher;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use libra_bench::{default_registry, scenario_workloads, search, ExecMode, Scenario};
use libra_core::cost::CostModel;
use libra_core::scenario::{Json, JsonLinesSink, JsonParser, ReportSink};
use libra_core::sweep::{FnWorkload, SweepReport};
use libra_core::LibraError;
use libra_server::{PolledStatus, Server, ServerConfig, ServiceClient, WorkloadResolver};

use crate::inputs::{self, JobKind, ServeMix, BLOCK};
use crate::report::Metrics;
use crate::stats::{geomean, low, median, tail};
use crate::trace::{self, Snapshot};
use crate::{peak_rss_mb, Args, Outcome, ScratchDir};

/// Closed-loop clients driving the server, one per vCPU of the 2-vCPU
/// host the workload was sized on.
pub const CLIENTS: usize = 2;

/// Pause between status polls. It quantizes the measured latency: a job
/// is seen done up to one interval (plus one request) after it is. A
/// request itself waits up to 10 ms: the server's accept loop sleeps that
/// long whenever it finds no pending connection, so every served latency
/// moves in steps of about 10 ms per request.
pub const POLL: Duration = Duration::from_millis(2);

/// Server starts measured for `setup_s`: at least [`SETUPS`], for at
/// least [`SETUP_SECONDS`]; the last one serves the run.
const SETUPS: usize = 41;
const SETUP_SECONDS: f64 = 1.0;

/// A record stream, reduced to what the checks and metrics need, so a
/// run holds no served bytes and its peak RSS stays the library's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stream {
    /// SipHash of the bytes: equal streams are equal here, and a
    /// differing stream collides with probability 2^-64.
    digest: u64,
    bytes: usize,
    /// Record lines, without the header and summary lines.
    records: usize,
}

impl Stream {
    fn of(bytes: &[u8]) -> Stream {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write(bytes);
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        Stream { digest: h.finish(), bytes: bytes.len(), records: lines.saturating_sub(2) }
    }
}

/// How one submission ended.
#[derive(Debug)]
enum Ended {
    Done { stream: Stream, poisoned: usize },
    Failed,
    Refused,
}

/// One job as the client saw it.
#[derive(Debug)]
pub(crate) struct Sample {
    n: usize,
    kind: JobKind,
    submitted_at: Instant,
    finished_at: Instant,
    latency_s: f64,
    submit_s: f64,
    /// A lower bound on the job's queue wait: from acceptance to the last
    /// poll that still saw it queued (0 if no poll did).
    queue_wait_s: f64,
    fetch_s: f64,
    polls: usize,
    ended: Ended,
}

/// Hands out job numbers until the window closes, then finishes the
/// current block, so every run serves whole blocks of the fixed mix.
struct Dispatcher {
    first: usize,
    next: Mutex<usize>,
    started: Instant,
    window: Duration,
}

impl Dispatcher {
    fn take(&self) -> Option<usize> {
        let mut next = self.next.lock().expect("dispatcher lock is never poisoned");
        if self.started.elapsed() >= self.window && next.is_multiple_of(BLOCK) && *next > self.first
        {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }
}

fn err(e: LibraError) -> String {
    e.to_string()
}

/// Runs one job from submit to fetched records.
fn drive(client: &ServiceClient, n: usize, kind: JobKind, body: &[u8]) -> Result<Sample, String> {
    let submitted_at = Instant::now();
    let response = client.post("/v1/sweeps", body).map_err(err)?;
    let submit_s = submitted_at.elapsed().as_secs_f64();
    let done = |ended, polls, queue_wait_s, fetch_s| {
        let finished_at = Instant::now();
        Ok(Sample {
            n,
            kind,
            submitted_at,
            finished_at,
            latency_s: (finished_at - submitted_at).as_secs_f64(),
            submit_s,
            queue_wait_s,
            fetch_s,
            polls,
            ended,
        })
    };
    match response.status {
        202 => {}
        503 => return done(Ended::Refused, 0, 0.0, 0.0),
        s => {
            let text = String::from_utf8_lossy(&response.body);
            return Err(format!("job {n}: submit answered {s}: {text}"));
        }
    }
    let text = String::from_utf8_lossy(&response.body);
    let id = JsonParser::parse(text.trim())
        .map_err(err)?
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("job {n}: no job id in {text}"))?
        .to_string();
    let accepted = Instant::now();
    let mut polls = 0;
    let mut queued_until = accepted;
    let summary = loop {
        polls += 1;
        let asked = Instant::now();
        match client.status(&id).map_err(err)? {
            // The job was still queued when this poll was sent.
            PolledStatus::Queued { .. } => queued_until = asked,
            PolledStatus::Running { .. } => {}
            PolledStatus::Done(summary) => break Some(summary),
            PolledStatus::Failed { .. } => break None,
        }
        std::thread::sleep(POLL);
    };
    let queue_wait_s = (queued_until - accepted).as_secs_f64();
    let Some(summary) = summary else {
        return done(Ended::Failed, polls, queue_wait_s, 0.0);
    };
    let fetching = Instant::now();
    let stream = Stream::of(&client.records(&id).map_err(err)?);
    let fetch_s = fetching.elapsed().as_secs_f64();
    done(Ended::Done { stream, poisoned: summary.errors }, polls, queue_wait_s, fetch_s)
}

/// Drives one crossval job to its end, for tests.
#[cfg(test)]
pub(crate) fn drive_one(client: &ServiceClient, body: &[u8]) -> Result<Sample, String> {
    drive(client, 0, JobKind::Warm, body)
}

/// Starts a server on `store` and waits for `/v1/healthz`; returns it
/// with the seconds that took.
fn start(store: &Path, traced: bool) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let resolver: Box<WorkloadResolver> =
        Box::new(if traced { trace::timed_workloads } else { scenario_workloads });
    let registry = if traced { trace::timed_registry() } else { default_registry() };
    // The default config: 2 sweep workers, a 64-job queue.
    let config = ServerConfig { cache: Some(store.to_path_buf()), ..ServerConfig::default() };
    let server = Server::start(config, registry, resolver).map_err(err)?;
    let client = ServiceClient::new(&server.addr().to_string()).map_err(err)?;
    let health = client.get("/v1/healthz").map_err(err)?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

fn stop(server: Server) -> Result<(), String> {
    server.shutdown();
    server.join().map_err(err)
}

/// `/v1/stats`' shared-store counters: (hits, staged).
fn store_counters(client: &ServiceClient) -> Result<(f64, f64), String> {
    let body = client.get("/v1/stats").map_err(err)?.body;
    let text = String::from_utf8_lossy(&body);
    let v = JsonParser::parse(text.trim()).map_err(err)?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("stats lack {k}: {text}"));
    Ok((num("store_hits")?, num("store_staged")?))
}

/// What a window of served jobs measured.
struct Window {
    samples: Vec<Sample>,
    elapsed: f64,
    spans: Snapshot,
    hits: f64,
    staged: f64,
}

/// Serves jobs from `mix`, numbered from `first` (a block boundary), to
/// [`CLIENTS`] closed-loop clients for `seconds`, rounded up to whole
/// blocks.
fn window(server: &Server, mix: &ServeMix, first: usize, seconds: f64) -> Result<Window, String> {
    let url = server.addr().to_string();
    let client = ServiceClient::new(&url).map_err(err)?;
    let (hits0, staged0) = store_counters(&client)?;
    let before = Snapshot::take();
    let dispatcher = Dispatcher {
        first,
        next: Mutex::new(first),
        started: Instant::now(),
        window: Duration::from_secs_f64(seconds),
    };
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let client = ServiceClient::new(&url).map_err(err)?;
                    let mut samples = Vec::new();
                    while let Some(n) = dispatcher.take() {
                        let job = mix.job(n)?;
                        samples.push(drive(&client, n, job.kind, job.scenario.as_bytes())?);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = dispatcher.started.elapsed().as_secs_f64();
    let spans = Snapshot::take().since(&before);
    let (hits1, staged1) = store_counters(&client)?;
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.n);
    Ok(Window { samples, elapsed, spans, hits: hits1 - hits0, staged: staged1 - staged0 })
}

/// The in-process stream and report for a job scenario, priced cold on
/// a fresh session, optionally filling `store`.
fn in_process(text: &str, store: Option<&Path>) -> Result<(Vec<u8>, SweepReport), String> {
    let scenario = Scenario::from_json(text).map_err(err)?;
    let workloads: Vec<FnWorkload> = scenario_workloads(&scenario).map_err(err)?;
    let cost_model = CostModel::default();
    let mut session = scenario.session(&cost_model).with_mode(ExecMode::Serial);
    if let Some(path) = store {
        session = session.with_store(path).map_err(err)?;
    }
    let mut jsonl = JsonLinesSink::new(Vec::new());
    let mut sinks: [&mut dyn ReportSink; 1] = [&mut jsonl];
    let sweep = if scenario.search.is_some() {
        search::run_scenario(&session, &scenario, &workloads, &mut sinks).map_err(err)?.sweep
    } else {
        session
            .run_scenario_with_sinks(&scenario, &workloads, &default_registry(), &mut sinks)
            .map_err(err)?
            .sweep
    };
    session.engine().flush_store().map_err(err)?;
    Ok((jsonl.into_inner(), sweep))
}

/// Checks every served stream against the in-process stream of the same
/// scenario. The references missing from `known` are priced on
/// [`CLIENTS`] threads, since cold and search jobs take most of it.
fn verify(
    mix: &ServeMix,
    samples: &[Sample],
    known: &mut HashMap<String, Stream>,
) -> Result<(), String> {
    let mut served = Vec::new();
    for s in samples {
        if let Ended::Done { stream, .. } = s.ended {
            served.push((s, mix.job(s.n)?.scenario, stream));
        }
    }
    let mut missing: Vec<&String> =
        served.iter().map(|(_, text, _)| text).filter(|t| !known.contains_key(*t)).collect();
    missing.sort();
    missing.dedup();
    let priced: Vec<Result<Vec<(String, Stream)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let mine: Vec<&String> = missing.iter().skip(k).step_by(CLIENTS).copied().collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|text| Ok((text.clone(), Stream::of(&in_process(text, None)?.0))))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("verifier thread panicked")).collect()
    });
    for batch in priced {
        known.extend(batch?);
    }
    for (s, text, stream) in served {
        if known[&text] != stream {
            return Err(format!(
                "job {} ({:?}) served records that differ from the in-process run",
                s.n, s.kind
            ));
        }
    }
    Ok(())
}

/// Submissions and failures: refused and failed jobs, and jobs that
/// poisoned any point, count as failed.
pub(crate) fn failures(samples: &[Sample]) -> (u64, u64) {
    let failed = samples
        .iter()
        .filter(|s| match s.ended {
            Ended::Done { poisoned, .. } => poisoned > 0,
            Ended::Failed | Ended::Refused => true,
        })
        .count();
    (samples.len() as u64, failed as u64)
}

pub fn run(args: &Args, scratch: &ScratchDir) -> Result<Outcome, String> {
    let crossval = inputs::read_repo_file(&args.root, args.files.served_crossval)?;
    let search_text = inputs::read_repo_file(&args.root, args.files.served_search)?;
    let mix = ServeMix::new(&crossval, &search_text, args.seed)?;
    let store = scratch.path().join("shared.cache");

    // Fill the store with the warm pool before anything is timed; the
    // filling runs are the pool's in-process reference streams.
    let mut known = HashMap::new();
    let (mut perf, mut ppc) = (Vec::new(), Vec::new());
    for text in &mix.pool {
        let (bytes, sweep) = in_process(text, Some(&store))?;
        for r in &sweep.results {
            match r.point.objective {
                libra_core::opt::Objective::Perf => perf.push(r.speedup()),
                libra_core::opt::Objective::PerfPerCost => ppc.push(r.ppc_gain()),
            }
        }
        known.insert(text.clone(), Stream::of(&bytes));
    }

    let mut m = Metrics::default();
    let outcome = if args.trace {
        // Half the window untraced, half traced, for the overhead share.
        let (plain_server, _) = start(&store, false)?;
        let plain = window(&plain_server, &mix, 0, args.seconds / 2.0);
        stop(plain_server)?;
        let plain = plain?;
        // The traced window continues the job sequence, so its cold jobs
        // are as cold as the untraced window's.
        let (server, _) = start(&store, true)?;
        let traced = window(&server, &mix, plain.samples.len(), args.seconds / 2.0);
        stop(server)?;
        let traced = traced?;
        verify(&mix, &plain.samples, &mut known)?;
        verify(&mix, &traced.samples, &mut known)?;
        layers(&mut m, &plain, &traced, &store)?;
        let (a, f) = failures(&plain.samples);
        let (b, g) = failures(&traced.samples);
        (a + b, f + g)
    } else {
        let mut setups = Vec::new();
        let setting_up = Instant::now();
        let server = loop {
            let (s, secs) = start(&store, false)?;
            setups.push(secs);
            if setups.len() >= SETUPS && setting_up.elapsed().as_secs_f64() >= SETUP_SECONDS {
                break s;
            }
            stop(s)?;
        };
        let served = window(&server, &mix, 0, args.seconds);
        stop(server)?;
        let w = served?;
        verify(&mix, &w.samples, &mut known)?;
        e2e(&mut m, &w, low(&setups), geomean(&perf), geomean(&ppc))?;
        failures(&w.samples)
    };
    Ok(Outcome { attempted: outcome.0, failed: outcome.1, metrics: m })
}

fn completed(w: &Window) -> Vec<&Sample> {
    w.samples.iter().filter(|s| matches!(s.ended, Ended::Done { .. })).collect()
}

fn e2e(m: &mut Metrics, w: &Window, setup_s: f64, perf: f64, ppc: f64) -> Result<(), String> {
    let done = completed(w);
    if done.is_empty() {
        return Err("no served job completed".to_string());
    }
    let latencies: Vec<f64> = done.iter().map(|s| s.latency_s).collect();
    // A block's makespan: its first submit to its last fetched record.
    let mut blocks: HashMap<usize, (Instant, Instant)> = HashMap::new();
    for s in &w.samples {
        let b = blocks.entry(s.n / BLOCK).or_insert((s.submitted_at, s.finished_at));
        b.0 = b.0.min(s.submitted_at);
        b.1 = b.1.max(s.finished_at);
    }
    let makespans: Vec<f64> = blocks.values().map(|(a, b)| (*b - *a).as_secs_f64()).collect();
    let (pct, tail_s) = tail(&latencies);
    eprintln!(
        "perfbench: {} jobs in {} blocks over {:.2} s, {CLIENTS} closed-loop clients, \
         {} ms polls; block makespan p5 {:.4} s, median {:.4} s; \
         latency p50 {:.4} s, tail p{pct} {:.4} s ({} samples)",
        w.samples.len(),
        blocks.len(),
        w.elapsed,
        POLL.as_millis(),
        low(&makespans),
        median(&makespans),
        median(&latencies),
        tail_s,
        latencies.len()
    );
    m.put("setup_s", setup_s, "s");
    // The makespan is compute (the cold and search jobs) plus fixed
    // request steps, so it takes the in-process timings' low quantile.
    m.put("time_to_answer_s", low(&makespans), "s");
    m.put("job_latency_p50_s", median(&latencies), "s");
    m.put("jobs_per_s", done.len() as f64 / w.elapsed, "1/s");
    m.put("perf_speedup_geomean", perf, "x");
    m.put("ppc_gain_geomean", ppc, "x");
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(())
}

/// The server layer's metrics, zero on the in-process workloads.
pub fn zero_server_layers(m: &mut Metrics) {
    for (name, unit) in SERVER_LAYERS {
        m.put(name, 0.0, unit);
    }
}

const SERVER_LAYERS: [(&str, &str); 6] = [
    ("server.submit_s", "s"),
    ("server.queue_wait_s", "s"),
    ("server.records_fetch_s", "s"),
    ("server.polls_per_job", "count"),
    ("server.store_hits", "count"),
    ("server.job_tail_s", "s"),
];

/// The per-layer split of the served path. Layers inside the server are
/// timed through the injected registry and resolver and reported per
/// job; the server's own stages are timed from the client.
fn layers(m: &mut Metrics, plain: &Window, w: &Window, store: &Path) -> Result<(), String> {
    let done = completed(w);
    if done.is_empty() {
        return Err("no served job completed".to_string());
    }
    let jobs = w.samples.len() as f64;
    let per_job = |x: f64| x / jobs;
    let med = |f: &dyn Fn(&Sample) -> f64| median(&done.iter().map(|s| f(s)).collect::<Vec<_>>());
    // A job's service time: what remains of its latency after the
    // client-visible submit, queue wait and fetch. The queue wait is a
    // lower bound, so this is an upper bound, which holds every span the
    // job's worker recorded.
    let service: f64 =
        done.iter().map(|s| s.latency_s - s.submit_s - s.queue_wait_s - s.fetch_s).sum();
    let sp = &w.spans;
    if service < sp.wrapped_secs() {
        return Err(format!(
            "served split is inconsistent: {service:.4} s of service hold {:.4} s of spans",
            sp.wrapped_secs()
        ));
    }
    let streams: Vec<(JobKind, Stream)> = done
        .iter()
        .filter_map(|s| match s.ended {
            Ended::Done { stream, .. } => Some((s.kind, stream)),
            _ => None,
        })
        .collect();
    let bytes: usize = streams.iter().map(|(_, st)| st.bytes).sum();
    let records: usize = streams.iter().map(|(_, st)| st.records).sum();
    let search: Vec<usize> =
        streams.iter().filter(|(k, _)| *k == JobKind::Search).map(|(_, st)| st.records).collect();

    m.put("scenario.parse_s", 0.0, "s");
    m.put("scenario.sink_s", 0.0, "s");
    m.put("scenario.sink_bytes", bytes as f64 / done.len() as f64, "bytes");
    m.put("scenario.records", records as f64 / done.len() as f64, "count");
    m.put("workloads.targets_s", per_job(sp.secs(&trace::TARGETS)), "s");
    m.put("workloads.targets_calls", per_job(sp.calls(&trace::TARGETS) as f64), "count");
    m.put("workloads.plan_s", per_job(sp.secs(&trace::PLAN)), "s");
    m.put("workloads.plan_calls", per_job(sp.calls(&trace::PLAN) as f64), "count");
    m.put("sweep.run_s", per_job(service), "s");
    m.put("sweep.self_s", per_job(service - sp.wrapped_secs()), "s");
    m.put("sweep.self_share", (service - sp.wrapped_secs()) / service, "ratio");
    m.put("sweep.solves", per_job(w.staged), "count");
    m.put("sweep.memo_hits", 0.0, "count");
    m.put("eval.analytical_s", per_job(sp.secs(&trace::ANALYTICAL)), "s");
    m.put("eval.analytical_calls", per_job(sp.calls(&trace::ANALYTICAL) as f64), "count");
    m.put("sim.event_sim_s", per_job(sp.secs(&trace::EVENT_SIM)), "s");
    m.put("sim.event_sim_calls", per_job(sp.calls(&trace::EVENT_SIM) as f64), "count");
    m.put("net.net_sim_s", per_job(sp.secs(&trace::NET_SIM)), "s");
    m.put("net.net_sim_calls", per_job(sp.calls(&trace::NET_SIM) as f64), "count");
    m.put("eval.backends_share", sp.backend_secs() / service, "ratio");
    m.put("store.open_s", 0.0, "s");
    m.put("store.hits", per_job(w.hits), "count");
    m.put("store.staged", per_job(w.staged), "count");
    let file_bytes = std::fs::metadata(store).map_err(|e| format!("store file: {e}"))?.len();
    m.put("store.file_bytes", file_bytes as f64, "bytes");
    // A search stream carries one record per evaluated grid cell.
    m.put(
        "search.evals",
        search.iter().sum::<usize>() as f64 / search.len().max(1) as f64,
        "count",
    );
    m.put("server.submit_s", med(&|s| s.submit_s), "s");
    m.put(
        "server.queue_wait_s",
        done.iter().map(|s| s.queue_wait_s).sum::<f64>() / done.len() as f64,
        "s",
    );
    m.put("server.records_fetch_s", med(&|s| s.fetch_s), "s");
    m.put(
        "server.polls_per_job",
        done.iter().map(|s| s.polls as f64).sum::<f64>() / done.len() as f64,
        "count",
    );
    m.put("server.store_hits", per_job(w.hits), "count");
    // The served tail is reported here, from the traced half-window, and
    // not gated end to end: it sits among the cold jobs, whose solver
    // time follows the host's slow phases, and moved 26% between runs.
    m.put("server.job_tail_s", tail(&done.iter().map(|s| s.latency_s).collect::<Vec<_>>()).1, "s");
    let p50 = |w: &Window| median(&completed(w).iter().map(|s| s.latency_s).collect::<Vec<_>>());
    m.put("trace.overhead_share", p50(w) / p50(plain) - 1.0, "ratio");
    eprintln!(
        "perfbench: served split per job over {} jobs: service {:.5} s = sweep {:.5} s + backends {:.5} s + workloads {:.5} s",
        w.samples.len(),
        per_job(service),
        per_job(service - sp.wrapped_secs()),
        per_job(sp.backend_secs()),
        per_job(sp.secs(&trace::TARGETS) + sp.secs(&trace::PLAN)),
    );
    Ok(())
}
