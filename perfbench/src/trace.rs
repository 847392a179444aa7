//! Per-layer spans recorded from outside the library.
//!
//! Each layer is timed at a public seam the crates already expose:
//! backends through [`BackendRegistry::register`], workloads by wrapping
//! the [`FnWorkload`]s `scenario_workloads` resolves, and the record
//! stream through [`ReportSink`].
//! The wrappers are installed only in traced runs, so untraced runs
//! execute the library exactly as a user would.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use libra_bench::{
    default_registry, scenario_workloads, BackendRegistry, ReportSink, Scenario, SessionReport,
};
use libra_core::eval::{CommPlan, EvalBackend};
use libra_core::network::NetworkShape;
use libra_core::scenario::{RecordRow, RunMeta};
use libra_core::sweep::{FnWorkload, SweepWorkload};
use libra_core::LibraError;

/// Busy time and call count of one layer seam. Relaxed ordering: the
/// counters are statistics that publish no other data, and they are read
/// only after the threads that update them have been joined or have
/// finished the work being read.
pub struct Span {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    const fn new() -> Self {
        Span { nanos: AtomicU64::new(0), calls: AtomicU64::new(0) }
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

pub static TARGETS: Span = Span::new();
pub static PLAN: Span = Span::new();
pub static ANALYTICAL: Span = Span::new();
pub static EVENT_SIM: Span = Span::new();
pub static NET_SIM: Span = Span::new();
pub static SINK: Span = Span::new();

const ALL: [&Span; 6] = [&TARGETS, &PLAN, &ANALYTICAL, &EVENT_SIM, &NET_SIM, &SINK];

/// A snapshot of every span: seconds and calls, in [`ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    secs: [f64; 6],
    calls: [u64; 6],
}

impl Snapshot {
    pub fn take() -> Self {
        let mut s = Snapshot::default();
        for (i, span) in ALL.iter().enumerate() {
            s.secs[i] = span.nanos.load(Ordering::Relaxed) as f64 * 1e-9;
            s.calls[i] = span.calls.load(Ordering::Relaxed);
        }
        s
    }

    /// The work recorded since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = Snapshot::default();
        for i in 0..ALL.len() {
            d.secs[i] = self.secs[i] - earlier.secs[i];
            d.calls[i] = self.calls[i] - earlier.calls[i];
        }
        d
    }

    fn index(span: &Span) -> usize {
        ALL.iter().position(|s| std::ptr::eq(*s, span)).expect("span is registered in ALL")
    }

    pub fn secs(&self, span: &Span) -> f64 {
        self.secs[Self::index(span)]
    }

    pub fn calls(&self, span: &Span) -> u64 {
        self.calls[Self::index(span)]
    }

    /// Time spent in every wrapped seam together.
    pub fn wrapped_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Time spent in the three backends together.
    pub fn backend_secs(&self) -> f64 {
        self.secs(&ANALYTICAL) + self.secs(&EVENT_SIM) + self.secs(&NET_SIM)
    }
}

/// The span a registered backend name is accounted to.
fn backend_span(name: &str) -> &'static Span {
    if name.starts_with("event-sim") {
        &EVENT_SIM
    } else if name.starts_with("net-sim") {
        &NET_SIM
    } else {
        &ANALYTICAL
    }
}

struct TimedBackend {
    inner: Box<dyn EvalBackend>,
    span: &'static Span,
}

impl EvalBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        self.span.time(|| self.inner.eval_plan(n_dims, bw, plan))
    }
}

/// `default_registry()` with every backend wrapped in a timer, under the
/// same names and descriptions.
pub fn timed_registry() -> BackendRegistry {
    let base = Arc::new(default_registry());
    let mut registry = BackendRegistry::empty();
    for (name, description) in base.entries() {
        let (base, owned) = (Arc::clone(&base), name.to_string());
        let span = backend_span(name);
        registry
            .register_described(name, description, move |config| {
                let inner = base.build(&owned, config).expect("name comes from this registry");
                Box::new(TimedBackend { inner, span })
            })
            .expect("names are unique in the default registry");
    }
    registry
}

/// [`scenario_workloads`] with every target and plan builder timed —
/// the resolver both the in-process runs and the server are handed.
/// Every workload the benchmark's scenarios name is a paper model, which
/// carries a communication plan.
pub fn timed_workloads(scenario: &Scenario) -> Result<Vec<FnWorkload>, LibraError> {
    Ok(scenario_workloads(scenario)?
        .into_iter()
        .map(|w| {
            let w = Arc::new(w);
            let name = w.name().to_string();
            let targets = Arc::clone(&w);
            FnWorkload::new(name, move |shape: &NetworkShape| {
                TARGETS.time(|| targets.targets(shape))
            })
            .with_plan(move |shape: &NetworkShape| {
                PLAN.time(|| w.comm_plan(shape))?.ok_or_else(|| {
                    LibraError::BadRequest(format!("workload {:?} lost its plan", w.name()))
                })
            })
        })
        .collect())
}

/// A report sink whose every callback is timed.
pub struct TimedSink<S>(pub S);

impl<S: ReportSink> ReportSink for TimedSink<S> {
    fn on_run_start(&mut self, meta: &RunMeta<'_>) {
        SINK.time(|| self.0.on_run_start(meta));
    }

    fn on_record(&mut self, row: &RecordRow) {
        SINK.time(|| self.0.on_record(row));
    }

    fn on_run_end(&mut self, report: &SessionReport) {
        SINK.time(|| self.0.on_run_end(report));
    }
}
