//! The LIBRA benchmark: two seeded workloads, end-to-end metrics from
//! untraced runs and a per-layer split from traced ones. See README.md.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod inproc;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use report::Metrics;

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["crossval_warm", "serve_mix"];

/// The repository files a run reads.
#[derive(Debug, Clone, Copy)]
pub struct Files {
    pub crossval: &'static str,
    pub crossval_golden: &'static str,
    pub served_crossval: &'static str,
    pub served_search: &'static str,
}

impl Files {
    /// The benchmark's inputs.
    pub const FULL: Files = Files {
        crossval: "scenarios/design_space_sweep.json",
        crossval_golden: "scenarios/design_space_sweep.golden.jsonl",
        served_crossval: "scenarios/ci_small.json",
        served_search: "scenarios/search_small.json",
    };

    /// Small stand-ins for the tests, which run unoptimized.
    #[cfg(test)]
    pub const SMALL: Files = Files {
        crossval: "scenarios/ci_small.json",
        crossval_golden: "scenarios/ci_small.golden.jsonl",
        ..Files::FULL
    };
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The repository root: the working directory.
    pub root: PathBuf,
    pub files: Files,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        files: Files::FULL,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("bad --seconds {}", args.seconds));
    }
    Ok(args)
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A private directory under the checkout for a run's files (stores),
/// removed when the run ends.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(root: &Path, workload: &str) -> Result<Self, String> {
        let dir = root.join(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one workload and checks its metrics against `BENCHMARK.json`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (end_to_end, per_layer) = report::declared(&args.root)?;
    let scratch = ScratchDir::new(&args.root, &args.workload)?;
    let outcome = match args.workload.as_str() {
        "crossval_warm" => inproc::run(args, &scratch)?,
        _ => serve::run(args, &scratch)?,
    };
    report::check(&outcome.metrics, if args.trace { &per_layer } else { &end_to_end })?;
    if outcome.failed > 0 {
        return Err(format!(
            "{} of {} attempts failed on a workload chosen to fail none",
            outcome.failed, outcome.attempted
        ));
    }
    Ok(outcome)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(o) => println!("{}", report::result_line(true, o.attempted, o.failed, &o.metrics)),
        Err(e) => {
            // A wrong answer is never reported as a number.
            eprintln!("perfbench: FAILED: {e}");
            println!("{}", report::result_line(false, 1, 1, &Metrics::default()));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use libra_bench::{default_registry, scenario_workloads, Scenario};
    use libra_core::cost::CostModel;
    use libra_core::fault::FaultInjector;
    use libra_server::{Server, ServerConfig, ServiceClient};

    use super::*;

    /// Runs share the process-wide spans and their scratch directories,
    /// so tests that run workloads take turns.
    static RUNS: Mutex<()> = Mutex::new(());

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn small_args(workload: &str, trace: bool) -> Args {
        let argv: Vec<String> = [
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        Args { root: root(), files: Files::SMALL, ..parse_args(&argv).unwrap() }
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        let (end_to_end, per_layer) = report::declared(&root()).unwrap();
        for (name, _) in end_to_end.iter().chain(&per_layer) {
            assert!(report::valid_name(name), "{name}");
        }
        for workload in WORKLOADS {
            for trace in [false, true] {
                // `run` checks the emitted metrics against the declaration.
                let o = run(&small_args(workload, trace))
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(o.attempted > 0 && o.failed == 0, "{workload}");
            }
        }
    }

    #[test]
    fn seeds_other_than_the_default_also_pass_the_gates() {
        let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        let args = Args { seed: 5, ..small_args("crossval_warm", false) };
        run(&args).unwrap();
    }

    #[test]
    fn poisoned_points_count_against_grid_points() {
        let text = std::fs::read_to_string(root().join("scenarios/ci_small.json")).unwrap();
        let scenario = Scenario::from_json(&text).unwrap();
        let workloads = scenario_workloads(&scenario).unwrap();
        let cost_model = CostModel::default();
        let session = scenario
            .session(&cost_model)
            .with_fault(FaultInjector::from_spec("sweep.point.error=#1").unwrap())
            .unwrap();
        let report = session.run_scenario(&scenario, &workloads, &default_registry()).unwrap();
        assert_eq!(inproc::point_failures(&report.sweep), (4, 1));
    }

    #[test]
    fn refused_and_poisoned_jobs_count_against_submissions() {
        let text = std::fs::read_to_string(root().join("scenarios/ci_small.json")).unwrap();
        let start = |config: ServerConfig| {
            let server =
                Server::start(config, default_registry(), Box::new(scenario_workloads)).unwrap();
            let client = ServiceClient::new(&server.addr().to_string()).unwrap();
            (server, client)
        };

        // Every job's first grid point is poisoned.
        let (server, client) = start(ServerConfig {
            fault_spec: Some("sweep.point.error=#1".to_string()),
            ..ServerConfig::default()
        });
        let poisoned = serve::drive_one(&client, text.as_bytes()).unwrap();
        server.shutdown();
        server.join().unwrap();

        // No workers and room for one waiting job: the second is refused.
        let (server, client) =
            start(ServerConfig { workers: 0, queue_capacity: 1, ..ServerConfig::default() });
        client.submit(text.as_bytes()).unwrap();
        let refused = serve::drive_one(&client, text.as_bytes()).unwrap();
        server.shutdown();
        server.join().unwrap();

        let (server, client) = start(ServerConfig::default());
        let clean = serve::drive_one(&client, text.as_bytes()).unwrap();
        server.shutdown();
        server.join().unwrap();

        // Three submissions, two of them failed: a failed share of 2/3.
        assert_eq!(serve::failures(&[clean, poisoned, refused]), (3, 2));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(&s.split(' ').map(str::to_string).collect::<Vec<_>>());
        assert!(parse("--workload crossval_warm --seed 3 --seconds 1 --trace 1").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_mix --trace 2").is_err());
        assert!(parse("--workload serve_mix --seed").is_err());
    }
}
