//! Seeded inputs. The seed generates every input a workload feeds the
//! program; [`DEFAULT_SEED`] reproduces the committed scenarios byte for
//! byte, so its streams can be checked against the committed goldens.

use std::path::Path;

/// The seed whose inputs are the committed scenario files, unchanged.
pub const DEFAULT_SEED: u64 = 0;

/// SplitMix64: a tiny, well-mixed generator, so equal seeds give equal
/// inputs on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Reads a committed file of the repository, relative to its root.
pub fn read_repo_file(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
}

/// `text` with its single `"budgets": ...` line replaced by `budgets`
/// (a JSON value). Scenario files keep each field on its own line.
fn with_budgets(text: &str, budgets: &str) -> Result<String, String> {
    let mut found = 0;
    let out: Vec<String> = text
        .lines()
        .map(|line| match line.trim_start().strip_prefix("\"budgets\":") {
            Some(_) => {
                found += 1;
                format!("  \"budgets\": {budgets},")
            }
            None => line.to_string(),
        })
        .collect();
    if found != 1 {
        return Err(format!("expected one \"budgets\" line in the scenario, found {found}"));
    }
    Ok(out.join("\n") + "\n")
}

/// The design-space-sweep scenario for `seed`: the committed grid with
/// each budget raised by a seeded 0–9 GB/s, so every seed prices the
/// same 80-point shape × workload × objective grid at nearby budgets.
pub fn crossval_scenario(committed: &str, seed: u64) -> Result<String, String> {
    if seed == DEFAULT_SEED {
        return Ok(committed.to_string());
    }
    let mut rng = Rng::new(seed);
    let budgets: Vec<String> = (1..=10).map(|k| (100 * k + rng.below(10)).to_string()).collect();
    with_budgets(committed, &format!("[{}]", budgets.join(", ")))
}

/// The kinds of job the served mix submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A small crossval scenario whose points are already in the store.
    Warm,
    /// A small crossval scenario at budgets no job has used before.
    Cold,
    /// A small adaptive search over a fresh budget ladder.
    Search,
}

/// Jobs per block of the served mix: [`COLD_PER_BLOCK`] cold jobs, one
/// search job, and warm jobs for the rest. With these shares the p95
/// tail falls inside the cold jobs' latencies (search jobs take the top
/// 2.5%), not on the cliff between two kinds of job.
pub const BLOCK: usize = 40;
pub const COLD_PER_BLOCK: usize = 2;

/// Distinct warm scenarios, all filled into the store before timing.
pub const WARM_POOL: usize = 6;

/// One job of the served mix: its kind and scenario text.
#[derive(Debug, Clone)]
pub struct Job {
    pub kind: JobKind,
    pub scenario: String,
}

/// Generates the served mix for `seed`: the warm scenario pool, and a
/// function from job number to job. Every block of [`BLOCK`] jobs holds
/// exactly [`COLD_PER_BLOCK`] cold jobs and one search job at seeded
/// positions; warm jobs draw from the pool. Cold and search
/// budgets depend on the job number, so no two jobs share them.
pub struct ServeMix {
    crossval: String,
    search: String,
    pub pool: Vec<String>,
    seed: u64,
}

impl ServeMix {
    pub fn new(crossval: &str, search: &str, seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x005E_ED0F_5E4E);
        let pool = (0..WARM_POOL)
            .map(|k| {
                let lo = 100 + 150 * k as u64 + rng.below(50);
                with_budgets(crossval, &format!("[{lo}, {}]", lo + 400))
            })
            .collect::<Result<_, _>>()?;
        Ok(ServeMix { crossval: crossval.to_string(), search: search.to_string(), pool, seed })
    }

    pub fn job(&self, n: usize) -> Result<Job, String> {
        let block = (n / BLOCK) as u64;
        let mut rng = Rng::new(self.seed.wrapping_mul(0x100_0000_01B3) ^ block);
        // Seeded slots within the block: a shuffle of 0..BLOCK whose
        // first entries are the cold jobs and the next the search job.
        let mut slots: Vec<usize> = (0..BLOCK).collect();
        for i in 0..=COLD_PER_BLOCK {
            let j = i + rng.below((BLOCK - i) as u64) as usize;
            slots.swap(i, j);
        }
        let slot = slots.iter().position(|&s| s == n % BLOCK).expect("slots cover the block");
        // A budget offset unique to this job: budgets stay distinct from
        // the integer pool budgets and from every other job's.
        let fresh = 0.5 + n as f64 / 1024.0;
        let mut rng = Rng::new(self.seed ^ (n as u64).wrapping_mul(0x9E37_79B9));
        if slot < COLD_PER_BLOCK {
            let lo = 100.0 + rng.below(400) as f64 + fresh;
            let budgets = format!("[{lo}, {}]", lo + 400.0);
            Ok(Job { kind: JobKind::Cold, scenario: with_budgets(&self.crossval, &budgets)? })
        } else if slot == COLD_PER_BLOCK {
            let from = 100.0 + rng.below(100) as f64 + fresh;
            let ladder = format!(
                "{{\"from\": {from}, \"to\": {}, \"count\": 25, \"scale\": \"linear\"}}",
                from + 900.0
            );
            Ok(Job { kind: JobKind::Search, scenario: with_budgets(&self.search, &ladder)? })
        } else {
            let k = rng.below(WARM_POOL as u64) as usize;
            Ok(Job { kind: JobKind::Warm, scenario: self.pool[k].clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CROSSVAL: &str =
        "{\n  \"name\": \"x\",\n  \"budgets\": [100, 200],\n  \"chunks\": 64\n}\n";

    #[test]
    fn default_seed_is_the_committed_scenario() {
        assert_eq!(crossval_scenario(CROSSVAL, DEFAULT_SEED).unwrap(), CROSSVAL);
    }

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        let a = crossval_scenario(CROSSVAL, 7).unwrap();
        assert_eq!(a, crossval_scenario(CROSSVAL, 7).unwrap());
        assert_ne!(a, crossval_scenario(CROSSVAL, 8).unwrap());
        assert!(a.contains("\"budgets\": [1"), "{a}");
    }

    #[test]
    fn every_block_holds_the_fixed_mix() {
        let mix = ServeMix::new(CROSSVAL, CROSSVAL, 3).unwrap();
        for block in 0..5 {
            let jobs: Vec<Job> = (0..BLOCK).map(|i| mix.job(block * BLOCK + i).unwrap()).collect();
            let count = |k| jobs.iter().filter(|j| j.kind == k).count();
            assert_eq!(count(JobKind::Cold), COLD_PER_BLOCK);
            assert_eq!(count(JobKind::Search), 1);
            assert_eq!(count(JobKind::Warm), BLOCK - COLD_PER_BLOCK - 1);
        }
        let cold: Vec<String> = (0..5 * BLOCK)
            .map(|n| mix.job(n).unwrap())
            .filter(|j| j.kind != JobKind::Warm)
            .map(|j| j.scenario)
            .collect();
        let mut unique = cold.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), cold.len(), "cold and search jobs never share budgets");
    }
}
