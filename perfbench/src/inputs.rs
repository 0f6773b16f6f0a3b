//! Workload definitions and input generation.
//!
//! Every input is made from the workload seed given on the command line:
//! the simulation seeds of each workload and the service's key seeds and
//! request order. The program under test only receives the generated
//! specs and submissions.

use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_workload::{ScenarioSpec, SweepSpec};

/// The paper's bottleneck-router hotspot (serial engine).
pub const ADVC: &str = "advc-interference";
/// The 9,702-node network on the group-sharded engine.
pub const H7: &str = "h7-sharded";
/// Many short runs of a small network through the sweep runner.
pub const SWEEP: &str = "sweep-grid";
/// The job service under a closed-loop mix of computes and cache hits.
pub const SERVICE: &str = "service-mixed";

/// Every workload with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        ADVC,
        "saturated ADVc bottleneck-router hotspot, where switch allocation dominates; \
         serial engine, never enters the sharded path",
    ),
    (
        H7,
        "one 9,702-node cell on 2 shards: the only run where per-phase parallel work, \
         cross-shard exchange and barriers do the work",
    ),
    (
        SWEEP,
        "108 short runs of a 72-node network: per-unit setup, scheduling across workers \
         and serialization weigh most here",
    ),
    (
        SERVICE,
        "the only run through admission, queueing, the result cache and durable spills, \
         with writes beside reads",
    ),
];

const INTERFERENCE_SPEC: &str = "scenarios/interference_advc_vs_uniform.json";
const H7_SPEC: &str = "scenarios/beyond_paper_h7.json";
/// The 36-cell sweep grid (the sweep-grid workload and the service's
/// key population).
pub const GRID_SPEC: &str = "scenarios/sweep_unfairness_grid.json";

/// Simulation seeds per cell of the scenario and sweep workloads.
const SEEDS_PER_CELL: usize = 3;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(splitmix64(seed ^ splitmix64(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `n` distinct simulation seeds in `1..=1_000_000` for one purpose
/// (`stream`) of the workload seed.
pub fn derived_seeds(workload_seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(workload_seed, stream);
    let mut seeds = Vec::with_capacity(n);
    while seeds.len() < n {
        let s = 1 + rng.next_u64() % 1_000_000;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// Smoke runs cut every cell to this many warm-up + measured cycles.
const SMOKE_CYCLES: (u64, u64) = (150, 300);

/// Shorten a scenario's protocol for a smoke run.
pub fn shrink(spec: &mut ScenarioSpec) {
    spec.warmup_cycles = spec.warmup_cycles.min(SMOKE_CYCLES.0);
    spec.measure_cycles = spec.measure_cycles.min(SMOKE_CYCLES.1);
}

/// The job a simulation workload executes, with the engine pinned.
#[derive(Debug, Clone)]
pub enum SimJob {
    /// Every mechanism × seed of one scenario, by `run_scenario`.
    Scenario {
        /// The scenario, `shards` pinned.
        spec: ScenarioSpec,
        /// Simulation seeds.
        seeds: Vec<u64>,
    },
    /// Every cell × seed of a sweep, by `run_sweep`.
    Sweep {
        /// The sweep, `base.shards` pinned.
        spec: SweepSpec,
        /// Simulation seeds.
        seeds: Vec<u64>,
    },
}

/// One `(scenario, mechanism, seed)` simulation: a scenario cell or a
/// sweep unit, in the order the runner reports it.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The scenario to drive.
    pub spec: ScenarioSpec,
    /// Mechanism of this unit.
    pub mechanism: MechanismSpec,
    /// Simulation seed of this unit.
    pub seed: u64,
}

impl SimJob {
    /// Shard count the workload pins (`Simulator`'s engine must match).
    pub fn pinned_shards(&self) -> u32 {
        match self {
            SimJob::Scenario { spec, .. } => spec.shards,
            SimJob::Sweep { spec, .. } => spec.base.shards,
        }
        .expect("workload specs pin shards")
    }

    /// The units in result order: mechanism-major for a scenario
    /// (`run_scenario`), cell-major for a sweep (`run_sweep`).
    pub fn units(&self) -> Result<Vec<Unit>, String> {
        Ok(match self {
            SimJob::Scenario { spec, seeds } => spec
                .mechanisms
                .iter()
                .flat_map(|&mechanism| {
                    seeds.iter().map(move |&seed| Unit {
                        spec: spec.clone(),
                        mechanism,
                        seed,
                    })
                })
                .collect(),
            SimJob::Sweep { spec, seeds } => spec
                .expand()?
                .into_iter()
                .flat_map(|cell| {
                    seeds.iter().map(move |&seed| Unit {
                        spec: cell.scenario.clone(),
                        mechanism: cell.mechanism,
                        seed,
                    })
                })
                .collect(),
        })
    }

    /// The same job on a different engine (the shard-invariance check).
    pub fn with_shards(&self, shards: u32) -> Self {
        let mut job = self.clone();
        match &mut job {
            SimJob::Scenario { spec, .. } => spec.shards = Some(shards),
            SimJob::Sweep { spec, .. } => spec.base.shards = Some(shards),
        }
        job
    }
}

/// Load a simulation workload's spec from the checkout (relative to the
/// working directory), pin its engine and derive its seeds.
pub fn load_sim_job(workload: &str, seed: u64, smoke: bool) -> Result<SimJob, String> {
    Ok(match workload {
        ADVC | H7 => {
            let (path, shards, seeds) = if workload == ADVC {
                (INTERFERENCE_SPEC, 1, derived_seeds(seed, 1, SEEDS_PER_CELL))
            } else {
                (H7_SPEC, 2, derived_seeds(seed, 2, 1))
            };
            let mut spec = ScenarioSpec::load(path)?;
            spec.shards = Some(shards);
            if workload == H7 {
                // A single cell: one mechanism × one seed.
                spec.mechanisms.truncate(1);
            }
            if smoke {
                shrink(&mut spec);
            }
            SimJob::Scenario { spec, seeds }
        }
        SWEEP => {
            let mut spec = SweepSpec::load(GRID_SPEC)?;
            spec.base.shards = Some(1);
            if smoke {
                shrink(&mut spec.base);
            }
            SimJob::Sweep {
                spec,
                seeds: derived_seeds(seed, 3, SEEDS_PER_CELL),
            }
        }
        other => return Err(format!("`{other}` is not a simulation workload")),
    })
}

/// The service workload's key seeds.
pub fn service_key_seeds(seed: u64) -> Vec<u64> {
    derived_seeds(seed, 4, SEEDS_PER_CELL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_distinct_and_seed_dependent() {
        let a = derived_seeds(1, 3, 3);
        assert_eq!(a, derived_seeds(1, 3, 3));
        assert_eq!(a.len(), 3);
        assert!(a[0] != a[1] && a[1] != a[2] && a[0] != a[2]);
        assert_ne!(a, derived_seeds(2, 3, 3));
        assert_ne!(a, derived_seeds(1, 4, 3));
        assert!(a.iter().all(|&s| (1..=1_000_000).contains(&s)));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(9, 0).shuffle(&mut v);
        let mut w: Vec<u32> = (0..50).collect();
        Rng::new(9, 0).shuffle(&mut w);
        assert_eq!(v, w);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
