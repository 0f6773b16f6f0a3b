//! Thread hygiene of the sharded engine's worker pool. This file holds a
//! single test so that the process-wide OS thread count and helper
//! budget it asserts on are not disturbed by concurrently running tests.

use dragonfly_core::prelude::*;
use dragonfly_core::df_workload::{InjectionSpec, JobSpec, PlacementSpec};
use std::time::{Duration, Instant};

/// The process's OS thread count (`Threads:` in `/proc/self/status`);
/// `None` where procfs is unavailable.
fn os_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
}

/// Wait (up to 2 s) for the thread count to settle back to `baseline`:
/// a joined thread has finished running, but the kernel drops it from
/// the count a moment later.
fn settle_threads(baseline: Option<u64>) -> Option<u64> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = os_threads();
        if now == baseline || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "pool-lifecycle".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::InTransitMm],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 20,
        measure_cycles: 60,
        telemetry: None,
        shards: Some(2),
        jobs: vec![JobSpec {
            name: "all".into(),
            placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 9, slots: None },
            pattern: PatternSpec::Uniform,
            injection: InjectionSpec::Bernoulli,
            load: 0.3,
            start_cycle: None,
            stop_cycle: None,
        }],
    }
}

/// Building, stepping and dropping 50 two-shard networks — half of them
/// dropped mid-run by a cancellation, the way `RunCtl` aborts a service
/// attempt — leaves no thread behind and gives every helper back.
#[test]
fn dropped_sharded_networks_return_threads_and_helpers() {
    let spec = spec();
    let cfg = SimConfig {
        params: spec.params,
        arrangement: spec.arrangement,
        mechanism: spec.mechanisms[0],
        arbiter: spec.arbiter,
        pattern: PatternSpec::Uniform,
        load: 0.3,
        warmup_cycles: 0,
        measure_cycles: 40,
        seed: 3,
        telemetry: None,
        shards: Some(2),
    };
    let threads = os_threads();
    assert_eq!(rayon::helpers_in_use(), 0);
    // Alone in this process, a stepping network gets the one helper its
    // two shards can use, if the machine has a core to spare.
    let expect_helpers = rayon::helper_budget().min(1);
    for i in 0..50u64 {
        if i % 2 == 0 {
            let mut sim = Simulator::new(&cfg.with_seed(i));
            assert_eq!(sim.network().helpers(), 0, "an unstepped network holds no helpers");
            for _ in 0..40 {
                sim.step();
            }
            assert_eq!(sim.network().shard_count(), 2);
            assert_eq!(sim.network().helpers(), expect_helpers);
            assert_eq!(rayon::helpers_in_use(), expect_helpers);
        } else {
            let token = CancelToken::new();
            let cancel_at = 10 + i;
            let hook = |cycle: u64| {
                if cycle == cancel_at {
                    assert_eq!(rayon::helpers_in_use(), expect_helpers);
                    token.cancel();
                }
            };
            let ctl = RunCtl { cancel: Some(&token), on_cycle: Some(&hook), ..RunCtl::NONE };
            let err = run_scenario_once_ctl(&spec, spec.mechanisms[0], i, &ctl)
                .expect_err("the run must be cancelled");
            assert_eq!(err, ScenarioError::Cancelled { at_cycle: cancel_at });
        }
        assert_eq!(rayon::helpers_in_use(), 0, "network {i} kept a helper");
        assert_eq!(settle_threads(threads), threads, "network {i} left a thread behind");
    }
}
