//! The engine pass of the traced run: drive scenario cells through the
//! public `Simulator` API, cycle by cycle with `Simulator::step_profiled`,
//! timing each layer's calls from outside.
//!
//! The loop reproduces the scenario runner's generation order exactly
//! (placements, per-job traffic and injection streams, offers, then one
//! network step per driver cycle), so each unit's `RunResult` must be
//! byte-identical to the one `run_scenario` returns for the same cell;
//! the traced run checks that. In driven mode the simulator's own load
//! is 0, so `step_profiled` draws no extra random numbers.

use crate::inputs::Unit;
use dragonfly_core::df_engine::PhaseProfile;
use dragonfly_core::df_topology::NodeId;
use dragonfly_core::df_traffic::{derive_seed, PatternSpec, Traffic};
use dragonfly_core::df_workload::{Arrival, InjectionSpec, JobTraffic, JobTrafficAdapter};
use dragonfly_core::{JobSchedule, RunResult, SimConfig, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What driving one unit measured.
#[derive(Debug, Clone)]
pub struct UnitTrace {
    /// The unit's result, serialized compactly.
    pub run_json: String,
    /// The unit's result.
    pub run: RunResult,
    /// Call → first cycle: spec validation, `Simulator::new`,
    /// placements and generator set-up.
    pub start: Instant,
    /// First driver cycle begins.
    pub first_cycle: Instant,
    /// Last driver cycle ends.
    pub last_cycle_end: Instant,
    /// `Simulator::finish` returned (result extracted).
    pub finished: Instant,
    /// Result serialized.
    pub end: Instant,
    /// Engine phase times over every cycle.
    pub profile: PhaseProfile,
    /// Generation (injection processes + traffic patterns), ns.
    pub gen_ns: u64,
    /// Whole driver cycles (generation + engine step), ns each.
    pub cycle_ns: Vec<u32>,
    /// Packets the jobs generated over all cycles.
    pub offered_packets: u64,
    /// Measurement-window engine counters.
    pub delivered_packets: u64,
    /// Phits delivered in the window.
    pub delivered_phits: u64,
    /// Escape-path grants in the window.
    pub escape_grants: u64,
    /// Phits sent on global links in the window.
    pub global_phits: u64,
    /// Ready input-VC heads summed over every cycle (allocator probes).
    pub probe_ready: u64,
    /// Sum of output-port congestion epochs at the end.
    pub port_epochs: u64,
    /// Packets still in flight at the end.
    pub in_flight_end: u64,
    /// Shards of the engine `Simulator::new` built.
    pub shards: u32,
    /// Nodes of the network.
    pub nodes: u64,
}

/// Per-job generator state.
struct JobDriver {
    process: Box<dyn dragonfly_core::df_workload::InjectionProcess>,
    traffic: Option<JobTrafficAdapter>,
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// The driven-mode configuration the scenario runner builds for a unit:
/// the scenario's machine and protocol, the unit's mechanism and seed,
/// and no built-in generation.
pub fn sim_config(unit: &Unit) -> SimConfig {
    let spec = &unit.spec;
    SimConfig {
        params: spec.params,
        arrangement: spec.arrangement,
        mechanism: unit.mechanism,
        arbiter: spec.arbiter,
        pattern: PatternSpec::Uniform,
        load: 0.0,
        warmup_cycles: spec.warmup_cycles,
        measure_cycles: spec.measure_cycles,
        seed: unit.seed,
        telemetry: spec.telemetry,
        shards: spec.shards,
    }
}

/// Drive one unit to completion.
pub fn drive_unit(unit: &Unit) -> Result<UnitTrace, String> {
    let Unit { spec, seed, .. } = unit;
    let seed = *seed;
    let start = Instant::now();
    spec.validate(seed)?;
    let cfg = sim_config(unit);
    cfg.validate()?;
    let packet_size = cfg.engine_config().packet_size;
    let mut sim = Simulator::new(&cfg);

    let placements = spec.resolve_placements(seed)?;
    let mut drivers = Vec::with_capacity(spec.jobs.len());
    let mut schedule = Vec::with_capacity(spec.jobs.len());
    for (j, (job, placement)) in spec.jobs.iter().zip(placements).enumerate() {
        let traffic = match job.injection {
            InjectionSpec::Trace { .. } => None,
            _ => Some(JobTrafficAdapter::new(
                JobTraffic::new(
                    &job.pattern,
                    &placement,
                    &spec.params,
                    derive_seed(seed, 0x100 + j as u64),
                )
                .map_err(|e| format!("job `{}`: {e}", job.name))?,
                &spec.params,
            )),
        };
        let process = job
            .injection
            .build(
                placement.nodes.clone(),
                job.load,
                packet_size,
                derive_seed(seed, 0x200 + j as u64),
            )
            .map_err(|e| format!("job `{}`: {e}", job.name))?;
        drivers.push(JobDriver { process, traffic });
        schedule.push(JobSchedule {
            label: job.name.clone(),
            nodes: placement.nodes,
            start_cycle: job.start_cycle,
            stop_cycle: job.stop_cycle,
        });
    }
    sim.set_job_schedule(schedule);

    let total = spec.warmup_cycles + spec.measure_cycles;
    let n_nodes = spec.params.nodes();
    let mut profile = PhaseProfile::default();
    let mut cycle_ns = Vec::with_capacity(total as usize);
    let (mut gen_ns, mut offered_packets, mut probe_ready) = (0u64, 0u64, 0u64);
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut offers: Vec<(usize, NodeId, NodeId)> = Vec::new();
    let first_cycle = Instant::now();
    let (mut cycle_start, mut last_cycle_end) = (first_cycle, first_cycle);
    for t in 0..total {
        if t == spec.warmup_cycles {
            sim.begin_measurement();
        }
        // Generation first, offers after: the generators never see
        // offer outcomes, so the random streams advance in the runner's
        // order.
        offers.clear();
        for (j, driver) in drivers.iter_mut().enumerate() {
            if !spec.jobs[j].active(t) {
                continue;
            }
            arrivals.clear();
            driver.process.arrivals(t, &mut arrivals);
            for arr in &arrivals {
                let dst = match (arr.dst, driver.traffic.as_mut()) {
                    (Some(dst), _) => dst,
                    (None, Some(traffic)) => traffic.dest(arr.src),
                    (None, None) => return Err("rate process without a pattern".into()),
                };
                if arr.src.0 >= n_nodes || dst.0 >= n_nodes {
                    return Err(format!(
                        "job `{}` generated an out-of-range packet",
                        spec.jobs[j].name
                    ));
                }
                offers.push((j, arr.src, dst));
            }
        }
        let generated = Instant::now();
        gen_ns += ns(cycle_start, generated);
        offered_packets += offers.len() as u64;
        for &(j, src, dst) in &offers {
            sim.offer_for_job(j, src, dst);
        }
        sim.step_profiled(&mut profile);
        last_cycle_end = Instant::now();
        cycle_ns.push(ns(cycle_start, last_cycle_end).min(u32::MAX as u64) as u32);
        // The allocator-load gauge is read between cycles, untimed.
        probe_ready += sim.network().probe_ready_total();
        cycle_start = Instant::now();
    }
    let engine = sim.network();
    let counters = engine.counters();
    let (in_flight_end, port_epochs, shards) = (
        engine.in_flight(),
        engine.port_epoch_sum(),
        engine.shard_count(),
    );

    let mut run = sim.finish();
    run.pattern = format!("scenario:{}", spec.name);
    // The runner's node-weighted configured load, computed the same way.
    run.load = spec
        .jobs
        .iter()
        .map(|j| j.load)
        .zip(run.per_job.iter().map(|j| j.nodes as f64))
        .map(|(load, nodes)| load * nodes)
        .sum::<f64>()
        / n_nodes as f64;
    let finished = Instant::now();
    let run_json = serde_json::to_string(&run).map_err(|e| format!("serialize run: {e}"))?;
    let end = Instant::now();
    Ok(UnitTrace {
        run_json,
        run,
        start,
        first_cycle,
        last_cycle_end,
        finished,
        end,
        profile,
        gen_ns,
        cycle_ns,
        offered_packets,
        delivered_packets: counters.delivered_packets,
        delivered_phits: counters.delivered_phits,
        escape_grants: counters.escape_grants,
        global_phits: counters.global_phits,
        probe_ready,
        port_epochs,
        in_flight_end,
        shards,
        nodes: n_nodes as u64,
    })
}

/// Drive every unit on up to `workers` threads, claiming units in order
/// like the sweep runner does. Results come back in unit order.
pub fn drive_all(units: &[Unit], workers: usize) -> Vec<Result<UnitTrace, String>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<UnitTrace, String>>>> =
        Mutex::new((0..units.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, units.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(i) else { break };
                let out = drive_unit(unit);
                slots.lock().expect("slot lock")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err("unit never ran".into())))
        .collect()
}
