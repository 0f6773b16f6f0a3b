//! The simulation workloads (advc-interference, h7-sharded, sweep-grid),
//! run through the same entry points the `scenario` and `sweep` CLIs
//! use: `run_scenario` and `run_sweep`.

use crate::driver::{drive_all, sim_config, UnitTrace};
use crate::gate::{Gate, Reference};
use crate::inputs::{load_sim_job, SimJob, Unit, H7};
use crate::md5::md5_hex;
use crate::metrics::{peak_rss_mb, Outcome, Values};
use crate::stats::{fastest, median, percentile};
use crate::trace::Trace;
use crate::Args;
use dragonfly_core::df_topology::Topology;
use dragonfly_core::{run_scenario_ctl, run_sweep_hooked, RunCtl, Simulator, SweepHooks, SweepRow};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads for the engine pass: the runner's parallelism on a
/// 2-vCPU host, and never more.
const WORKERS: usize = 2;

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

fn ms(a: Instant, b: Instant) -> f64 {
    secs(a, b) * 1e3
}

/// One unit's network-level result: delivered packets plus the exact
/// bits of its throughput and mean latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitOut {
    delivered_packets: u64,
    throughput_bits: u64,
    latency_bits: u64,
}

impl UnitOut {
    fn new(delivered_packets: u64, throughput: f64, avg_latency: f64) -> Self {
        Self {
            delivered_packets,
            throughput_bits: throughput.to_bits(),
            latency_bits: avg_latency.to_bits(),
        }
    }

    fn of_trace(t: &UnitTrace) -> Self {
        Self::new(t.run.delivered_packets, t.run.throughput, t.run.avg_latency)
    }
}

/// One execution of a workload's job.
#[derive(Debug)]
pub struct ExecOut {
    start: Instant,
    /// The runner returned (serialization starts).
    call_end: Instant,
    end: Instant,
    /// The serialized outputs the CLIs would write, by item name.
    outputs: Vec<(&'static str, String)>,
    /// Per-unit results in unit order.
    units: Vec<UnitOut>,
    /// Per-unit raw runs, serialized (scenario jobs only).
    run_json: Vec<String>,
}

impl ExecOut {
    fn wall_s(&self) -> f64 {
        secs(self.start, self.end)
    }

    fn digests(&self) -> Vec<(&'static str, String)> {
        self.outputs
            .iter()
            .map(|(item, doc)| (*item, md5_hex(doc.as_bytes())))
            .collect()
    }

    fn delivered(&self) -> u64 {
        self.units.iter().map(|u| u.delivered_packets).sum()
    }
}

/// Execute the job once: the runner call plus serialization of its
/// output (scenario summary JSON; sweep CSV + JSON).
fn exec(job: &SimJob, ctl: &RunCtl<'_>, hooks: &SweepHooks<'_>) -> Result<ExecOut, String> {
    let start = Instant::now();
    let ser = |e: serde_json::Error| format!("serialize: {e}");
    match job {
        SimJob::Scenario { spec, seeds } => {
            let result = run_scenario_ctl(spec, seeds, ctl).map_err(|e| e.to_string())?;
            let call_end = Instant::now();
            let summary = serde_json::to_string_pretty(&result.summary()).map_err(ser)?;
            let end = Instant::now();
            let runs: Vec<_> = result.mechanisms.iter().flat_map(|m| &m.runs).collect();
            Ok(ExecOut {
                start,
                call_end,
                end,
                outputs: vec![("summary.json", summary)],
                units: runs
                    .iter()
                    .map(|r| UnitOut::new(r.delivered_packets, r.throughput, r.avg_latency))
                    .collect(),
                run_json: runs
                    .iter()
                    .map(|r| serde_json::to_string(r).map_err(ser))
                    .collect::<Result<_, _>>()?,
            })
        }
        SimJob::Sweep { spec, seeds } => {
            let table = run_sweep_hooked(spec, seeds, ctl, hooks).map_err(|e| e.to_string())?;
            let call_end = Instant::now();
            let csv = table.to_csv();
            let json = serde_json::to_string_pretty(&table).map_err(ser)?;
            let end = Instant::now();
            Ok(ExecOut {
                start,
                call_end,
                end,
                outputs: vec![("table.csv", csv), ("table.json", json)],
                units: table
                    .rows
                    .iter()
                    .filter(|r| r.scope == "network")
                    .map(|r| UnitOut::new(r.delivered_packets, r.throughput, r.avg_latency))
                    .collect(),
                run_json: Vec::new(),
            })
        }
    }
}

/// One set-up: spec load, validation of every unit, and one
/// `Simulator::new` of the workload's network. Returns the time, the
/// job and the shard count of the engine that was built.
fn setup_once(workload: &str, args: &Args) -> Result<(f64, SimJob, u32), String> {
    let t0 = Instant::now();
    let job = load_sim_job(workload, args.seed, args.smoke)?;
    let units = job.units()?;
    for u in &units {
        u.spec.validate(u.seed)?;
    }
    let sim = Simulator::new(&sim_config(&units[0]));
    let elapsed = t0.elapsed().as_secs_f64();
    let shards = sim.network().shard_count();
    drop(sim);
    Ok((elapsed, job, shards))
}

/// Whether a batch of repeated set-ups is done: at least 5 samples and
/// 200 ms, at most 100 samples.
pub fn enough_samples(n: usize, since: Instant) -> bool {
    n >= 100 || (n >= 5 && since.elapsed() >= Duration::from_millis(200))
}

/// One batch of set-ups, appended to `samples`; returns the job and the
/// shard count of the last engine built.
fn setup_batch(
    workload: &str,
    args: &Args,
    samples: &mut Vec<f64>,
) -> Result<(SimJob, u32), String> {
    let since = Instant::now();
    let mut n = 0;
    loop {
        let (t, job, shards) = setup_once(workload, args)?;
        samples.push(t);
        n += 1;
        if enough_samples(n, since) {
            return Ok((job, shards));
        }
    }
}

/// Check one execution against the first: same output bytes, same
/// per-unit results.
fn check_repeat(gate: &mut Gate, what: &str, first: &ExecOut, other: &ExecOut) {
    let ops = first.units.len() as u64;
    for ((item, a), (_, b)) in first.digests().iter().zip(other.digests()) {
        gate.expect_eq(ops, &format!("{what}: {item} md5"), a.as_str(), b.as_str());
    }
    gate.expect_eq(
        ops,
        &format!("{what}: per-unit results"),
        &first.units,
        &other.units,
    );
}

/// Digests of the first execution against the reference, plausibility
/// of every unit, and (h7-sharded) shard invariance against the serial
/// engine.
fn check_outputs(
    out: &mut Outcome,
    workload: &str,
    args: &Args,
    job: &SimJob,
    first: &ExecOut,
    reference: Option<&Reference>,
) {
    let ops = first.units.len() as u64;
    for (item, doc) in &first.outputs {
        let digest =
            out.gate
                .check_reference(reference, args.seed, workload, item, doc.as_bytes(), ops);
        out.digests.push((item.to_string(), digest));
    }
    let idle = first
        .units
        .iter()
        .filter(|u| u.delivered_packets == 0)
        .count() as u64;
    if idle > 0 {
        out.gate
            .fail(idle, format!("{idle} units delivered no packets"));
    }
    if workload == H7 {
        match exec(&job.with_shards(1), &RunCtl::NONE, &SweepHooks::NONE) {
            Ok(serial) => check_repeat(
                &mut out.gate,
                "shard invariance (serial engine)",
                first,
                &serial,
            ),
            Err(e) => out.gate.fail(ops, format!("serial engine run: {e}")),
        }
    }
}

/// The untraced run: set-up samples, then whole executions of the job
/// until `--seconds` would be exceeded, then the correctness checks.
pub fn run(workload: &'static str, args: &Args, reference: Option<&Reference>) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (mut setups, mut execs) = (Vec::new(), Vec::<ExecOut>::new());
    // The high-water mark after the first execution: later executions
    // only add allocator fragmentation, and their number depends on
    // speed.
    let mut peak = 0.0;
    let mut pinned: Option<(SimJob, u64)> = None;
    loop {
        // A set-up batch before every execution, so the set-up samples
        // span the run as the executions do.
        let (job, shards) = match setup_batch(workload, args, &mut setups) {
            Ok(x) => x,
            Err(e) => {
                out.gate.fail(1, format!("setup: {e}"));
                break;
            }
        };
        if pinned.is_none() {
            let ops = match job.units() {
                Ok(units) => units.len() as u64,
                Err(e) => {
                    out.gate.fail(1, e);
                    break;
                }
            };
            let what = "engine shard count (pinned vs built)";
            out.gate.expect_eq(ops, what, job.pinned_shards(), shards);
            pinned = Some((job, ops));
        }
        let (job, ops) = pinned.as_ref().expect("pinned above");
        out.attempted += ops;
        match exec(job, &RunCtl::NONE, &SweepHooks::NONE) {
            Ok(e) => {
                if execs.is_empty() {
                    peak = peak_rss_mb();
                }
                eprintln!(
                    "exec {}: wall {:.4} s, {} units, {} packets delivered",
                    execs.len() + 1,
                    e.wall_s(),
                    e.units.len(),
                    e.delivered()
                );
                execs.push(e);
            }
            Err(e) => {
                out.gate.fail(*ops, e);
                break;
            }
        }
        let walls: Vec<f64> = execs.iter().map(ExecOut::wall_s).collect();
        if args.record || t0.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    let Some((job, ops)) = pinned else { return out };
    eprintln!(
        "setup: {} samples, median {:.6} s",
        setups.len(),
        median(&setups)
    );
    let Some(first) = execs.first() else {
        return out;
    };
    for (i, e) in execs.iter().enumerate().skip(1) {
        check_repeat(
            &mut out.gate,
            &format!("exec {} vs exec 1", i + 1),
            first,
            e,
        );
    }
    check_outputs(&mut out, workload, args, &job, first, reference);
    let walls: Vec<f64> = execs.iter().map(ExecOut::wall_s).collect();
    let wall_s = fastest(&walls);
    out.values.set("wall_s", wall_s);
    out.values.set("setup_s", median(&setups));
    out.values.set("peak_rss_mb", peak);
    out.values.set("requests_per_s", ops as f64 / wall_s);
    out
}

/// A cell boundary seen by the core pass's hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MarkKind {
    /// `on_cycle(0)`: the cell's first cycle starts.
    First,
    /// `on_cycle(last)`: the cell's last cycle starts.
    Last,
    /// `on_rows`: a sweep unit finished (result rows built).
    Rows,
}

/// Thread-keyed boundary marks, in the order each thread made them.
#[derive(Debug, Default)]
struct Marks(Mutex<Vec<(u64, MarkKind, Instant)>>);

impl Marks {
    fn push(&self, kind: MarkKind) {
        let at = Instant::now();
        self.0
            .lock()
            .expect("marks lock")
            .push((thread_key(), kind, at));
    }
}

/// A small per-thread id for keying marks.
fn thread_key() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static KEY: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    KEY.with(|k| *k)
}

/// One cell as seen from the core pass: from the end of the thread's
/// previous cell (or the call) to its `on_rows` (sweep) or its last
/// cycle start (scenario, where no per-cell end is observable).
#[derive(Debug, Clone, Copy)]
struct CellSpan {
    thread: u64,
    start: Instant,
    first: Instant,
    last: Instant,
    end: Instant,
}

fn cell_spans(marks: &[(u64, MarkKind, Instant)], call_start: Instant) -> Vec<CellSpan> {
    let mut by_thread: BTreeMap<u64, Vec<(MarkKind, Instant)>> = BTreeMap::new();
    for &(thread, kind, at) in marks {
        by_thread.entry(thread).or_default().push((kind, at));
    }
    let mut cells = Vec::new();
    for (thread, marks) in by_thread {
        let mut prev_end = call_start;
        let mut open: Option<CellSpan> = None;
        for (kind, at) in marks {
            match kind {
                MarkKind::First => {
                    if let Some(c) = open.take() {
                        prev_end = c.end;
                        cells.push(c);
                    }
                    open = Some(CellSpan {
                        thread,
                        start: prev_end,
                        first: at,
                        last: at,
                        end: at,
                    });
                }
                MarkKind::Last => {
                    if let Some(c) = open.as_mut() {
                        c.last = at;
                        c.end = at;
                    }
                }
                MarkKind::Rows => {
                    if let Some(mut c) = open.take() {
                        c.end = at;
                        prev_end = at;
                        cells.push(c);
                    }
                }
            }
        }
        cells.extend(open);
    }
    cells.sort_by_key(|c| c.start);
    cells
}

/// Repeat `sample` until [`enough_samples`] and set each named timing to
/// its median.
pub fn median_of_repeats(
    values: &mut Values,
    mut sample: impl FnMut() -> Result<Vec<(&'static str, f64)>, String>,
) -> Result<(), String> {
    let since = Instant::now();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut n = 0;
    while !enough_samples(n, since) {
        for (name, v) in sample()? {
            samples.entry(name).or_default().push(v);
        }
        n += 1;
    }
    for (name, v) in samples {
        values.set(name, median(&v));
    }
    Ok(())
}

/// Time building one unit's network layer by layer: the topology, the
/// routing policy, and the whole `Simulator` (which builds both again).
pub fn network_setup_ms(unit: &Unit) -> Vec<(&'static str, f64)> {
    let cfg = sim_config(unit);
    let engine_cfg = cfg.engine_config();
    let t0 = Instant::now();
    let topo = Topology::new(cfg.params, cfg.arrangement);
    let t1 = Instant::now();
    let copy = topo.clone();
    let t2 = Instant::now();
    let policy = cfg.mechanism.build(copy, &engine_cfg, cfg.seed);
    let t3 = Instant::now();
    drop(policy);
    let t4 = Instant::now();
    let sim = Simulator::new(&cfg);
    let t5 = Instant::now();
    drop(sim);
    vec![
        ("topology.build_ms", ms(t0, t1)),
        ("routing.build_ms", ms(t2, t3)),
        ("engine.new_ms", ms(t4, t5)),
    ]
}

/// Per-layer set-up timings: spec load, expansion + validation, and the
/// network's layers.
fn layer_setup(values: &mut Values, workload: &str, args: &Args) -> Result<SimJob, String> {
    median_of_repeats(values, || {
        let t0 = Instant::now();
        let job = load_sim_job(workload, args.seed, args.smoke)?;
        let t1 = Instant::now();
        let units = job.units()?;
        for u in &units {
            u.spec.validate(u.seed)?;
        }
        let t2 = Instant::now();
        let mut timings = vec![
            ("workload.spec_ms", ms(t0, t1)),
            ("workload.expand_ms", ms(t1, t2)),
        ];
        timings.extend(network_setup_ms(&units[0]));
        Ok(timings)
    })?;
    load_sim_job(workload, args.seed, args.smoke)
}

/// Engine-pass metrics: phase time per cycle, cycle percentiles, exact
/// work counts, and per-unit set-up and finish times.
pub fn engine_values(values: &mut Values, traces: &[UnitTrace]) {
    let sum = |f: &dyn Fn(&UnitTrace) -> u64| traces.iter().map(f).sum::<u64>();
    let cycles = sum(&|t| t.profile.cycles);
    let per_cycle = |ns: u64| ns as f64 / cycles.max(1) as f64;
    values.set(
        "engine.allocate_ns",
        per_cycle(sum(&|t| t.profile.allocate_ns)),
    );
    values.set(
        "engine.deliver_ns",
        per_cycle(sum(&|t| t.profile.deliver_ns)),
    );
    values.set("engine.inject_ns", per_cycle(sum(&|t| t.profile.inject_ns)));
    values.set(
        "engine.transmit_ns",
        per_cycle(sum(&|t| t.profile.transmit_ns)),
    );
    values.set("engine.policy_ns", per_cycle(sum(&|t| t.profile.policy_ns)));
    values.set("workload.gen_ns", per_cycle(sum(&|t| t.gen_ns)));
    let node_cycles = sum(&|t| t.nodes * t.profile.cycles);
    values.set(
        "engine.ns_per_node_cycle",
        sum(&|t| t.profile.total_ns()) as f64 / node_cycles.max(1) as f64,
    );
    let cycle_ns: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.cycle_ns.iter().map(|&c| f64::from(c)))
        .collect();
    if !cycle_ns.is_empty() {
        values.set("engine.cycle_ns_p50", percentile(&cycle_ns, 500));
        values.set("engine.cycle_ns_p99", percentile(&cycle_ns, 990));
    }
    let setup: Vec<f64> = traces.iter().map(|t| ms(t.start, t.first_cycle)).collect();
    let finish: Vec<f64> = traces
        .iter()
        .map(|t| ms(t.last_cycle_end, t.finished))
        .collect();
    values.set("core.cell_setup_ms", median(&setup));
    values.set("core.finish_ms", median(&finish));
    values.set("engine.cycles", cycles as f64);
    values.set(
        "engine.delivered_packets",
        sum(&|t| t.delivered_packets) as f64,
    );
    values.set("engine.delivered_phits", sum(&|t| t.delivered_phits) as f64);
    values.set("engine.escape_grants", sum(&|t| t.escape_grants) as f64);
    values.set("engine.global_phits", sum(&|t| t.global_phits) as f64);
    values.set("engine.probe_ready", sum(&|t| t.probe_ready) as f64);
    values.set("engine.port_epochs", sum(&|t| t.port_epochs) as f64);
    values.set("engine.in_flight_end", sum(&|t| t.in_flight_end) as f64);
    values.set(
        "workload.offered_packets",
        sum(&|t| t.offered_packets) as f64,
    );
    values.set("core.units", traces.len() as f64);
    if let Some(t) = traces.first() {
        values.set("engine.shards", f64::from(t.shards));
    }
}

/// Record the engine pass as spans: one per unit, with its set-up,
/// cycles, finish and serialization as children.
pub fn engine_spans(trace: &mut Trace, traces: &[UnitTrace], start: Instant, end: Instant) {
    let root = trace.span("trace.engine_pass", None, 0, start, end);
    for (i, t) in traces.iter().enumerate() {
        let key = i as u64;
        let unit = trace.span("core.unit", Some(root), key, t.start, t.end);
        trace.span("core.cell_setup", Some(unit), key, t.start, t.first_cycle);
        trace.span(
            "engine.cycles",
            Some(unit),
            key,
            t.first_cycle,
            t.last_cycle_end,
        );
        trace.span("core.finish", Some(unit), key, t.last_cycle_end, t.finished);
        trace.span("core.serialize", Some(unit), key, t.finished, t.end);
    }
}

/// Drive every unit through the engine pass, failing ops that error or
/// run on an engine other than the pinned one.
pub fn engine_pass(gate: &mut Gate, units: &[Unit], pinned: u32) -> Vec<UnitTrace> {
    let mut traces = Vec::with_capacity(units.len());
    for (i, res) in drive_all(units, WORKERS).into_iter().enumerate() {
        match res {
            Ok(t) => {
                gate.expect_eq(
                    1,
                    &format!("unit {i} engine shards (pinned vs built)"),
                    pinned,
                    t.shards,
                );
                traces.push(t);
            }
            Err(e) => gate.fail(1, format!("engine pass unit {i}: {e}")),
        }
    }
    traces
}

/// Print per-layer self time and write the spans out.
pub fn finish_trace(trace: &Trace, workload: &str, seed: u64) {
    for (layer, self_ms) in trace.layer_self_ms() {
        eprintln!("trace: {layer:<9} self {self_ms:>12.3} ms");
    }
    let path =
        std::path::PathBuf::from(crate::OUT_DIR).join(format!("trace-{workload}-seed{seed}.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// The traced run: per-layer set-up timings, one untraced execution,
/// one execution with the core hooks installed, and the engine pass;
/// outputs and exact counts of all three must agree.
pub fn run_traced(workload: &'static str, args: &Args, reference: Option<&Reference>) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new(Instant::now());
    let prepared = layer_setup(&mut out.values, workload, args)
        .and_then(|job| job.units().map(|units| (job, units)));
    let (job, units) = match prepared {
        Ok(x) => x,
        Err(e) => {
            out.gate.fail(1, format!("setup: {e}"));
            return out;
        }
    };
    let ops = units.len() as u64;

    out.attempted += ops;
    let untraced = match exec(&job, &RunCtl::NONE, &SweepHooks::NONE) {
        Ok(e) => e,
        Err(e) => {
            out.gate.fail(ops, e);
            return out;
        }
    };
    out.values
        .set("core.serialize_ms", ms(untraced.call_end, untraced.end));
    check_outputs(&mut out, workload, args, &job, &untraced, reference);

    // Core pass: the same execution with cell boundaries marked from the
    // runner's own hooks.
    let total_cycles = units[0].spec.warmup_cycles + units[0].spec.measure_cycles;
    let marks = Marks::default();
    let on_cycle = |t: u64| {
        if t == 0 {
            marks.push(MarkKind::First);
        }
        if t + 1 == total_cycles {
            marks.push(MarkKind::Last);
        }
    };
    let on_rows = |_cell: u32, _seed: u64, _rows: &[SweepRow]| marks.push(MarkKind::Rows);
    let ctl = RunCtl {
        on_cycle: Some(&on_cycle),
        ..RunCtl::NONE
    };
    let hooks = SweepHooks {
        on_rows: Some(&on_rows),
        ..SweepHooks::NONE
    };
    out.attempted += ops;
    let traced = match exec(&job, &ctl, &hooks) {
        Ok(e) => e,
        Err(e) => {
            out.gate.fail(ops, e);
            return out;
        }
    };
    check_repeat(&mut out.gate, "core pass vs untraced", &untraced, &traced);
    out.values
        .set("trace.overhead_ratio", traced.wall_s() / untraced.wall_s());
    let marks = marks.0.into_inner().expect("marks lock");
    let cells = cell_spans(&marks, traced.start);
    out.gate
        .expect_eq(ops, "cells seen by the core hooks", ops, cells.len() as u64);
    let run_span = trace.span("core.run", None, 0, traced.start, traced.end);
    trace.span(
        "core.serialize",
        Some(run_span),
        0,
        traced.call_end,
        traced.end,
    );
    for (i, c) in cells.iter().enumerate() {
        let cell = trace.span("core.cell", Some(run_span), i as u64, c.start, c.end);
        trace.span("engine.cycles", Some(cell), i as u64, c.first, c.last);
    }
    if !cells.is_empty() {
        // Scheduling: cell times, how busy the workers were, and the
        // tail after the first worker idled.
        let cell_ms: Vec<f64> = cells.iter().map(|c| ms(c.start, c.end)).collect();
        let mut last_end: BTreeMap<u64, Instant> = BTreeMap::new();
        for c in &cells {
            let e = last_end.entry(c.thread).or_insert(c.end);
            *e = (*e).max(c.end);
        }
        let first_idle = *last_end.values().min().expect("a thread ran cells");
        let workers = last_end.len() as f64;
        out.values
            .set("core.cell_ms_p50", percentile(&cell_ms, 500));
        out.values.set(
            "core.cell_ms_max",
            cell_ms.iter().copied().fold(0.0, f64::max),
        );
        out.values.set(
            "core.busy_ratio",
            cell_ms.iter().sum::<f64>() / (ms(traced.start, traced.call_end) * workers),
        );
        out.values
            .set("core.tail_ms", ms(first_idle, traced.call_end));
    }

    // Engine pass: the same units driven cycle by cycle from outside.
    out.attempted += ops;
    let b_start = Instant::now();
    let traces = engine_pass(&mut out.gate, &units, job.pinned_shards());
    let b_end = Instant::now();
    if traces.len() == units.len() {
        let b_units: Vec<UnitOut> = traces.iter().map(UnitOut::of_trace).collect();
        out.gate.expect_eq(
            ops,
            "engine pass vs runner: per-unit results",
            &untraced.units,
            &b_units,
        );
        if !untraced.run_json.is_empty() {
            for (i, (a, b)) in untraced.run_json.iter().zip(&traces).enumerate() {
                out.gate.expect_eq(
                    1,
                    &format!("engine pass vs runner: unit {i} result bytes"),
                    a,
                    &b.run_json,
                );
            }
        }
        let delivered: u64 = traces.iter().map(|t| t.delivered_packets).sum();
        out.gate.expect_eq(
            ops,
            "delivered packets (engine pass vs runner)",
            untraced.delivered(),
            delivered,
        );
    }
    engine_values(&mut out.values, &traces);
    engine_spans(&mut trace, &traces, b_start, b_end);
    finish_trace(&trace, workload, args.seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_spans_follow_each_thread() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        // Thread 0 runs two sweep units back to back; thread 1 one.
        let marks = vec![
            (0, MarkKind::First, at(10)),
            (1, MarkKind::First, at(12)),
            (0, MarkKind::Last, at(50)),
            (0, MarkKind::Rows, at(55)),
            (0, MarkKind::First, at(60)),
            (1, MarkKind::Last, at(70)),
            (1, MarkKind::Rows, at(80)),
            (0, MarkKind::Last, at(90)),
            (0, MarkKind::Rows, at(95)),
        ];
        let cells = cell_spans(&marks, t0);
        assert_eq!(cells.len(), 3);
        assert_eq!(
            (cells[0].start, cells[0].first, cells[0].end),
            (t0, at(10), at(55))
        );
        assert_eq!((cells[1].thread, cells[1].end), (1, at(80)));
        assert_eq!(
            (cells[2].start, cells[2].first, cells[2].end),
            (at(55), at(60), at(95))
        );
        // Without `on_rows` (scenario runs) a cell ends at its last cycle.
        let marks = vec![
            (0, MarkKind::First, at(10)),
            (0, MarkKind::Last, at(50)),
            (0, MarkKind::First, at(60)),
            (0, MarkKind::Last, at(90)),
        ];
        let cells = cell_spans(&marks, t0);
        assert_eq!(cells.len(), 2);
        assert_eq!((cells[1].start, cells[1].end), (at(50), at(90)));
    }
}
