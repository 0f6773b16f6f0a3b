//! The service-mixed workload: an in-process `Service` (2 workers,
//! durable state directory starting empty, default cache capacity)
//! behind `df_service::serve` on a Unix socket, driven over the wire
//! protocol by 2 closed-loop client connections.
//!
//! The keys are the sweep grid's 36 cells submitted as scenario jobs ×
//! 3 seeds derived from the workload seed (108 keys, within the
//! 256-entry cache). Each client owns half the keys and sends a seeded
//! shuffle of [`REQUESTS_PER_KEY`] requests per key, so a key's first
//! request computes (and spills) and the rest are digest-checked cache
//! reads. Every pass starts a fresh service on a fresh state directory.

use crate::gate::Reference;
use crate::inputs::{service_key_seeds, shrink, Rng, Unit, GRID_SPEC};
use crate::md5::md5_hex;
use crate::metrics::{peak_rss_mb, Outcome, Values};
use crate::sim::{
    engine_pass, engine_spans, engine_values, enough_samples, finish_trace, median_of_repeats,
    network_setup_ms,
};
use crate::stats::{fastest, median, percentile, tail_permille};
use crate::trace::Trace;
use crate::Args;
use df_service::{serve, JobEvent, Request, Service, ServiceConfig, SubmitOptions};
use dragonfly_core::df_workload::SweepSpec;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per key: 1 compute + 10 cache hits, so 108 keys give 108
/// misses (p90 keeps 10 samples beyond it) and 1,080 hits (p99 does).
pub const REQUESTS_PER_KEY: usize = 11;
/// Requests per key in a smoke run.
const SMOKE_REQUESTS_PER_KEY: usize = 3;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// A reply slower than this fails the request instead of hanging the
/// benchmark.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// The generated submissions.
pub struct Plan {
    /// One request line per key.
    lines: Vec<String>,
    /// Each client's request order, as key indices.
    streams: Vec<Vec<usize>>,
    /// The simulation behind each key, for the engine pass.
    units: Vec<Unit>,
    requests_per_key: usize,
}

/// Build the key population and each client's shuffled request stream.
pub fn plan(seed: u64, smoke: bool) -> Result<Plan, String> {
    let spec = SweepSpec::load(GRID_SPEC)?;
    let cells = spec.expand()?;
    let seeds = service_key_seeds(seed);
    let (mut lines, mut units) = (Vec::new(), Vec::new());
    for cell in &cells {
        for &s in &seeds {
            let mut scenario = cell.scenario.clone();
            scenario.shards = Some(1);
            if smoke {
                shrink(&mut scenario);
            }
            let request = Request::SubmitScenario {
                spec: scenario.clone(),
                options: SubmitOptions {
                    seeds: Some(vec![s]),
                    ..SubmitOptions::default()
                },
            };
            lines.push(serde_json::to_string(&request).map_err(|e| format!("request: {e}"))?);
            units.push(Unit {
                spec: scenario,
                mechanism: cell.mechanism,
                seed: s,
            });
        }
    }
    let requests_per_key = if smoke {
        SMOKE_REQUESTS_PER_KEY
    } else {
        REQUESTS_PER_KEY
    };
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut order: Vec<usize> = (0..lines.len())
                .filter(|k| k % CLIENTS == c)
                .flat_map(|k| std::iter::repeat_n(k, requests_per_key))
                .collect();
            Rng::new(seed, 10 + c as u64).shuffle(&mut order);
            order
        })
        .collect();
    Ok(Plan {
        lines,
        streams,
        units,
        requests_per_key,
    })
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
enum Terminal {
    Completed,
    Cached,
    Other(String),
}

/// Client-side receipt times of one request's events.
#[derive(Debug, Clone)]
struct Record {
    key: usize,
    submit: Instant,
    accepted: Option<Instant>,
    started: Option<Instant>,
    end: Instant,
    terminal: Terminal,
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientLog {
    records: Vec<Record>,
    /// The `completed` document of each key this client owns.
    completed: BTreeMap<usize, String>,
    failures: Vec<String>,
}

/// Run one client's stream, one request in flight at a time.
fn client(
    stream: UnixStream,
    lines: &[String],
    order: &[usize],
    go: &Barrier,
) -> Result<ClientLog, String> {
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut log = ClientLog::default();
    let mut line = String::new();
    go.wait();
    for &key in order {
        let submit = Instant::now();
        writer
            .write_all(lines[key].as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("submit: {e}"))?;
        let (mut accepted, mut started) = (None, None);
        let (terminal, end) = loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            let at = Instant::now();
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let event: JobEvent =
                serde_json::from_str(&line).map_err(|e| format!("bad event: {e}"))?;
            match event {
                JobEvent::Accepted { .. } => accepted = Some(at),
                JobEvent::Started { .. } => started = started.or(Some(at)),
                JobEvent::Completed { result, .. } => {
                    if log.completed.insert(key, result).is_some() {
                        log.failures.push(format!("key {key} computed twice"));
                    }
                    break (Terminal::Completed, at);
                }
                JobEvent::Cached { result, .. } => {
                    match log.completed.get(&key) {
                        Some(doc) if *doc == result => {}
                        Some(_) => log
                            .failures
                            .push(format!("key {key}: cached bytes differ from completed")),
                        None => log
                            .failures
                            .push(format!("key {key}: cached before it completed")),
                    }
                    break (Terminal::Cached, at);
                }
                e if e.is_terminal() => break (Terminal::Other(e.label().to_string()), at),
                JobEvent::ProtocolError { error } => {
                    break (Terminal::Other(format!("protocol_error: {error}")), at)
                }
                _ => {}
            }
        };
        log.records.push(Record {
            key,
            submit,
            accepted,
            started,
            end,
            terminal,
        });
    }
    Ok(log)
}

/// One pass over the whole request stream on a fresh service.
#[derive(Debug)]
struct PassOut {
    setup_s: f64,
    open_ms: f64,
    start: Instant,
    end: Instant,
    /// When the first client finished its stream.
    first_client_done: Instant,
    records: Vec<Record>,
    /// The `completed` document per key.
    completed: BTreeMap<usize, String>,
    /// Each failure with the ops it fails.
    failures: Vec<(u64, String)>,
    spill_files: u64,
    state_bytes: u64,
}

impl PassOut {
    fn wall_s(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }

    fn latencies(&self, terminal: &Terminal) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.terminal == *terminal)
            .map(|r| ms(r.submit, r.end))
            .collect()
    }

    fn key_digests(&self) -> BTreeMap<usize, String> {
        self.completed
            .iter()
            .map(|(k, doc)| (*k, md5_hex(doc.as_bytes())))
            .collect()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn connect(
    socket: &Path,
    since: Instant,
    server: &JoinHandle<std::io::Result<()>>,
) -> Result<UnixStream, String> {
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) if server.is_finished() || since.elapsed() > REPLY_TIMEOUT => {
                return Err(format!("connect {}: {e}", socket.display()))
            }
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// A service serving on a fresh state directory.
struct Server {
    socket: PathBuf,
    state: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
    /// `Service::open` plus bind until the first connect succeeded.
    setup_s: f64,
    /// `Service::open` alone.
    open_ms: f64,
}

impl Server {
    /// Open a service on `dir` (emptied first) and serve it; returns the
    /// first connection, whose success ends the set-up time.
    fn start(dir: &Path) -> Result<(Self, UnixStream), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (state, socket) = (dir.join("state"), dir.join("s.sock"));
        let t0 = Instant::now();
        let service = Service::open(ServiceConfig {
            workers: WORKERS,
            state_dir: Some(state.clone()),
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("open service: {e}"))?;
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        let handle = {
            let (service, socket) = (Arc::new(service), socket.clone());
            std::thread::spawn(move || serve(service, &socket, None))
        };
        let first = connect(&socket, t0, &handle)?;
        let setup_s = t0.elapsed().as_secs_f64();
        Ok((
            Self {
                socket,
                state,
                handle,
                setup_s,
                open_ms,
            },
            first,
        ))
    }

    /// Drain and stop the server on a connection of its own, and wait
    /// for its thread.
    fn stop(self) -> Result<(), String> {
        let mut conn = connect(&self.socket, Instant::now(), &self.handle)?;
        let shutdown = serde_json::to_string(&Request::Shutdown).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        writeln!(conn, "{shutdown}").map_err(|e| format!("shutdown: {e}"))?;
        let mut line = String::new();
        BufReader::new(conn)
            .read_line(&mut line)
            .map_err(|e| format!("shutdown reply: {e}"))?;
        match serde_json::from_str::<JobEvent>(&line) {
            Ok(JobEvent::ShuttingDown { .. }) => {}
            _ => return Err(format!("unexpected shutdown reply {line:?}")),
        }
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One set-up alone: start a service, connect, stop it.
fn setup_probe(dir: &Path) -> Result<f64, String> {
    let (server, conn) = Server::start(dir)?;
    drop(conn);
    let setup_s = server.setup_s;
    server.stop()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup_s)
}

fn run_pass(plan: &Plan, dir: &Path) -> Result<PassOut, String> {
    let (server, first) = Server::start(dir)?;
    let mut conns = vec![first];
    for _ in 1..CLIENTS {
        conns.push(connect(&server.socket, Instant::now(), &server.handle)?);
    }
    let go = Barrier::new(CLIENTS);
    let logs: Vec<(usize, Result<ClientLog, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&plan.streams)
            .map(|(conn, order)| {
                let go = &go;
                scope.spawn(move || (order.len(), client(conn, &plan.lines, order, go)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (setup_s, open_ms, state) = (server.setup_s, server.open_ms, server.state.clone());
    let mut failures = Vec::new();
    if let Err(e) = server.stop() {
        failures.push((1, e));
    }
    let spill_files = std::fs::read_dir(state.join("cache"))
        .map(|d| {
            d.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
        .unwrap_or(0) as u64;
    let state_bytes = dir_bytes(&state);
    let _ = std::fs::remove_dir_all(dir);

    let mut records = Vec::new();
    let mut completed = BTreeMap::new();
    let mut client_done = Vec::new();
    for (sent, log) in logs {
        match log {
            Ok(log) => {
                failures.extend(log.failures.into_iter().map(|f| (1, f)));
                client_done.extend(log.records.last().map(|r| r.end));
                records.extend(log.records);
                completed.extend(log.completed);
            }
            Err(e) => failures.push((sent as u64, format!("client: {e}"))),
        }
    }
    let start = records
        .iter()
        .map(|r| r.submit)
        .min()
        .unwrap_or_else(Instant::now);
    let end = records.iter().map(|r| r.end).max().unwrap_or(start);
    let first_client_done = client_done.into_iter().min().unwrap_or(end);
    for r in &records {
        if let Terminal::Other(what) = &r.terminal {
            failures.push((1, format!("key {}: ended `{what}`", r.key)));
        }
    }
    let misses = records
        .iter()
        .filter(|r| r.terminal == Terminal::Completed)
        .count();
    let hits = records
        .iter()
        .filter(|r| r.terminal == Terminal::Cached)
        .count();
    let keys = plan.lines.len();
    if misses != keys || hits != keys * (plan.requests_per_key - 1) {
        failures.push((
            misses.abs_diff(keys) as u64,
            format!("{misses} computes and {hits} hits for {keys} keys"),
        ));
    }
    Ok(PassOut {
        setup_s,
        open_ms,
        start,
        end,
        first_client_done,
        records,
        completed,
        failures,
        spill_files,
        state_bytes,
    })
}

fn pass_dir(i: usize) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("svc-{}-{i}", std::process::id()))
}

/// Fold a pass's failures and per-key digests into the gate; the first
/// pass is checked against the reference, later ones against the first.
fn check_pass(
    out: &mut Outcome,
    args: &Args,
    reference: Option<&Reference>,
    first: Option<&BTreeMap<usize, String>>,
    pass: &PassOut,
) -> BTreeMap<usize, String> {
    for (ops, why) in &pass.failures {
        out.gate.fail(*ops, why.clone());
    }
    let digests = pass.key_digests();
    match first {
        None => {
            for (key, doc) in &pass.completed {
                let item = format!("key{key:03}");
                out.gate.check_reference(
                    reference,
                    args.seed,
                    crate::inputs::SERVICE,
                    &item,
                    doc.as_bytes(),
                    1,
                );
                out.digests.push((item, digests[key].clone()));
            }
        }
        Some(first) => {
            for (key, d) in &digests {
                out.gate.expect_eq(
                    1,
                    &format!("key {key} result across passes"),
                    first.get(key),
                    Some(d),
                );
            }
        }
    }
    digests
}

/// Per-pass service latencies (ms), for the report and the traced run.
fn latency_values(values: &mut Values, pass: &PassOut) {
    let misses = pass.latencies(&Terminal::Completed);
    let hits = pass.latencies(&Terminal::Cached);
    if !misses.is_empty() {
        values.set("service.miss_p50_ms", percentile(&misses, 500));
        values.set("service.miss_p90_ms", percentile(&misses, 900));
    }
    if !hits.is_empty() {
        values.set("service.hit_p50_ms", percentile(&hits, 500));
        values.set("service.hit_p99_ms", percentile(&hits, 990));
    }
}

fn report_pass(i: usize, pass: &PassOut) {
    let misses = pass.latencies(&Terminal::Completed);
    let hits = pass.latencies(&Terminal::Cached);
    let pct = |v: &[f64], p| if v.is_empty() { 0.0 } else { percentile(v, p) };
    eprintln!(
        "pass {i}: wall {:.4} s, setup {:.4} s, {} requests ({} misses, {} hits); \
         miss p50 {:.3} ms p90 {:.3} ms; hit p50 {:.3} ms p99 {:.3} ms",
        pass.wall_s(),
        pass.setup_s,
        pass.records.len(),
        misses.len(),
        hits.len(),
        pct(&misses, 500),
        pct(&misses, 900),
        pct(&hits, 500),
        pct(&hits, 990),
    );
    for (what, n, named) in [("miss", misses.len(), 900), ("hit", hits.len(), 990)] {
        if tail_permille(n).is_none_or(|p| p < named) {
            eprintln!(
                "note: {n} {what} samples keep fewer than 10 beyond p{}",
                named as f64 / 10.0
            );
        }
    }
}

/// The untraced run: passes over the request stream until `--seconds`
/// would be exceeded.
pub fn run(args: &Args, reference: Option<&Reference>) -> Outcome {
    let mut out = Outcome::default();
    let plan = match plan(args.seed, args.smoke) {
        Ok(p) => p,
        Err(e) => {
            out.gate.fail(1, format!("plan: {e}"));
            return out;
        }
    };
    let requests: usize = plan.streams.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let (mut setups, mut passes) = (Vec::new(), Vec::<PassOut>::new());
    let mut first_digests = None;
    loop {
        // Set-up alone, repeated before every pass so the samples span
        // the run: start a service, connect, stop it.
        let since = Instant::now();
        let mut n = 0;
        while !enough_samples(n, since) {
            match setup_probe(&pass_dir(passes.len())) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    out.gate.fail(1, format!("setup: {e}"));
                    return out;
                }
            }
            n += 1;
        }
        out.attempted += requests as u64;
        match run_pass(&plan, &pass_dir(passes.len())) {
            Ok(pass) => {
                if passes.is_empty() {
                    // After the first pass only, as for the simulation
                    // workloads: later passes add fragmentation alone.
                    out.values.set("peak_rss_mb", peak_rss_mb());
                }
                report_pass(passes.len() + 1, &pass);
                let d = check_pass(&mut out, args, reference, first_digests.as_ref(), &pass);
                first_digests.get_or_insert(d);
                passes.push(pass);
            }
            Err(e) => {
                out.gate.fail(requests as u64, e);
                break;
            }
        }
        let walls: Vec<f64> = passes.iter().map(PassOut::wall_s).collect();
        if args.record || t0.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    if passes.is_empty() {
        return out;
    }
    let wall_s = fastest(&passes.iter().map(PassOut::wall_s).collect::<Vec<_>>());
    out.values.set("wall_s", wall_s);
    setups.extend(passes.iter().map(|p| p.setup_s));
    eprintln!(
        "setup: {} samples, median {:.6} s",
        setups.len(),
        median(&setups)
    );
    out.values.set("setup_s", median(&setups));
    out.values.set("requests_per_s", requests as f64 / wall_s);
    let per_pass: Vec<Values> = passes
        .iter()
        .map(|p| {
            let mut v = Values::default();
            latency_values(&mut v, p);
            v
        })
        .collect();
    for name in [
        "service.miss_p50_ms",
        "service.miss_p90_ms",
        "service.hit_p50_ms",
        "service.hit_p99_ms",
    ] {
        let m = median(
            &per_pass
                .iter()
                .map(|v| v.get(name).unwrap_or(0.0))
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "{name:<22} {m:>10.4} ms (median of {} passes)",
            passes.len()
        );
    }
    out
}

/// The traced run: per-layer set-up timings, one untraced pass, one
/// pass recorded as spans, and the engine pass over the keys'
/// simulations.
pub fn run_traced(args: &Args, reference: Option<&Reference>) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new(Instant::now());
    let plan = match layer_setup(&mut out.values, args) {
        Ok(p) => p,
        Err(e) => {
            out.gate.fail(1, format!("setup: {e}"));
            return out;
        }
    };
    let requests: usize = plan.streams.iter().map(Vec::len).sum();
    let mut passes = Vec::new();
    for i in 0..2 {
        out.attempted += requests as u64;
        match run_pass(&plan, &pass_dir(i)) {
            Ok(p) => passes.push(p),
            Err(e) => {
                out.gate.fail(requests as u64, e);
                return out;
            }
        }
    }
    let first = check_pass(&mut out, args, reference, None, &passes[0]);
    check_pass(&mut out, args, reference, Some(&first), &passes[1]);
    let (untraced, traced) = (&passes[0], &passes[1]);
    out.values
        .set("trace.overhead_ratio", traced.wall_s() / untraced.wall_s());
    service_values(&mut out.values, traced);
    service_spans(&mut trace, traced);

    out.attempted += plan.units.len() as u64;
    let b_start = Instant::now();
    let traces = engine_pass(&mut out.gate, &plan.units, 1);
    let b_end = Instant::now();
    out.gate.expect_eq(
        plan.units.len() as u64,
        "engine pass units",
        plan.units.len(),
        traces.len(),
    );
    engine_values(&mut out.values, &traces);
    engine_spans(&mut trace, &traces, b_start, b_end);
    let cell_ms: Vec<f64> = traces.iter().map(|t| ms(t.start, t.end)).collect();
    let ser_ms: Vec<f64> = traces.iter().map(|t| ms(t.finished, t.end)).collect();
    if !cell_ms.is_empty() {
        out.values
            .set("core.cell_ms_p50", percentile(&cell_ms, 500));
        out.values.set(
            "core.cell_ms_max",
            cell_ms.iter().copied().fold(0.0, f64::max),
        );
        out.values.set("core.serialize_ms", median(&ser_ms));
    }
    finish_trace(&trace, crate::inputs::SERVICE, args.seed);
    out
}

/// Service-layer metrics of one pass.
fn service_values(values: &mut Values, pass: &PassOut) {
    let misses: Vec<&Record> = pass
        .records
        .iter()
        .filter(|r| r.terminal == Terminal::Completed)
        .collect();
    let gaps = |f: &dyn Fn(&Record) -> Option<f64>| {
        misses.iter().filter_map(|r| f(r)).collect::<Vec<f64>>()
    };
    let admit = gaps(&|r| r.accepted.map(|a| ms(r.submit, a)));
    let queue = gaps(&|r| Some(ms(r.accepted?, r.started?)));
    let run = gaps(&|r| r.started.map(|s| ms(s, r.end)));
    if !misses.is_empty() {
        values.set("service.admit_ms_p50", percentile(&admit, 500));
        values.set("service.queue_ms_p50", percentile(&queue, 500));
        values.set("service.queue_ms_p90", percentile(&queue, 900));
        values.set("service.run_ms_p50", percentile(&run, 500));
        values.set("service.run_ms_p90", percentile(&run, 900));
    }
    latency_values(values, pass);
    let count = |t: &Terminal| pass.records.iter().filter(|r| r.terminal == *t).count() as f64;
    let rejected = pass
        .records
        .iter()
        .filter(|r| matches!(&r.terminal, Terminal::Other(w) if w.starts_with("rejected")))
        .count() as f64;
    let hits = count(&Terminal::Cached);
    values.set("service.hits", hits);
    values.set("service.misses", count(&Terminal::Completed));
    values.set("service.rejected", rejected);
    values.set("service.hit_ratio", hits / pass.records.len().max(1) as f64);
    values.set("service.spill_files", pass.spill_files as f64);
    values.set("service.state_kb", pass.state_bytes as f64 / 1024.0);
    values.set("service.open_ms", pass.open_ms);
    let wall_ms = pass.wall_s() * 1e3;
    values.set(
        "core.busy_ratio",
        run.iter().sum::<f64>() / (wall_ms * WORKERS as f64),
    );
    values.set("core.tail_ms", ms(pass.first_client_done, pass.end));
}

/// Record a pass as spans: one per request, with admission, queueing
/// and run as children of a computed request.
fn service_spans(trace: &mut Trace, pass: &PassOut) {
    let root = trace.span("service.pass", None, 0, pass.start, pass.end);
    for (i, r) in pass.records.iter().enumerate() {
        let key = i as u64;
        let req = trace.span("service.request", Some(root), key, r.submit, r.end);
        if let (Some(a), Some(s)) = (r.accepted, r.started) {
            trace.span("service.admit", Some(req), key, r.submit, a);
            trace.span("service.queue", Some(req), key, a, s);
            trace.span("service.run", Some(req), key, s, r.end);
        }
    }
}

/// Per-layer set-up timings for the service's network (median of
/// repeats), returning the plan.
fn layer_setup(values: &mut Values, args: &Args) -> Result<Plan, String> {
    let plan = plan(args.seed, args.smoke)?;
    median_of_repeats(values, || {
        let t0 = Instant::now();
        let spec = SweepSpec::load(GRID_SPEC)?;
        let t1 = Instant::now();
        spec.expand()?;
        let t2 = Instant::now();
        let mut timings = vec![
            ("workload.spec_ms", ms(t0, t1)),
            ("workload.expand_ms", ms(t1, t2)),
        ];
        timings.extend(network_setup_ms(&plan.units[0]));
        Ok(timings)
    })?;
    Ok(plan)
}
