//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `monitored_hpl`, `monitored_campaign`,
//! `unmonitored_campaign` (the simulator) and `native_hpl` (the real
//! kernels). With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics, from spans recorded
//! around the benchmark's own calls into each layer plus exact counts
//! read back from the layers. `--workload all` runs every workload in a
//! process of its own and prints one table. The last line of standard
//! output is always the JSON result; `METRICS.md` describes every metric.

mod gen;
mod heap;
mod native;
mod probes;
mod sim;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use cimone_cluster::engine::{EngineEvent, SimEngine};
use cimone_cluster::healing::RecoveryConfig;
use cimone_kernels::abft::AbftMode;
use cimone_kernels::lu::hpl_flops;
use cimone_kernels::pool::WorkerPool;
use cimone_soc::units::SimDuration;

use sim::Kind;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The seed of the reference rep every run starts with; its digest must
/// match `reference.txt`.
const REFERENCE_SEED: u64 = 2022;
/// Throwaway set-ups timed before each rep; the median over the run is
/// reported, so the samples spread over the whole run like the reps do.
const SETUPS_PER_REP: usize = 3;
/// Fewest timed reps per run, however long they take.
const MIN_REPS: usize = 3;
/// Ticks replayed by the pipeline and heartbeat probes.
const PIPELINE_TICKS: usize = 2000;
/// Heap growth allowed between the start of the second and of the last
/// untraced rep. A rep that frees what it allocates leaves none.
const HEAP_GROWTH_LIMIT: usize = 256 << 10;
/// Matrix order of the kernel probes on the engine workloads.
const PROBE_N: usize = 512;
/// Checkpoint records the probe replays for a workload that wrote none.
const REF_RECORDS: usize = 64;

const WORKLOADS: [&str; 4] = [
    "monitored_hpl",
    "monitored_campaign",
    "unmonitored_campaign",
    "native_hpl",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output checks of one run: each is attempted once and passes or fails.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// A run's metrics, in report order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What the manifest reports about a run's reps.
struct Run {
    reps: usize,
    /// Median calibration pass time of the reported reps, seconds.
    calibration_s: f64,
    /// Heap growth over the untraced reps, bytes.
    heap_growth: usize,
}

impl Run {
    fn new(reps: usize, reported: &Samples, untraced: &Samples) -> Self {
        Run {
            reps,
            calibration_s: median(&reported.calibration_s),
            heap_growth: untraced.heap_growth(),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut checks = Checks::default();
    let start = Instant::now();
    let (metrics, run) = match args.workload.as_str() {
        "native_hpl" => run_native(&args, workers, &mut checks),
        name => {
            let kind = match name {
                "monitored_hpl" => Kind::MonitoredHpl,
                "monitored_campaign" => Kind::MonitoredCampaign,
                _ => Kind::UnmonitoredCampaign,
            };
            run_engine(kind, &args, workers, &mut checks)
        }
    };
    checks.check(run.heap_growth <= HEAP_GROWTH_LIMIT, || {
        format!(
            "the heap grew by {} bytes over the untraced reps",
            run.heap_growth
        )
    });
    for &(name, value, _) in &metrics {
        checks.check(value.is_finite(), || format!("{name} is {value}"));
    }
    eprintln!(
        "perfbench: {} done in {:.1} s",
        args.workload,
        start.elapsed().as_secs_f64()
    );
    println!("{}", manifest(&args, workers, &run));
    for &(name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            // A non-finite value has failed a check; JSON spells it null.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// The run manifest: git revision, host, threads, seed, reps, mode, the
/// host's calibration time, and the process's memory at the end of the
/// run.
fn manifest(args: &Args, workers: usize, run: &Run) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"manifest\": {{\"git_revision\": \"{}\", \"cpu_model\": \"{cpu}\", \"nproc\": {workers}, \"workers\": {}, \"workload\": \"{}\", \"seed\": {}, \"reps\": {}, \"seconds\": {}, \"mode\": \"{}\", \"calibration_s\": {}, \"peak_rss_end_mb\": {}, \"heap_growth_bytes\": {}}}}}",
        git_revision(),
        if args.workload == "native_hpl" { workers } else { 1 },
        args.workload,
        args.seed,
        run.reps,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        run.calibration_s,
        peak_rss_mb(),
        run.heap_growth,
    )
}

/// The commit checked out, read from `.git` without running git; a
/// checkout that is not a git repository reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Reads a `/proc/self/status` field, in kB.
fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Times `count` throwaway calls of `setup`, appending each, scaled by
/// `scale`, to `times`.
fn time_setups<T>(times: &mut Vec<f64>, count: usize, scale: f64, mut setup: impl FnMut() -> T) {
    for _ in 0..count {
        let start = Instant::now();
        std::hint::black_box(setup());
        times.push(start.elapsed().as_secs_f64() * scale);
    }
}

/// Per-rep samples of a run. Times are calibrated host seconds.
struct Samples {
    setup_s: Vec<f64>,
    host_s: Vec<f64>,
    sim_speed: Vec<f64>,
    gflops: Vec<f64>,
    calibration_s: Vec<f64>,
    /// Peak resident memory once the first rep has ended.
    peak_rss_mb: Option<f64>,
    /// Live heap bytes as each rep starts.
    heap_at_start: Vec<f64>,
}

impl Samples {
    /// Reserved up front, so the samples' own growth never interleaves
    /// with the workload's allocations and moves its peak memory.
    fn new() -> Self {
        let v = || Vec::with_capacity(4096);
        Samples {
            setup_s: v(),
            host_s: v(),
            sim_speed: v(),
            gflops: v(),
            calibration_s: v(),
            peak_rss_mb: None,
            heap_at_start: v(),
        }
    }

    /// Notes the live heap as a rep starts.
    fn start_rep(&mut self) {
        self.heap_at_start.push(heap::live_bytes() as f64);
    }

    /// Heap growth from the start of the second rep to the start of the
    /// last, bytes. The first rep may build state that lives on once: DGEMM
    /// keeps its packing buffers (about 2 MB) in a process-wide arena.
    fn heap_growth(&self) -> usize {
        match self.heap_at_start[..] {
            [_, second, .., last] => (last - second).max(0.0) as usize,
            _ => 0,
        }
    }

    /// Records one rep that simulated `sim_s` seconds and credited `flops`
    /// in `host_s` calibrated seconds.
    fn push(&mut self, host_s: f64, sim_s: f64, flops: f64) {
        // Read once, after the first rep: on the small-heap workloads later
        // reps ratchet the allocator's retained heap up in ~1.5 MB steps,
        // at rep counts that differ from run to run.
        self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
        self.host_s.push(host_s);
        self.sim_speed.push(sim_s / host_s);
        self.gflops.push(flops / host_s / 1e9);
    }

    /// The end-to-end metrics: medians over the run's reps.
    fn metrics(&self) -> Metrics {
        vec![
            ("sim_speed", median(&self.sim_speed), "sim_s/s"),
            ("gflops", median(&self.gflops), "GFLOP/s"),
            ("setup_s", median(&self.setup_s), "s"),
            (
                "peak_rss_mb",
                self.peak_rss_mb.unwrap_or_else(peak_rss_mb),
                "MB",
            ),
        ]
    }
}

/// Time of one calibration pass on the host the first baseline was
/// measured on, seconds.
const CALIBRATION_REF_S: f64 = 0.1;

/// A fixed workload in this crate's own std-only code — hashing, random
/// access and sorting over a 512 KiB buffer, then a floating-point loop —
/// run before every rep. Neighbours on a shared host slow both it and the
/// rep; reported times are host seconds scaled by `CALIBRATION_REF_S /
/// pass time`, which on a 2-vCPU shared host halved the run-to-run spread
/// of the end-to-end timings. The buffer is allocated once, so the passes
/// leave the allocator's state, and the workload's peak memory, alone.
struct Calibration {
    buf: Vec<u64>,
}

impl Calibration {
    fn new() -> Self {
        Calibration {
            buf: vec![0; 1 << 16],
        }
    }

    /// Runs one pass, appends its time to `times`, and returns the factor
    /// that turns host seconds into calibrated seconds.
    fn scale(&mut self, times: &mut Vec<f64>) -> f64 {
        let start = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for e in self.buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        let mut acc = 0u64;
        for round in 0..40u64 {
            let mut i = round as usize;
            for _ in 0..self.buf.len() {
                let w = self.buf[i];
                acc = acc.wrapping_add(w);
                self.buf[i] = w.rotate_left(7) ^ round;
                i = (w as usize ^ i.wrapping_mul(31)) & mask;
            }
            self.buf.sort_unstable();
        }
        let mut f = 0.0f64;
        for k in 0..2_000_000u64 {
            f += (k as f64).sqrt();
        }
        std::hint::black_box((acc, f));
        let secs = start.elapsed().as_secs_f64();
        times.push(secs);
        CALIBRATION_REF_S / secs
    }
}

/// Runs `rep` until `seconds` have passed (and at least `MIN_REPS`
/// times), returning how many reps ran.
fn for_seconds(seconds: f64, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep();
        reps += 1;
    }
    reps
}

/// The counts of an engine rep that must repeat exactly.
fn exact_counts(outcome: &sim::Outcome) -> [u64; 6] {
    let e = &outcome.engine;
    [
        e.ticks_stepped(),
        e.ticks_skipped(),
        e.store().point_count() as u64,
        e.checkpoints_written() as u64,
        quarantined(e),
        outcome.completed as u64,
    ]
}

/// Telemetry samples the engine's ingest scrub quarantined.
fn quarantined(engine: &SimEngine) -> u64 {
    engine
        .events()
        .iter()
        .filter(|e| matches!(e, EngineEvent::SdcSuspected { .. }))
        .count() as u64
}

/// Checks a rep against the first rep of its run and against the
/// machine draining every job it was given.
struct RepChecker {
    first: Option<(u64, [u64; 6])>,
}

impl RepChecker {
    fn check(&mut self, checks: &mut Checks, outcome: &sim::Outcome) {
        checks.check(
            outcome.drained && outcome.completed == outcome.submitted,
            || {
                format!(
                    "{} of {} jobs completed (drained: {})",
                    outcome.completed, outcome.submitted, outcome.drained
                )
            },
        );
        let now = (sim::digest(outcome), exact_counts(outcome));
        let first = *self.first.get_or_insert(now);
        checks.check(now == first, || {
            format!("rep diverged from the run's first rep: {now:x?} vs {first:x?}")
        });
    }
}

fn workload_name(kind: Kind) -> &'static str {
    match kind {
        Kind::MonitoredHpl => "monitored_hpl",
        Kind::MonitoredCampaign => "monitored_campaign",
        Kind::UnmonitoredCampaign => "unmonitored_campaign",
    }
}

/// Runs the reference rep and compares its digest, and the counts a
/// speed-only change must leave alone, with `reference.txt`.
fn reference_check(kind: Kind, checks: &mut Checks) {
    let outcome = sim::run(sim::prepare(kind, REFERENCE_SEED), None);
    let name = workload_name(kind);
    let e = &outcome.engine;
    let line = format!(
        "{name} {REFERENCE_SEED} {:016x} points={} written={} quarantined={} completed={}",
        sim::digest(&outcome),
        e.store().point_count(),
        e.checkpoints_written(),
        quarantined(e),
        outcome.completed,
    );
    let expected = include_str!("../reference.txt")
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name));
    checks.check(expected == Some(line.as_str()), || {
        format!("reference mismatch: computed `{line}`, reference `{expected:?}`")
    });
    checks.check(
        outcome.drained && outcome.completed == outcome.submitted,
        || "reference rep did not complete every job".into(),
    );
}

fn run_engine(kind: Kind, args: &Args, workers: usize, checks: &mut Checks) -> (Metrics, Run) {
    reference_check(kind, checks);
    let mut checker = RepChecker { first: None };
    let mut cal = Calibration::new();
    // Heap held by the last untraced rep's engine and outputs, bytes.
    let mut engine_bytes = 0;
    let mut rep = |samples: &mut Samples, checks: &mut Checks, tracer: Option<&mut Tracer>| {
        samples.start_rep();
        let scale = cal.scale(&mut samples.calibration_s);
        time_setups(&mut samples.setup_s, SETUPS_PER_REP, scale, || {
            sim::prepare(kind, args.seed)
        });
        let traced = tracer.is_some();
        let heap_before = heap::live_bytes();
        let outcome = sim::run(sim::prepare(kind, args.seed), tracer);
        if !traced {
            engine_bytes = heap::live_bytes() - heap_before;
        }
        checker.check(checks, &outcome);
        samples.push(
            outcome.host_s * scale,
            outcome.sim_s,
            outcome.credited_flops,
        );
        outcome
    };
    let mut untraced = Samples::new();
    if !args.trace {
        let reps = for_seconds(args.seconds, || {
            rep(&mut untraced, checks, None);
        });
        return (untraced.metrics(), Run::new(reps, &untraced, &untraced));
    }

    let mut reps = for_seconds(args.seconds / 2.0, || {
        rep(&mut untraced, checks, None);
    });
    let mut tracer = Tracer::new();
    let mut traced = Samples::new();
    let mut sim_h = 0.0;
    let mut last = None;
    reps += for_seconds(args.seconds / 2.0, || {
        last = None;
        let outcome = rep(&mut traced, checks, Some(&mut tracer));
        sim_h += outcome.sim_s / 3600.0;
        last = Some(outcome);
    });
    let last = last.expect("at least one traced rep");
    let (engine, points) = (&last.engine, last.engine.store().point_count());
    let written = engine.checkpoints_written();
    let mut layer = LayerRun {
        step_ns: Vec::new(),
        host_ms_per_sim_h: tracer.total_ns("cluster.engine.run_for") / 1e6 / sim_h,
        ticks: (engine.ticks_stepped(), engine.ticks_skipped()),
        points: points as f64,
        bytes_per_point: (points > 0).then(|| engine_bytes as f64 / points as f64),
        read_ms: median(&tracer.durations("monitor.tsdb.read")) / 1e6,
        quarantined: quarantined(engine) as f64,
        written: written as f64,
        queue: last.deepest_queue.clone(),
        records: if written > 0 { written } else { REF_RECORDS },
        dt: sim::config(kind, args.seed).dt,
        kernel_n: PROBE_N,
        overhead_frac: median(&traced.host_s) / median(&untraced.host_s) - 1.0,
    };
    drop(last);
    let mut probe = Tracer::new();
    let recording = sim::record(kind, args.seed, PIPELINE_TICKS, &mut probe);
    layer.step_ns = probe.durations("cluster.engine.step");
    if kind != Kind::MonitoredHpl {
        // The campaigns read nothing in their timed section: time the Fig 5
        // read pass over the same store, as the recording rebuilt it.
        let s = Instant::now();
        std::hint::black_box(sim::read_pass(&recording.engine));
        layer.read_ms = s.elapsed().as_secs_f64() * 1e3;
    }
    let run = Run::new(reps, &traced, &untraced);
    let metrics = layer_metrics(layer, recording, args.seed, workers, &mut probe, checks);
    (metrics, run)
}

/// What the traced run measured on the workload itself, plus the shape
/// the layer probes replay.
struct LayerRun {
    step_ns: Vec<f64>,
    host_ms_per_sim_h: f64,
    ticks: (u64, u64),
    points: f64,
    /// Heap per TSDB point of the workload's own run, if it stored any.
    bytes_per_point: Option<f64>,
    read_ms: f64,
    quarantined: f64,
    written: f64,
    queue: Vec<usize>,
    records: usize,
    dt: SimDuration,
    kernel_n: usize,
    overhead_frac: f64,
}

fn layer_metrics(
    run: LayerRun,
    recording: sim::Recording,
    seed: u64,
    workers: usize,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Metrics {
    let traffic = probes::recorded_traffic(recording.engine.store(), PIPELINE_TICKS);
    drop(recording.engine);
    let generated = probes::physics(t, &recording.conditions, run.dt, seed);
    // Without monitoring nothing was recorded: the monitor slice replays
    // what the plugins publish for the workload's nodes (*ref*).
    let ticks = if traffic.is_empty() {
        &generated
    } else {
        &traffic
    };
    let replay = probes::monitor(t, ticks);
    checks.check(replay.points as u64 == replay.msgs, || {
        format!(
            "the monitor replay stored {} points of {} messages",
            replay.points, replay.msgs
        )
    });
    let beat = RecoveryConfig::detection_only().heartbeat_interval;
    probes::heartbeat(t, PIPELINE_TICKS, run.dt, beat);
    let rounds = (4000 / run.queue.len().max(1)).max(1);
    let jobs_started = probes::scheduler(t, &run.queue, rounds);
    probes::checkpoints(t, run.records, (20_000 / run.records).max(1));
    let pool = WorkerPool::new(workers);
    let k = probes::kernels(t, run.kernel_n, native::NB, seed, &pool);
    let us = |name| t.ns_per_op(name) / 1e3;
    vec![
        (
            "cluster.engine.step_us_p50",
            quantile(&run.step_ns, 0.5) / 1e3,
            "us",
        ),
        (
            "cluster.engine.step_us_p99",
            quantile(&run.step_ns, 0.99) / 1e3,
            "us",
        ),
        (
            "cluster.engine.host_ms_per_sim_h",
            run.host_ms_per_sim_h,
            "ms",
        ),
        ("cluster.engine.ticks_stepped", run.ticks.0 as f64, "count"),
        ("cluster.engine.ticks_skipped", run.ticks.1 as f64, "count"),
        (
            "monitor.broker.publish_ns_per_msg",
            t.ns_per_op("monitor.broker.publish"),
            "ns",
        ),
        (
            "monitor.broker.batch_ns_per_msg",
            t.ns_per_op("monitor.broker.batch"),
            "ns",
        ),
        ("monitor.broker.msgs", replay.msgs as f64, "count"),
        (
            "monitor.plugins.sample_ns_per_node",
            t.ns_per_op("monitor.plugins.sample"),
            "ns",
        ),
        (
            "monitor.collector.pump_ns_per_point",
            t.ns_per_op("monitor.collector.pump"),
            "ns",
        ),
        ("monitor.tsdb.points", run.points, "count"),
        (
            "monitor.tsdb.bytes_per_point",
            run.bytes_per_point.unwrap_or(replay.bytes_per_point),
            "B",
        ),
        ("monitor.tsdb.read_ms", run.read_ms, "ms"),
        (
            "monitor.scrub.check_ns",
            t.ns_per_op("monitor.scrub.check"),
            "ns",
        ),
        ("monitor.scrub.quarantined", run.quarantined, "count"),
        (
            "monitor.heartbeat.phi_ns",
            t.ns_per_op("monitor.heartbeat.phi"),
            "ns",
        ),
        (
            "cluster.node.advance_ns",
            t.ns_per_op("cluster.node.advance"),
            "ns",
        ),
        (
            "cluster.node.snapshot_ns",
            t.ns_per_op("cluster.node.snapshot"),
            "ns",
        ),
        (
            "cluster.thermal.step_ns",
            t.ns_per_op("cluster.thermal.step"),
            "ns",
        ),
        ("soc.power.mean_ns", t.ns_per_op("soc.power.mean"), "ns"),
        ("soc.power.sample_ns", t.ns_per_op("soc.power.sample"), "ns"),
        (
            "sched.scheduler.schedule_us",
            us("sched.scheduler.schedule"),
            "us",
        ),
        ("sched.scheduler.jobs_started", jobs_started as f64, "count"),
        (
            "cluster.checkpoint.encode_us",
            us("cluster.checkpoint.encode"),
            "us",
        ),
        (
            "cluster.checkpoint.verify_us",
            us("cluster.checkpoint.verify"),
            "us",
        ),
        (
            "cluster.checkpoint.restore_us",
            us("cluster.checkpoint.restore"),
            "us",
        ),
        ("cluster.checkpoint.written", run.written, "count"),
        (
            "kernels.lu.panel_ms_p50",
            median(&t.durations("kernels.lu.panel")) / 1e6,
            "ms",
        ),
        (
            "kernels.lu.solve_ms",
            t.total_ns("kernels.lu.solve") / 1e6,
            "ms",
        ),
        ("kernels.lu.serial_gflops", k.serial_gflops, "GFLOP/s"),
        ("kernels.dgemm.gflops", k.dgemm_gflops, "GFLOP/s"),
        ("kernels.abft.overhead_frac", k.abft_overhead_frac, "ratio"),
        ("kernels.abft.time_frac", k.abft_time_frac, "ratio"),
        ("trace.overhead_frac", run.overhead_frac, "ratio"),
    ]
}

fn run_native(args: &Args, workers: usize, checks: &mut Checks) -> (Metrics, Run) {
    let (n, nb) = (native::N, native::NB);
    let system = native::generate(n, args.seed);
    let pool = WorkerPool::new(workers);
    let modelled_s = native::modelled_node_s(n, nb);
    let mut cal = Calibration::new();
    let mut first: Option<u64> = None;
    let mut rep = |samples: &mut Samples, checks: &mut Checks| {
        samples.start_rep();
        let scale = cal.scale(&mut samples.calibration_s);
        time_setups(&mut samples.setup_s, 1, scale, || {
            native::generate(n, args.seed)
        });
        let outcome = native::run(&system, nb, AbftMode::Detect, Some(&pool));
        checks.check(outcome.passed(), || {
            format!(
                "residual {} (limit 16), {} ABFT detections on a clean run",
                outcome.residual, outcome.report.mismatches
            )
        });
        let digest = *first.get_or_insert(outcome.digest);
        checks.check(outcome.digest == digest, || {
            "solution bits changed between reps".into()
        });
        samples.push(outcome.host_s * scale, modelled_s, hpl_flops(n));
    };
    let mut untraced = Samples::new();
    if !args.trace {
        let reps = for_seconds(args.seconds, || rep(&mut untraced, checks));
        return (untraced.metrics(), Run::new(reps, &untraced, &untraced));
    }

    let mut reps = for_seconds(args.seconds / 2.0, || rep(&mut untraced, checks));
    let mut tracer = Tracer::new();
    let mut traced = Samples::new();
    reps += for_seconds(args.seconds / 2.0, || {
        tracer.span("kernels.hpl.rep", 1, || rep(&mut traced, checks));
    });

    // The engine layers at the monitored HPL shape, which this workload
    // bypasses (*ref*).
    let mut probe = Tracer::new();
    let recording = sim::record(Kind::MonitoredHpl, args.seed, PIPELINE_TICKS, &mut probe);
    let engine = &recording.engine;
    let s = Instant::now();
    std::hint::black_box(sim::read_pass(engine));
    let read_ms = s.elapsed().as_secs_f64() * 1e3;
    let step_ns = probe.durations("cluster.engine.step");
    let layer = LayerRun {
        host_ms_per_sim_h: step_ns.iter().sum::<f64>()
            / 1e6
            / (engine.now().as_secs_f64() / 3600.0),
        step_ns,
        ticks: (engine.ticks_stepped(), engine.ticks_skipped()),
        points: engine.store().point_count() as f64,
        bytes_per_point: None,
        read_ms,
        quarantined: quarantined(engine) as f64,
        written: engine.checkpoints_written() as f64,
        queue: vec![8; sim::HPL_JOBS],
        records: REF_RECORDS,
        dt: sim::config(Kind::MonitoredHpl, args.seed).dt,
        kernel_n: n,
        overhead_frac: median(&traced.host_s) / median(&untraced.host_s) - 1.0,
    };
    let run = Run::new(reps, &traced, &untraced);
    let metrics = layer_metrics(layer, recording, args.seed, workers, &mut probe, checks);
    (metrics, run)
}

/// `--workload all`: every workload in a process of its own, then one
/// table of the metrics and of each run's failed-check fraction.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for name in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("perfbench: {name} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let lines: Vec<&str> = stdout.lines().collect();
        let result = lines.last().copied().unwrap_or("");
        let count = |key: &str| -> u64 {
            result
                .split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        let (a, f) = (count("attempted"), count("failed"));
        attempted += a;
        failed += f;
        all_correct &= result.contains("\"correct\": true");
        println!("== {name}");
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("  {line}");
        }
        println!(
            "  {:<40} {:>16.6} ratio ({f} of {a} checks)",
            "failed_frac",
            f as f64 / a.max(1) as f64
        );
    }
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}
