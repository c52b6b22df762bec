//! Layer probes for the traced run. Each drives one layer through its
//! public functions at a workload's recorded shape (8 nodes' conditions,
//! the messages of a tick, the queue depth, the checkpoint records, the
//! matrix order) and records spans around the calls. Cheap calls are timed in
//! batches, so the clock's own cost stays out of per-operation figures.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use cimone_cluster::checkpoint::{CheckpointPosition, CheckpointStore, JobCheckpoint};
use cimone_cluster::node::{ComputeNode, NodeConditions};
use cimone_cluster::thermal::{AirflowConfig, ThermalModel};
use cimone_kernels::abft::{factor_protected, AbftMode};
use cimone_kernels::checkpoint::SteppableLu;
use cimone_kernels::dgemm;
use cimone_kernels::lu::hpl_flops;
use cimone_kernels::matrix::Matrix;
use cimone_kernels::pool::WorkerPool;
use cimone_monitor::broker::Broker;
use cimone_monitor::collector::Collector;
use cimone_monitor::heartbeat::{HeartbeatMonitor, DEFAULT_PHI_THRESHOLD};
use cimone_monitor::payload::Payload;
use cimone_monitor::plugins::{NodeSnapshot, PluginRunner, PmuPlugin, StatsPlugin};
use cimone_monitor::scrub::ScrubPolicy;
use cimone_monitor::topic::{ExamonSchema, Topic};
use cimone_monitor::tsdb::TimeSeriesStore;
use cimone_sched::{BladeTopology, JobSpec, JobState, Partition, Scheduler};
use cimone_soc::power::PowerModel;
use cimone_soc::units::{Celsius, Power, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::heap;
use crate::native;
use crate::sim::END_OF_TIME;
use crate::trace::Tracer;

const NODES: usize = 8;

/// One tick's messages.
pub type Tick = Vec<(Topic, Payload)>;

/// The node, thermal, power and plugin slice of the engine's tick,
/// replayed once per recorded set of per-node conditions: per node, power
/// mean and sample, advance, snapshot and plugin sampling; then the
/// thermal step. Returns each tick's plugin messages.
pub fn physics(
    t: &mut Tracer,
    conditions: &[Vec<NodeConditions>],
    dt: SimDuration,
    seed: u64,
) -> Vec<Tick> {
    let schema = ExamonSchema::monte_cimone();
    let mut nodes: Vec<ComputeNode> = (0..NODES).map(ComputeNode::new).collect();
    let mut pmu: Vec<_> = nodes
        .iter()
        .map(|n| {
            PluginRunner::new(PmuPlugin::for_host(
                schema.clone(),
                n.hostname(),
                n.soc().cores().len(),
            ))
        })
        .collect();
    let mut stats: Vec<_> = nodes
        .iter()
        .map(|n| PluginRunner::new(StatsPlugin::for_host(schema.clone(), n.hostname())))
        .collect();
    let mut thermal =
        ThermalModel::monte_cimone(AirflowConfig::LidOffSpaced).with_leakage_feedback(0.0);
    let power = PowerModel::u740().with_thermal_leakage(0.012, Celsius::new(36.5));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snaps = vec![NodeSnapshot::default(); NODES];
    let mut powers = vec![Power::from_milliwatts(0.0); NODES];
    let mut batch = Vec::new();
    let mut ticks = Vec::with_capacity(conditions.len());
    let mut now = SimTime::ZERO;
    for recorded in conditions {
        for (node, &c) in nodes.iter_mut().zip(recorded) {
            node.set_conditions(c);
        }
        let s = Instant::now();
        for (i, node) in nodes.iter().enumerate() {
            let w = node.effective_power_workload();
            powers[i] = power
                .mean_all_dvfs(w, thermal.temperature(i), node.cpufreq().scale())
                .total();
        }
        t.record("soc.power.mean", s, NODES as u64);
        let s = Instant::now();
        for (i, node) in nodes.iter().enumerate() {
            let w = node.effective_power_workload();
            black_box(power.sample_all_dvfs(
                w,
                thermal.temperature(i),
                node.cpufreq().scale(),
                &mut rng,
            ));
        }
        t.record("soc.power.sample", s, NODES as u64);
        let s = Instant::now();
        black_box(thermal.step(&powers, dt));
        t.record("cluster.thermal.step", s, 1);
        let s = Instant::now();
        for node in &mut nodes {
            node.advance(dt);
        }
        t.record("cluster.node.advance", s, NODES as u64);
        let s = Instant::now();
        for (node, snap) in nodes.iter().zip(&mut snaps) {
            node.snapshot_into(now, snap);
        }
        t.record("cluster.node.snapshot", s, NODES as u64);
        let s = Instant::now();
        for i in 0..NODES {
            pmu[i].due_messages_into(now, &snaps[i], &mut batch);
            stats[i].due_messages_into(now, &snaps[i], &mut batch);
        }
        t.record("monitor.plugins.sample", s, NODES as u64);
        ticks.push(batch.clone());
        batch.clear();
        now += dt;
    }
    ticks
}

/// Up to `ticks` ticks of a finished store's traffic, evenly spaced over
/// its distinct timestamps: each holds every point stamped at that
/// instant, as the message that carried it.
pub fn recorded_traffic(store: &TimeSeriesStore, ticks: usize) -> Vec<Tick> {
    let series: Vec<(&str, Topic)> = store
        .series_names()
        .map(|name| (name, name.parse().expect("series are topics")))
        .collect();
    let mut stamps = BTreeSet::new();
    for &(name, _) in &series {
        stamps.extend(
            store
                .query(name, SimTime::ZERO, END_OF_TIME)
                .iter()
                .map(|p| p.0),
        );
    }
    let stride = (stamps.len() / ticks.max(1)).max(1);
    stamps
        .into_iter()
        .step_by(stride)
        .take(ticks)
        .map(|at| {
            let next = at + SimDuration::from_micros(1);
            series
                .iter()
                .flat_map(|&(name, topic)| {
                    store
                        .query(name, at, next)
                        .iter()
                        .map(move |&(ts, v)| (topic, Payload::new(v, ts)))
                })
                .collect()
        })
        .collect()
}

/// What the monitor replay carried.
pub struct Replay {
    /// Messages the broker published.
    pub msgs: u64,
    /// Points the collector stored.
    pub points: usize,
    /// Heap bytes the broker, collector and store hold, per stored point.
    pub bytes_per_point: f64,
}

/// The monitor slice of the engine's tick, replayed for each of `ticks`:
/// the tick's messages scrubbed, then published — per message on even
/// ticks and batched on odd ones, so both paths carry the same mix — and
/// pumped into a fresh store through a `#` collector with the Monte
/// Cimone scrub.
pub fn monitor(t: &mut Tracer, ticks: &[Tick]) -> Replay {
    let mut batch: Tick = Vec::with_capacity(ticks.iter().map(Vec::len).max().unwrap_or(0));
    let heap_before = heap::live_bytes();
    let broker = Broker::new();
    let filter = "#".parse().expect("valid filter");
    let mut collector = Collector::attach(&broker, filter).with_scrub(ScrubPolicy::monte_cimone());
    let scrub = ScrubPolicy::monte_cimone();
    let mut store = TimeSeriesStore::new();
    for (i, tick) in ticks.iter().enumerate() {
        let msgs = tick.len() as u64;
        let s = Instant::now();
        for (topic, payload) in tick {
            black_box(scrub.is_plausible(topic, payload));
        }
        t.record("monitor.scrub.check", s, msgs);
        if i % 2 == 0 {
            let s = Instant::now();
            for (topic, payload) in tick {
                broker.publish(topic, *payload);
            }
            t.record("monitor.broker.publish", s, msgs);
        } else {
            batch.extend_from_slice(tick);
            let s = Instant::now();
            broker.publish_batch_serial(&mut batch);
            t.record("monitor.broker.batch", s, msgs);
        }
        let s = Instant::now();
        let points = collector.pump(&mut store);
        t.record("monitor.collector.pump", s, points as u64);
    }
    let points = store.point_count();
    Replay {
        msgs: broker.stats().published,
        points,
        bytes_per_point: (heap::live_bytes() - heap_before) as f64 / points.max(1) as f64,
    }
}

/// Phi and next-crossing queries for 8 nodes heartbeating every
/// `interval`, evaluated on every tick of `ticks` after the last beat.
pub fn heartbeat(t: &mut Tracer, ticks: usize, dt: SimDuration, interval: SimDuration) {
    let broker = Broker::new();
    let mut monitor = HeartbeatMonitor::attach(
        &broker,
        "#".parse().expect("valid filter"),
        DEFAULT_PHI_THRESHOLD,
    );
    let hosts: Vec<String> = (0..NODES)
        .map(|i| ComputeNode::new(i).hostname().to_owned())
        .collect();
    let mut last = SimTime::ZERO;
    for beat in 0..64u64 {
        last = SimTime::ZERO + interval * beat;
        for host in &hosts {
            monitor.observe(host, last);
        }
    }
    let horizon = SimDuration::from_secs(300);
    let s = Instant::now();
    for tick in 0..ticks as u64 {
        let now = last + dt * tick;
        for host in &hosts {
            black_box(monitor.phi(host, now));
            black_box(monitor.next_suspicion_due(host, now, now + horizon, dt));
        }
    }
    t.record("monitor.heartbeat.phi", s, (ticks * NODES) as u64);
}

/// `rounds` fresh schedulers each drained of a queue of jobs with the
/// given node counts: every `schedule` call is a span, and every job it
/// starts completes a minute later. Returns the jobs started.
pub fn scheduler(t: &mut Tracer, queue: &[usize], rounds: usize) -> u64 {
    let mut started_total = 0u64;
    for _ in 0..rounds {
        let mut sched = Scheduler::new(Partition::monte_cimone());
        sched.set_topology(BladeTopology::monte_cimone());
        let mut now = SimTime::ZERO;
        for (i, &nodes) in queue.iter().enumerate() {
            let spec = JobSpec::new(
                format!("queued-{i}"),
                "bench",
                nodes,
                SimDuration::from_secs(3600),
            );
            sched
                .submit(spec, now)
                .expect("queued jobs fit the machine");
        }
        for _ in 0..=queue.len() {
            if sched.pending().is_empty() {
                break;
            }
            let s = Instant::now();
            let started = sched.schedule(now);
            t.record("sched.scheduler.schedule", s, 1);
            started_total += started.len() as u64;
            now += SimDuration::from_secs(60);
            for id in started {
                sched
                    .complete(id, now, JobState::Completed)
                    .expect("started jobs are running");
            }
        }
    }
    started_total
}

/// Encodes, verifies (decode with CRC64) and restores `records`
/// checkpoint records of 8 jobs, `passes` times.
pub fn checkpoints(t: &mut Tracer, records: usize, passes: usize) {
    let jobs = NODES as u64;
    let ckpts: Vec<JobCheckpoint> = (0..records)
        .map(|i| {
            JobCheckpoint::new(
                i as u64 % jobs,
                (i + 1) as f64 / (records + 1) as f64,
                CheckpointPosition::HplPanel(i),
                SimTime::from_secs(600 * i as u64),
            )
        })
        .collect();
    for _ in 0..passes {
        let s = Instant::now();
        let lines: Vec<String> = ckpts.iter().map(JobCheckpoint::encode).collect();
        t.record("cluster.checkpoint.encode", s, records as u64);
        let s = Instant::now();
        for line in &lines {
            black_box(JobCheckpoint::decode(line).expect("fresh records verify"));
        }
        t.record("cluster.checkpoint.verify", s, records as u64);
        let mut store = CheckpointStore::new();
        for &ckpt in &ckpts {
            store.save(ckpt).expect("the export is up");
        }
        let s = Instant::now();
        for job in 0..jobs.min(records as u64) {
            let (found, quarantined) = store.restore_verified(job, false);
            assert!(
                found.is_some() && quarantined.is_empty(),
                "clean chains restore"
            );
        }
        t.record("cluster.checkpoint.restore", s, jobs.min(records as u64));
    }
}

/// Kernel figures at order `n`, block `nb`.
pub struct KernelFigures {
    pub dgemm_gflops: f64,
    pub serial_gflops: f64,
    pub abft_overhead_frac: f64,
    pub abft_time_frac: f64,
}

/// The native kernels at order `n`: LU panel by panel on the pool, the
/// solve, one DGEMM at the first trailing-update shape, ABFT `Detect`
/// against `Off` on the pool, and the serial `Detect` baseline.
pub fn kernels(t: &mut Tracer, n: usize, nb: usize, seed: u64, pool: &WorkerPool) -> KernelFigures {
    let system = native::generate(n, seed);
    let mut lu = SteppableLu::new(system.a.clone(), nb).expect("square");
    loop {
        let s = Instant::now();
        let more = lu.step_with_pool(pool).expect("random systems factor");
        t.record("kernels.lu.panel", s, 1);
        if !more {
            break;
        }
    }
    let factors = lu
        .run_to_completion_with_pool(pool)
        .expect("already complete");
    let s = Instant::now();
    black_box(factors.solve(&system.b));
    t.record("kernels.lu.solve", s, 1);

    let (m, k) = (n - nb, nb);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, m, &mut rng);
    let mut c = Matrix::random(m, m, &mut rng);
    let s = Instant::now();
    dgemm::blocked_parallel(-1.0, &a, &b, 1.0, &mut c, nb, pool);
    t.record("kernels.dgemm", s, 1);
    black_box(&c);
    let dgemm_gflops = dgemm::flops(m, k, m) / t.total_ns("kernels.dgemm");

    // Alternate the two modes so drifting host load hits both alike.
    let (mut off_s, mut detect_s) = (0.0, 0.0);
    let mut overhead = 0.0;
    for _ in 0..2 {
        for mode in [AbftMode::Off, AbftMode::Detect] {
            let s = Instant::now();
            let (_, report) = factor_protected(system.a.clone(), nb, mode, Some(pool), None)
                .expect("random systems factor");
            let secs = s.elapsed().as_secs_f64();
            if mode == AbftMode::Off {
                off_s += secs;
            } else {
                detect_s += secs;
                overhead = report.overhead_vs(hpl_flops(n));
            }
        }
    }
    let serial = native::run(&system, nb, AbftMode::Detect, None);
    KernelFigures {
        dgemm_gflops,
        serial_gflops: hpl_flops(n) / serial.host_s / 1e9,
        abft_overhead_frac: overhead,
        abft_time_frac: detect_s / off_s - 1.0,
    }
}
