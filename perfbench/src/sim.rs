//! The three engine workloads: how each builds its machine and inputs
//! (the set-up), how it runs (the timed section), and the digest its
//! outputs are checked by.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::time::Instant;

use cimone_cluster::engine::{ClockMode, ClusterWorkload, EngineConfig, EngineEvent, SimEngine};
use cimone_cluster::experiments::monitored_hpl::rate_store;
use cimone_cluster::healing::{CheckpointConfig, RecoveryConfig};
use cimone_cluster::node::NodeConditions;
use cimone_cluster::perf::HplProblem;
use cimone_kernels::abft::AbftMode;
use cimone_kernels::lu::hpl_flops;
use cimone_monitor::dashboard::Heatmap;
use cimone_monitor::topic::{ExamonSchema, Topic};
use cimone_monitor::tsdb::{Aggregation, TimeSeriesStore};
use cimone_sched::JobId;
use cimone_soc::units::{SimDuration, SimTime};

use crate::gen::{self, Arrival};
use crate::trace::Tracer;

/// Back-to-back paper-configuration HPL jobs per `monitored_hpl` rep.
pub const HPL_JOBS: usize = 2;
/// Arrivals per `monitored_campaign` rep.
pub const MONITORED_ARRIVALS: usize = 8;
/// Arrivals per `unmonitored_campaign` rep.
pub const UNMONITORED_ARRIVALS: usize = 32;
/// Checkpoint cadence of the campaigns.
const CKPT_INTERVAL: SimDuration = SimDuration::from_secs(600);
/// Time columns of the Fig 5 heatmaps.
const HEATMAP_BINS: usize = 24;
/// Later than any point a store holds.
pub const END_OF_TIME: SimTime = SimTime::from_secs(u64::MAX / 2_000_000);
/// How long a campaign may take to drain after its last arrival.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(7 * 24 * 3600);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MonitoredHpl,
    MonitoredCampaign,
    UnmonitoredCampaign,
}

impl Kind {
    pub fn monitored(self) -> bool {
        self != Kind::UnmonitoredCampaign
    }
}

/// Everything a rep needs before its clock starts.
pub struct Prepared {
    pub kind: Kind,
    pub engine: SimEngine,
    pub arrivals: Vec<Arrival>,
}

/// The engine configuration of each workload, for `seed`.
pub fn config(kind: Kind, seed: u64) -> EngineConfig {
    match kind {
        Kind::MonitoredHpl => EngineConfig {
            seed,
            monitoring: true,
            clock: ClockMode::FixedDt,
            ..EngineConfig::default()
        },
        Kind::MonitoredCampaign | Kind::UnmonitoredCampaign => EngineConfig {
            seed,
            monitoring: kind.monitored(),
            clock: ClockMode::EventDriven,
            recovery: Some(RecoveryConfig {
                checkpoint: Some(CheckpointConfig::every(CKPT_INTERVAL).with_spill()),
                ..RecoveryConfig::detection_only()
            }),
            abft: AbftMode::Detect,
            ..EngineConfig::default()
        },
    }
}

/// The set-up: engine construction plus job and plan generation.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    let mut engine = SimEngine::new(config(kind, seed));
    let arrivals = match kind {
        Kind::MonitoredHpl => (0..HPL_JOBS)
            .map(|i| Arrival {
                at: SimTime::ZERO,
                request: cimone_cluster::engine::JobRequest {
                    name: format!("hpl-paper-{i}"),
                    user: "bench".into(),
                    nodes: 8,
                    workload: ClusterWorkload::Hpl(HplProblem::paper()),
                },
            })
            .collect(),
        Kind::MonitoredCampaign | Kind::UnmonitoredCampaign => {
            let arrivals = if kind.monitored() {
                MONITORED_ARRIVALS
            } else {
                UNMONITORED_ARRIVALS
            };
            let campaign = gen::campaign(seed, arrivals);
            engine.set_fault_plan(campaign.plan);
            campaign.arrivals
        }
    };
    Prepared {
        kind,
        engine,
        arrivals,
    }
}

/// What one rep produced.
pub struct Outcome {
    pub engine: SimEngine,
    /// Host seconds of the timed section.
    pub host_s: f64,
    /// Simulated seconds the timed section covered.
    pub sim_s: f64,
    /// HPL FLOPs credited by jobs that completed.
    pub credited_flops: f64,
    /// Node counts of the jobs queued at the deepest point seen right
    /// after a submission.
    pub deepest_queue: Vec<usize>,
    /// Whether the machine drained every submitted job.
    pub drained: bool,
    /// Jobs submitted and jobs completed.
    pub submitted: usize,
    pub completed: usize,
    /// The Fig 5 panels (the monitored HPL read pass), if read.
    pub heatmaps: Option<[Heatmap; 3]>,
}

/// Runs a prepared rep. With a tracer, every public call into the
/// engine and the store is wrapped in a span; without, nothing is
/// recorded.
pub fn run(prep: Prepared, mut tracer: Option<&mut Tracer>) -> Outcome {
    let Prepared {
        kind,
        mut engine,
        arrivals,
    } = prep;
    let mut flops_of: HashMap<JobId, f64> = HashMap::new();
    let mut deepest_queue = Vec::new();
    let start = Instant::now();
    let submitted = arrivals.len();
    for arrival in arrivals {
        let gap = arrival.at.saturating_since(engine.now());
        if !gap.is_zero() {
            match tracer.as_deref_mut() {
                Some(t) => t.span("cluster.engine.run_for", 1, || engine.run_for(gap)),
                None => engine.run_for(gap),
            }
        }
        let flops = match arrival.request.workload {
            ClusterWorkload::Hpl(p) => hpl_flops(p.n),
            _ => 0.0,
        };
        let id = engine
            .submit(arrival.request)
            .expect("generated jobs fit the machine");
        flops_of.insert(id, flops);
        let sched = engine.scheduler();
        if sched.pending().len() > deepest_queue.len() {
            deepest_queue = sched
                .pending()
                .iter()
                .map(|&id| sched.job(id).expect("pending jobs exist").spec().nodes)
                .collect();
        }
    }
    let drained = match tracer.as_deref_mut() {
        Some(t) => t.span("cluster.engine.run_for", 1, || {
            engine.run_until_idle(DRAIN_LIMIT)
        }),
        None => engine.run_until_idle(DRAIN_LIMIT),
    };
    let heatmaps = (kind == Kind::MonitoredHpl).then(|| match tracer {
        Some(t) => t.span("monitor.tsdb.read", 1, || read_pass(&engine)),
        None => read_pass(&engine),
    });
    let host_s = start.elapsed().as_secs_f64();

    let mut credited_flops = 0.0;
    let mut completed = 0;
    for event in engine.events() {
        if let EngineEvent::JobCompleted { id, .. } = event {
            credited_flops += flops_of.get(id).copied().unwrap_or(0.0);
            completed += 1;
        }
    }
    Outcome {
        sim_s: engine.now().as_secs_f64(),
        engine,
        host_s,
        credited_flops,
        deepest_queue,
        drained,
        submitted,
        completed,
        heatmaps,
    }
}

/// A fresh rep of a workload stepped call by call, each arrival submitted
/// on the first tick at or after its time, with every step timed as
/// `cluster.engine.step`.
pub struct Recording {
    pub engine: SimEngine,
    /// Per-node conditions of between `samples` and twice as many ticks,
    /// evenly spaced over the rep.
    pub conditions: Vec<Vec<NodeConditions>>,
}

pub fn record(kind: Kind, seed: u64, samples: usize, t: &mut Tracer) -> Recording {
    let Prepared {
        mut engine,
        arrivals,
        ..
    } = prepare(kind, seed);
    let mut conditions = Vec::new();
    let (mut tick, mut stride) = (0u64, 1u64);
    let mut step = |engine: &mut SimEngine| {
        if tick % stride == 0 {
            conditions.push(engine.nodes().iter().map(|n| *n.conditions()).collect());
            if conditions.len() == 2 * samples {
                // Keep every other sample and sample half as often, so the
                // samples stay evenly spaced however long the rep runs.
                let mut keep = false;
                conditions.retain(|_| {
                    keep = !keep;
                    keep
                });
                stride *= 2;
            }
        }
        tick += 1;
        t.span("cluster.engine.step", 1, || engine.step());
    };
    for arrival in arrivals {
        while engine.now() < arrival.at {
            step(&mut engine);
        }
        engine
            .submit(arrival.request)
            .expect("generated jobs fit the machine");
    }
    let end = engine.now() + DRAIN_LIMIT;
    while engine.now() < end && !idle(&engine) {
        step(&mut engine);
    }
    Recording { engine, conditions }
}

fn idle(engine: &SimEngine) -> bool {
    engine.scheduler().pending().is_empty() && engine.scheduler().running().is_empty()
}

/// The Fig 5 read pass over a finished store: instructions/s (rates
/// derived from the cumulative counters), network receive rate and
/// memory use, per node, over the whole run.
pub fn read_pass(engine: &SimEngine) -> [Heatmap; 3] {
    let schema = engine.schema();
    let from = SimTime::ZERO;
    let to = engine.now().max(SimTime::from_secs(1));
    let label_of = |name: &str| {
        name.parse::<Topic>()
            .ok()
            .and_then(|t| ExamonSchema::hostname_of(&t).map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    };
    let panel = |title: &str, store: &TimeSeriesStore, filter| {
        Heatmap::from_store(
            title,
            store,
            filter,
            from,
            to,
            HEATMAP_BINS,
            Aggregation::Mean,
            label_of,
        )
    };
    let instret = schema.pmu_metric_filter("instret");
    let rates = rate_store(engine.store(), &instret);
    [
        panel("Instructions/s", &rates, &instret),
        panel(
            "Network traffic (recv B/s)",
            engine.store(),
            &schema.stats_metric_filter("net_total.recv"),
        ),
        panel(
            "Memory usage (bytes)",
            engine.store(),
            &schema.stats_metric_filter("memory_usage.used"),
        ),
    ]
}

/// 64-bit digest of everything a speed-only change must leave identical:
/// the event log, the accounting records, the final clock and the full
/// TSDB content (series names, timestamps and value bits), plus the
/// heatmap cells when the rep read them.
pub fn digest(outcome: &Outcome) -> u64 {
    let engine = &outcome.engine;
    let mut h = Digest::new();
    // Streamed through the digest: no copy of the logs is ever built.
    write!(h, "{:?}{:?}", engine.events(), engine.accounting()).expect("digest writes never fail");
    h.word(engine.now().as_micros());
    let store = engine.store();
    let mut names: Vec<&str> = store.series_names().collect();
    names.sort_unstable();
    for name in names {
        h.bytes(name.as_bytes());
        for &(t, v) in store.query(name, SimTime::ZERO, END_OF_TIME) {
            h.word(t.as_micros());
            h.word(v.to_bits());
        }
    }
    if let Some(maps) = &outcome.heatmaps {
        for map in maps {
            h.bytes(map.title.as_bytes());
            for row in &map.values {
                for cell in row {
                    h.word(cell.map_or(u64::MAX, f64::to_bits));
                }
            }
        }
    }
    h.finish()
}

/// Word-at-a-time FNV-style mixing: cheap enough to run over tens of
/// millions of TSDB points after every rep.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}
