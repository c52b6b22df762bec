//! Acceptance probe for the zero-allocation telemetry hot path: after a
//! warm-up that compiles broker routes, interns every topic, and sizes
//! the scratch buffers, a steady-state sample→publish→ingest tick must
//! perform **zero** heap allocations.
//!
//! The failure detector's per-tick path is held to the same bar: cadence
//! scales, heartbeat publish and pump, and suspicion queries by slot.
//!
//! A counting global allocator makes the claim falsifiable. This file
//! holds exactly one `#[test]` so no sibling test thread can allocate
//! inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use cimone_monitor::broker::Broker;
use cimone_monitor::collector::Collector;
use cimone_monitor::heartbeat::{HeartbeatMonitor, DEFAULT_PHI_THRESHOLD, DEFAULT_WINDOW};
use cimone_monitor::interner::registration_count;
use cimone_monitor::payload::Payload;
use cimone_monitor::plugins::{CoreCounters, NodeSnapshot, Plugin, PmuPlugin, StatsPlugin};
use cimone_monitor::topic::{ExamonSchema, Topic};
use cimone_monitor::tsdb::TimeSeriesStore;
use cimone_soc::units::{SimDuration, SimTime};

/// Counts every allocation and reallocation served by the system
/// allocator. Frees are not counted: releasing memory is allowed on the
/// hot path (it cannot grow the footprint), acquiring it is not.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn snapshot(cores: usize, at: SimTime) -> NodeSnapshot {
    NodeSnapshot {
        hostname: "mc-node-01".into(),
        time: at,
        cores: (0..cores)
            .map(|i| CoreCounters {
                cycles: 1_000_000 * (i as u64 + 1),
                instret: 700_000 * (i as u64 + 1),
                events: Default::default(),
            })
            .collect(),
        load_avg: (0.5, 0.4, 0.3),
        memory: Default::default(),
        paging: (1.0, 2.0),
        procs: (3.0, 0.0, 1.0),
        io_total: (1e6, 2e6),
        dsk_total: (1e6, 2e6),
        system: (100.0, 200.0),
        cpu_usage: Default::default(),
        net_total: (1e5, 2e5),
        temperatures: Default::default(),
    }
}

/// One monitoring tick: sample both plugins into the reused scratch
/// batch, publish the batch, pump the collector into the store.
#[allow(clippy::too_many_arguments)]
fn tick(
    at: SimTime,
    snap: &mut NodeSnapshot,
    pmu: &mut PmuPlugin,
    stats: &mut StatsPlugin,
    batch: &mut Vec<(Topic, Payload)>,
    broker: &Broker,
    collector: &mut Collector,
    store: &mut TimeSeriesStore,
) {
    snap.time = at;
    for (i, core) in snap.cores.iter_mut().enumerate() {
        core.cycles += 1_000_000 + i as u64;
        core.instret += 700_000 + i as u64;
    }
    pmu.sample_into(snap, batch);
    stats.sample_into(snap, batch);
    broker.publish_batch_serial(batch);
    collector.pump(store);
}

/// One heartbeat tick for every node in `topics` (slot `i` beats on
/// `topics[i]`): declare the cadence scale, publish, pump, then query
/// phi and the next crossing by slot.
fn heartbeat_tick(
    at: SimTime,
    topics: &[Topic],
    batch: &mut Vec<(Topic, Payload)>,
    broker: &Broker,
    monitor: &mut HeartbeatMonitor,
) {
    for (slot, topic) in topics.iter().enumerate() {
        monitor.set_expected_scale_at(slot, 1.0);
        batch.push((*topic, Payload::new(1.0, at)));
    }
    broker.publish_batch_serial(batch);
    monitor.pump();
    let horizon = at + SimDuration::from_secs(60);
    for slot in 0..topics.len() {
        black_box(monitor.phi_at(slot, at));
        black_box(monitor.next_suspicion_due_at(slot, at, horizon, SimDuration::from_secs(1)));
    }
}

#[test]
fn steady_state_tick_allocates_nothing() {
    const CORES: usize = 4;
    const WARMUP_TICKS: u64 = 8;
    const MEASURED_TICKS: u64 = 64;

    let schema = ExamonSchema::monte_cimone();
    let mut pmu = PmuPlugin::for_host(schema.clone(), "mc-node-01", CORES);
    let mut stats = StatsPlugin::for_host(schema, "mc-node-01");
    let broker = Broker::new();
    let mut collector = Collector::attach(&broker, "#".parse().expect("valid"));
    let mut store = TimeSeriesStore::new();
    let mut snap = snapshot(CORES, SimTime::ZERO);
    let mut batch: Vec<(Topic, Payload)> = Vec::new();

    let period = SimDuration::from_millis(500);
    let mut now = SimTime::ZERO;
    for _ in 0..WARMUP_TICKS {
        now += period;
        tick(
            now,
            &mut snap,
            &mut pmu,
            &mut stats,
            &mut batch,
            &broker,
            &mut collector,
            &mut store,
        );
    }
    // Warm-up populated every series; give each column room for the
    // whole measured window so the sorted-append fast path never grows.
    store.reserve_points(MEASURED_TICKS as usize + 1);

    let registrations_before = registration_count();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_TICKS {
        now += period;
        tick(
            now,
            &mut snap,
            &mut pmu,
            &mut stats,
            &mut batch,
            &broker,
            &mut collector,
            &mut store,
        );
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert!(
        store.point_count() > 0 && broker.stats().delivered > 0,
        "the probe must actually move data (got {} points, {} delivered)",
        store.point_count(),
        broker.stats().delivered,
    );
    assert_eq!(
        registration_count(),
        registrations_before,
        "steady-state ticks must not intern new topics"
    );
    assert_eq!(
        allocs, 0,
        "steady-state ticks must not allocate ({allocs} allocations over {MEASURED_TICKS} ticks)"
    );

    // The failure detector: warm up past a full window so every detector
    // wraps, then measure.
    let hb_broker = Broker::new();
    let mut monitor = HeartbeatMonitor::attach(
        &hb_broker,
        "node/+/heartbeat".parse().expect("valid"),
        DEFAULT_PHI_THRESHOLD,
    );
    let topics: Vec<Topic> = (0..8)
        .map(|i| {
            let host = format!("mc-node-{:02}", i + 1);
            assert_eq!(monitor.reserve(&host), i, "slots follow reservation order");
            format!("node/{host}/heartbeat").parse().expect("valid")
        })
        .collect();
    let cadence = SimDuration::from_secs(5);
    let mut now = SimTime::ZERO;
    for _ in 0..DEFAULT_WINDOW + 2 {
        now += cadence;
        heartbeat_tick(now, &topics, &mut batch, &hb_broker, &mut monitor);
    }
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_TICKS {
        now += cadence;
        heartbeat_tick(now, &topics, &mut batch, &hb_broker, &mut monitor);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(
        monitor.detector_at(7).map(|d| d.samples()),
        Some(DEFAULT_WINDOW + 1),
        "the probe must ingest every beat into a full window"
    );
    assert_eq!(
        allocs, 0,
        "steady-state heartbeat ticks must not allocate ({allocs} allocations over {MEASURED_TICKS} ticks)"
    );
}
