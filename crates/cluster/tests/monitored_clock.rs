//! The sampled-span replay's bit-identity contract (DESIGN.md §16): with
//! monitoring *on*, an [`ClockMode::EventDriven`] run must stay byte-equal
//! to fixed-dt stepping — telemetry store, event log, accounting, phi
//! detection, checkpoints, final clock — while replaying (not stepping)
//! every observation-only tick. Stress axes: coprime/misaligned pmu and
//! stats sampling combs, heartbeat intervals that don't divide the span,
//! sensor dropout/stuck windows, switch outages.

use proptest::prelude::*;

use cimone_cluster::engine::{ClockMode, ClusterWorkload, EngineConfig, JobRequest, SimEngine};
use cimone_cluster::faults::{FaultKind, FaultPlan};
use cimone_cluster::healing::RecoveryConfig;
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload;

fn synthetic(nodes: usize, secs: u64) -> JobRequest {
    JobRequest {
        name: "monitored-clock".into(),
        user: "ci".into(),
        nodes,
        workload: ClusterWorkload::Synthetic {
            workload: Workload::Hpl,
            secs,
        },
    }
}

/// Asserts every observable output of the two engines is identical.
fn assert_bit_identical(fixed: &SimEngine, event: &SimEngine, label: &str) {
    assert_eq!(fixed.now(), event.now(), "{label}: final clock diverged");
    assert_eq!(
        fixed.events(),
        event.events(),
        "{label}: event log diverged"
    );
    assert!(
        fixed.store() == event.store(),
        "{label}: telemetry stores diverged ({} vs {} points)",
        fixed.store().point_count(),
        event.store().point_count(),
    );
    assert_eq!(
        fixed.accounting(),
        event.accounting(),
        "{label}: accounting diverged"
    );
    assert!(
        fixed.thermal() == event.thermal(),
        "{label}: thermal state diverged"
    );
    assert_eq!(
        fixed.total_downtime(),
        event.total_downtime(),
        "{label}: downtime diverged"
    );
    assert_eq!(
        fixed.checkpoints_written(),
        event.checkpoints_written(),
        "{label}: checkpoint count diverged"
    );
    assert_eq!(
        fixed.checkpoint_store(),
        event.checkpoint_store(),
        "{label}: checkpoint store diverged"
    );
    for i in 0..8 {
        assert_eq!(
            fixed.node_cpufreq(i).current_index(),
            event.node_cpufreq(i).current_index(),
            "{label}: node {i} DVFS state diverged"
        );
    }
}

/// Every fixed tick must be either stepped or replayed — never dropped,
/// never doubled.
fn assert_tick_accounting(fixed: &SimEngine, event: &SimEngine, label: &str) {
    assert_eq!(fixed.ticks_skipped(), 0, "{label}: fixed-dt never skips");
    assert_eq!(
        event.ticks_stepped() + event.ticks_skipped(),
        fixed.ticks_stepped(),
        "{label}: stepped+replayed must cover the fixed run"
    );
}

/// The headline scenario: monitoring plus the full heartbeat/phi stack,
/// a short job, then a long observed-idle tail. The replay must carry
/// the heartbeat cadence and detector state bitwise while reaching the
/// ≥10x tick ratio the bench gates on.
#[test]
fn monitored_recovery_idle_replays_heartbeats_bitwise() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            recovery: Some(RecoveryConfig::detection_only()),
            clock,
            ..EngineConfig::default()
        });
        engine.submit(synthetic(4, 30)).unwrap();
        engine.run_for(SimDuration::from_secs(1200));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "monitored recovery idle");
    assert_tick_accounting(&fixed, &event, "monitored recovery idle");
    let ratio = fixed.ticks_stepped() as f64 / event.ticks_stepped().max(1) as f64;
    assert!(
        ratio >= 10.0,
        "monitored tail must replay at >=10x, got {ratio:.2}x \
         ({} of {} ticks stepped)",
        event.ticks_stepped(),
        fixed.ticks_stepped()
    );
}

/// Sensor dropout and stuck-value windows open and close *inside* the
/// monitored span. Dropout skips the noise draw entirely, stuck draws
/// but publishes the frozen value — the replay must reproduce both RNG
/// patterns exactly.
#[test]
fn sensor_faults_inside_a_monitored_span_stay_bit_identical() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(
                    SimTime::from_secs(300),
                    FaultKind::SensorDropout {
                        node: 2,
                        span: SimDuration::from_secs(60),
                    },
                )
                .with(
                    SimTime::from_secs(500),
                    FaultKind::SensorStuck {
                        node: 5,
                        span: SimDuration::from_secs(90),
                    },
                ),
        );
        engine.submit(synthetic(4, 30)).unwrap();
        engine.run_for(SimDuration::from_secs(900));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "sensor faults in span");
    assert_tick_accounting(&fixed, &event, "sensor faults in span");
    assert!(
        event.ticks_skipped() > 0,
        "sensor-fault windows must not force full stepping"
    );
}

/// A management-switch outage goes dark mid-span: heartbeats and
/// telemetry stop at the switch (with the deterministic RNG-skip), then
/// everything resumes. Partition-aware detection must see the identical
/// arrival history from the replay.
#[test]
fn switch_outage_inside_a_monitored_span_stays_bit_identical() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            recovery: Some(RecoveryConfig {
                partition_aware: true,
                ..RecoveryConfig::detection_only()
            }),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(400),
            FaultKind::SwitchOutage {
                span: SimDuration::from_secs(120),
            },
        ));
        engine.submit(synthetic(4, 30)).unwrap();
        engine.run_for(SimDuration::from_secs(900));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "switch outage in span");
    assert_tick_accounting(&fixed, &event, "switch outage in span");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized sampling combs: coprime, misaligned pmu/stats periods
    /// and phases, heartbeat intervals that don't divide the span, three
    /// grid steps. The event run must match the fixed-dt reference bitwise
    /// in every drawn configuration.
    #[test]
    fn sampled_span_replay_is_bit_identical_for_any_cadence(
        pmu_period_ms in prop::sample::select(vec![300u64, 500, 700, 900, 1300]),
        pmu_phase_ms in prop::sample::select(vec![0u64, 100, 250, 600]),
        stats_period_ms in prop::sample::select(vec![1700u64, 3000, 5000, 7100]),
        stats_phase_ms in prop::sample::select(vec![0u64, 400, 900, 2300]),
        heartbeat_secs in prop::sample::select(vec![3u64, 5, 7, 11]),
        dt_ms in prop::sample::select(vec![500u64, 1000, 2000]),
        seed in 0u64..1000,
    ) {
        let run = |clock: ClockMode| {
            let mut engine = SimEngine::new(EngineConfig {
                dt: SimDuration::from_millis(dt_ms),
                seed,
                recovery: Some(RecoveryConfig {
                    heartbeat_interval: SimDuration::from_secs(heartbeat_secs),
                    ..RecoveryConfig::detection_only()
                }),
                clock,
                ..EngineConfig::default()
            });
            engine.set_sampling_cadence(
                SimDuration::from_millis(pmu_period_ms),
                SimDuration::from_millis(pmu_phase_ms),
                SimDuration::from_millis(stats_period_ms),
                SimDuration::from_millis(stats_phase_ms),
            );
            engine.submit(synthetic(4, 30)).unwrap();
            engine.run_for(SimDuration::from_secs(600));
            engine
        };
        let fixed = run(ClockMode::FixedDt);
        let event = run(ClockMode::EventDriven);
        assert_bit_identical(&fixed, &event, "random cadence");
        assert_tick_accounting(&fixed, &event, "random cadence");
        prop_assert!(
            event.ticks_skipped() > 0,
            "a 600s monitored tail must replay some ticks"
        );
    }
}
