//! Degradation sweep: blade fault domains under a single-rail brownout —
//! power-cap graceful degradation versus the crash-only machine — plus
//! the intra-/cross-blade HPL placement point and the coupled-airflow
//! fan-loss scenario. Runs the whole set under both clock modes and
//! exits non-zero if a single byte diverges (the DESIGN.md §13 identity
//! contract extended to degraded operation). Emits
//! `BENCH_degradation.json`. `JOBS`, `SEED` and `BUDGET_PCT` env vars
//! override the defaults; `--smoke` runs the small CI configuration.

use cimone_bench::{env_u64, num, obj};
use cimone_cluster::engine::ClockMode;
use cimone_cluster::experiments::degradation::{self, DegradationResult};
use cimone_cluster::perf::HplProblem;
use cimone_monitor::json::JsonValue;

fn brownout_section(result: &DegradationResult) -> JsonValue {
    JsonValue::Array(
        result
            .brownout
            .iter()
            .map(|p| {
                obj(vec![
                    ("capping", JsonValue::Bool(p.capping)),
                    ("budget_frac", num(p.budget_frac)),
                    ("budget_watts", num(p.budget_watts)),
                    ("jobs_submitted", num(p.jobs_submitted as f64)),
                    ("jobs_completed", num(p.jobs_completed as f64)),
                    ("jobs_lost", num(p.jobs_lost as f64)),
                    ("requeues", num(p.requeues as f64)),
                    ("cap_events", num(p.cap_events as f64)),
                    ("emergencies", num(p.emergencies as f64)),
                    ("peak_blade_watts", num(p.peak_blade_watts)),
                    ("energy_joules", num(p.energy_joules)),
                    ("wasted_node_hours", num(p.wasted_node_hours)),
                    ("makespan_s", num(p.makespan_secs)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs = env_u64("JOBS", if smoke { 2 } else { 4 }) as usize;
    let seed = env_u64("SEED", 2022);
    let budget_frac = env_u64("BUDGET_PCT", 75) as f64 / 100.0;

    let event = degradation::run(
        HplProblem::paper(),
        jobs,
        budget_frac,
        seed,
        ClockMode::EventDriven,
    );
    let fixed = degradation::run(
        HplProblem::paper(),
        jobs,
        budget_frac,
        seed,
        ClockMode::FixedDt,
    );
    let identical = event == fixed;

    print!("{}", event.render());

    let cap = &event.brownout[0];
    let within_budget = cap.peak_blade_watts <= cap.budget_watts;
    let doc = obj(vec![
        (
            "config",
            obj(vec![
                (
                    "mode",
                    JsonValue::String(if smoke { "smoke" } else { "full" }.to_owned()),
                ),
                ("jobs", num(jobs as f64)),
                ("seed", num(seed as f64)),
                ("budget_frac", num(budget_frac)),
            ]),
        ),
        ("brownout", brownout_section(&event)),
        (
            "placement",
            obj(vec![
                (
                    "intra_blade_gflops",
                    num(event.placement.intra_blade_gflops),
                ),
                (
                    "cross_blade_gflops",
                    num(event.placement.cross_blade_gflops),
                ),
                ("penalty_pct", num(event.placement.penalty_pct)),
            ]),
        ),
        (
            "fan_loss",
            obj(vec![
                ("direct_peak_c", num(event.fan_loss.direct_peak_c)),
                ("shadow_peak_c", num(event.fan_loss.shadow_peak_c)),
                ("healthy_peak_c", num(event.fan_loss.healthy_peak_c)),
                ("trips", num(event.fan_loss.trips as f64)),
            ]),
        ),
        ("bit_identical", JsonValue::Bool(identical)),
        ("within_budget", JsonValue::Bool(within_budget)),
    ]);
    std::fs::write("BENCH_degradation.json", format!("{doc}\n"))
        .expect("write BENCH_degradation.json");
    println!("wrote BENCH_degradation.json");

    if !identical {
        eprintln!("FAIL: event-driven and fixed-dt degradation sweeps diverged");
        std::process::exit(1);
    }
    if !within_budget {
        eprintln!(
            "FAIL: capped blade peaked at {} W over the {} W budget",
            cap.peak_blade_watts, cap.budget_watts
        );
        std::process::exit(1);
    }
}
