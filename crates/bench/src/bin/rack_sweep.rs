//! Rack-outage sweep: rack-level fault domains under one combined plan —
//! a shared GbE switch outage, a /ckpt NFS export failure with a node
//! crash inside the window, and a machine-wide multi-rail brownout —
//! through three recovery postures (naive, partition-aware, spill). Runs
//! the whole set under both clock modes and exits non-zero if a single
//! byte diverges (the DESIGN.md §13 identity contract extended to rack
//! faults) or the arbitrated machine power ever exceeds the rack budget.
//! Emits `BENCH_rack.json`. `JOBS`, `SEED` and `BUDGET_PCT` env vars
//! override the defaults; `--smoke` runs the small CI configuration.

use cimone_bench::{env_u64, num, obj};
use cimone_cluster::engine::ClockMode;
use cimone_cluster::experiments::rack_outage::{self, RackOutageResult};
use cimone_cluster::perf::HplProblem;
use cimone_monitor::json::JsonValue;

fn campaign_section(result: &RackOutageResult) -> JsonValue {
    JsonValue::Array(
        result
            .campaigns
            .iter()
            .map(|c| {
                obj(vec![
                    ("label", JsonValue::String(c.label.clone())),
                    ("partition_aware", JsonValue::Bool(c.partition_aware)),
                    ("spill", JsonValue::Bool(c.spill)),
                    ("jobs_submitted", num(c.jobs_submitted as f64)),
                    ("jobs_completed", num(c.jobs_completed as f64)),
                    ("jobs_lost", num(c.jobs_lost as f64)),
                    ("suspicions", num(c.suspicions as f64)),
                    ("fences", num(c.fences as f64)),
                    ("partitions", num(c.partitions as f64)),
                    ("requeues", num(c.requeues as f64)),
                    ("checkpoints", num(c.checkpoints as f64)),
                    ("ckpt_deferred", num(c.ckpt_deferred as f64)),
                    ("ckpt_spilled", num(c.ckpt_spilled as f64)),
                    ("ckpt_abandoned", num(c.ckpt_abandoned as f64)),
                    ("spill_flushed", num(c.spill_flushed as f64)),
                    ("rack_emergencies", num(c.rack_emergencies as f64)),
                    ("rack_peak_watts", num(c.rack_peak_watts)),
                    ("rack_budget_watts", num(c.rack_budget_watts)),
                    ("energy_joules", num(c.energy_joules)),
                    ("wasted_node_hours", num(c.wasted_node_hours)),
                    ("makespan_s", num(c.makespan_secs)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs = env_u64("JOBS", if smoke { 4 } else { 8 }) as usize;
    let seed = env_u64("SEED", 2022);
    let budget_frac = env_u64("BUDGET_PCT", 60) as f64 / 100.0;

    let event = rack_outage::run(
        HplProblem::paper(),
        jobs,
        budget_frac,
        seed,
        ClockMode::EventDriven,
    );
    let fixed = rack_outage::run(
        HplProblem::paper(),
        jobs,
        budget_frac,
        seed,
        ClockMode::FixedDt,
    );
    let identical = event == fixed;

    print!("{}", event.render());

    // A campaign that declared a rack emergency has proven the budget
    // infeasible (even all-floor OPPs exceed it) and is draining; the
    // peak during the drain legitimately exceeds the budget. The
    // invariant gated here is the arbiter's: while it claims the budget
    // *fits*, the machine never exceeds it.
    let within_budget = event
        .campaigns
        .iter()
        .all(|c| c.rack_emergencies > 0 || c.rack_peak_watts <= c.rack_budget_watts);
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
        ("campaigns", campaign_section(&event)),
        ("bit_identical", JsonValue::Bool(identical)),
        ("within_budget", JsonValue::Bool(within_budget)),
    ]);
    std::fs::write("BENCH_rack.json", format!("{doc}\n")).expect("write BENCH_rack.json");
    println!("wrote BENCH_rack.json");

    if !identical {
        eprintln!("FAIL: event-driven and fixed-dt rack sweeps diverged");
        std::process::exit(1);
    }
    if !within_budget {
        for c in &event.campaigns {
            if c.rack_emergencies == 0 && c.rack_peak_watts > c.rack_budget_watts {
                eprintln!(
                    "FAIL: {} peaked at {} W over the {} W machine budget",
                    c.label, c.rack_peak_watts, c.rack_budget_watts
                );
            }
        }
        std::process::exit(1);
    }
}
