//! Silent-data-corruption sweep: single-bit injections into the native
//! HPL kernels across the ABFT modes, plus the cluster-scale SDC plan
//! (kernel flips, checkpoint rot, telemetry corruption) under each mode
//! and both clock modes. Exits non-zero if the clock modes diverge, if
//! `Detect` misses a corrupted kernel run (coverage < 99%), if `Correct`
//! ships an undetected wrong answer, or if the clean-run checksum
//! overhead exceeds 15% of the HPL operation count. Emits
//! `BENCH_sdc.json`. `N`, `NB`, `TRIALS` and `SEED` env vars override
//! the defaults; `--smoke` runs the small CI configuration.

use cimone_bench::{env_u64, num, obj};
use cimone_cluster::engine::ClockMode;
use cimone_cluster::experiments::sdc::{self, SdcResult};
use cimone_monitor::json::JsonValue;

fn kernel_section(result: &SdcResult) -> JsonValue {
    JsonValue::Array(
        result
            .kernel
            .iter()
            .map(|c| {
                obj(vec![
                    ("mode", JsonValue::String(c.mode.clone())),
                    ("trials", num(c.trials as f64)),
                    ("affected", num(c.affected as f64)),
                    ("checksum_caught", num(c.checksum_caught as f64)),
                    ("residual_caught", num(c.residual_caught as f64)),
                    ("corrected_bitwise", num(c.corrected_bitwise as f64)),
                    ("undetected_wrong", num(c.undetected_wrong as f64)),
                    ("detection_coverage", num(c.detection_coverage)),
                    ("overhead_frac", num(c.overhead_frac)),
                ])
            })
            .collect(),
    )
}

fn engine_section(result: &SdcResult) -> JsonValue {
    JsonValue::Array(
        result
            .engine
            .iter()
            .map(|c| {
                obj(vec![
                    ("mode", JsonValue::String(c.mode.clone())),
                    ("completed", num(c.completed as f64)),
                    ("sdc_detected", num(c.sdc_detected as f64)),
                    ("sdc_corrected", num(c.sdc_corrected as f64)),
                    ("sdc_undetected", num(c.sdc_undetected as f64)),
                    ("ckpt_corrupt", num(c.ckpt_corrupt as f64)),
                    ("sdc_suspected", num(c.sdc_suspected as f64)),
                    ("wasted_node_hours", num(c.wasted_node_hours)),
                    ("makespan_s", num(c.makespan_secs)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = env_u64("N", 192) as usize;
    let nb = env_u64("NB", 48) as usize;
    let trials = env_u64("TRIALS", if smoke { 16 } else { 48 }) as usize;
    let seed = env_u64("SEED", 2022);

    let event = sdc::run(n, nb, trials, seed, ClockMode::EventDriven);
    let fixed = sdc::run(n, nb, trials, seed, ClockMode::FixedDt);
    let identical = event == fixed;

    print!("{}", event.render());

    let cell = |mode: &str| {
        event
            .kernel
            .iter()
            .find(|c| c.mode == mode)
            .expect("all three modes swept")
    };
    let detect_covered = cell("detect").detection_coverage >= 0.99;
    let correct_silent_free = cell("correct").undetected_wrong == 0
        && event
            .engine
            .iter()
            .filter(|c| c.mode != "off")
            .all(|c| c.sdc_undetected == 0);
    let overhead_ok = event.kernel.iter().all(|c| c.overhead_frac <= 0.15);

    let doc = obj(vec![
        (
            "config",
            obj(vec![
                (
                    "mode",
                    JsonValue::String(if smoke { "smoke" } else { "full" }.to_owned()),
                ),
                ("n", num(n as f64)),
                ("nb", num(nb as f64)),
                ("trials", num(trials as f64)),
                ("seed", num(seed as f64)),
            ]),
        ),
        ("kernel", kernel_section(&event)),
        ("engine", engine_section(&event)),
        ("bit_identical", JsonValue::Bool(identical)),
        ("detect_coverage_ok", JsonValue::Bool(detect_covered)),
        ("correct_silent_free", JsonValue::Bool(correct_silent_free)),
        ("overhead_ok", JsonValue::Bool(overhead_ok)),
    ]);
    std::fs::write("BENCH_sdc.json", format!("{doc}\n")).expect("write BENCH_sdc.json");
    println!("wrote BENCH_sdc.json");

    if !identical {
        eprintln!("FAIL: event-driven and fixed-dt SDC sweeps diverged");
        std::process::exit(1);
    }
    if !detect_covered {
        eprintln!(
            "FAIL: detect-mode coverage {} below the 99% floor",
            cell("detect").detection_coverage
        );
        std::process::exit(1);
    }
    if !correct_silent_free {
        eprintln!("FAIL: a protected mode shipped an undetected wrong result");
        std::process::exit(1);
    }
    if !overhead_ok {
        for c in &event.kernel {
            if c.overhead_frac > 0.15 {
                eprintln!(
                    "FAIL: {} checksum overhead {:.1}% exceeds the 15% budget",
                    c.mode,
                    c.overhead_frac * 100.0
                );
            }
        }
        std::process::exit(1);
    }
}
