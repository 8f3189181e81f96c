//! `rcb profile` — answer "why is this cell slow?" for one scenario cell.
//!
//! Runs a few trials of a single cell with per-phase wall-clock timing
//! enabled ([`EngineConfig::time_phases`]), merges the engine telemetry,
//! and renders a breakdown: where the wall time went (setup / slot loop /
//! fast-forward / finalize), how many slots were executed vs. skipped, how
//! much randomness each stream class consumed, and the idle-span length
//! histogram that explains the skip ratio.
//!
//! Trial seeds reuse the bench derivation
//! ([`bench_trial_seed`](crate::bench)), so `rcb profile <scenario> <cell>`
//! at the default seed profiles exactly the trials a `BENCH_*.json`
//! artifact measured — the counters in the profile match the artifact's
//! `perf` block for the same trial count.

use crate::bench::bench_trial_seed;
use crate::report::CellPerf;
use crate::scenario::Scenario;
use rcb_harness::{run_trial_telemetry, TrialOptions, TrialSpec};
use rcb_sim::{EngineConfig, EngineTelemetry, SPAN_HIST_BUCKETS};
use rcb_stats::Table;
use std::time::Instant;

/// How a profile run executes. Mirrors the bench defaults so profiles line
/// up with `BENCH_*.json` cells out of the box.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Master seed (bench-compatible derivation per trial).
    pub seed: u64,
    /// Trials to run and merge (sequential, single-threaded).
    pub trials: u64,
    /// Override the cell's engine slot cap (None = the cell's own).
    pub max_slots: Option<u64>,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            trials: 3,
            max_slots: None,
        }
    }
}

/// Profile one cell of a scenario; returns the rendered report.
///
/// # Errors
/// Returns a message if `cell` is out of range for the scenario or
/// `trials` is 0.
pub fn profile_cell(
    scenario: &Scenario,
    cell_index: usize,
    cfg: &ProfileConfig,
) -> Result<String, String> {
    if cfg.trials == 0 {
        return Err("profile needs at least one trial".into());
    }
    let spec = scenario.spec();
    let Some(cell) = spec.cells.get(cell_index) else {
        return Err(format!(
            "scenario `{}` has cells 0..={}, got {cell_index} (see `rcb describe {}`)",
            spec.name,
            spec.cells.len() - 1,
            spec.name,
        ));
    };

    let engine = EngineConfig {
        time_phases: true,
        ..EngineConfig::default()
    };
    let started = Instant::now();
    let mut tel = EngineTelemetry::default();
    let mut completed = 0u64;
    for trial in 0..cfg.trials {
        let seed = bench_trial_seed(cfg.seed, &spec.name, cell_index, trial);
        let ts = TrialSpec::new(cell.protocol.clone(), cell.adversary.clone(), seed)
            .with_topology(cell.topology.clone())
            .with_schedule(cell.schedule.clone())
            .with_max_slots(cfg.max_slots.unwrap_or(cell.max_slots));
        let (r, t) = run_trial_telemetry(&ts, TrialOptions::with_engine(engine));
        completed += r.completed as u64;
        tel.merge(&t);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let perf = CellPerf::from_telemetry(&tel, wall_s);

    Ok(render(&spec.name, cell_index, cell, cfg, completed, &perf))
}

fn pct(part: f64, whole: f64) -> String {
    if whole <= 0.0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * part / whole)
    }
}

fn render(
    scenario: &str,
    cell_index: usize,
    cell: &crate::scenario::CellSpec,
    cfg: &ProfileConfig,
    completed: u64,
    perf: &CellPerf,
) -> String {
    let phase_total = perf.setup_s + perf.slot_loop_s + perf.fast_forward_s + perf.finalize_s;
    let mut phases = Table::new(&["phase", "seconds", "share"]);
    for (name, secs) in [
        ("setup", perf.setup_s),
        ("slot loop", perf.slot_loop_s),
        ("fast-forward", perf.fast_forward_s),
        ("finalize", perf.finalize_s),
    ] {
        phases.row(&[
            name.to_string(),
            format!("{secs:.4}"),
            pct(secs, phase_total),
        ]);
    }
    phases.row(&[
        "total (in-engine)".to_string(),
        format!("{phase_total:.4}"),
        pct(phase_total, perf.wall_s),
    ]);

    let mut counters = Table::new(&["counter", "value"]);
    let executed_rate = if perf.slot_loop_s > 0.0 {
        perf.slots_stepped as f64 / perf.slot_loop_s
    } else {
        0.0
    };
    for (name, value) in [
        ("trials", cfg.trials.to_string()),
        ("completed", completed.to_string()),
        ("slots covered", perf.slots_total.to_string()),
        ("slots executed", perf.slots_stepped.to_string()),
        (
            "slots fast-forwarded",
            perf.slots_fast_forwarded.to_string(),
        ),
        (
            "ff skip ratio",
            format!("{:.2}%", 100.0 * perf.ff_skip_ratio),
        ),
        ("ff spans", perf.spans.to_string()),
        ("mean span len", format!("{:.1}", perf.mean_span_len)),
        ("ff gated segments", perf.ff_gated_segments.to_string()),
        ("rng draws (engine)", perf.rng_engine_draws.to_string()),
        ("rng draws (nodes)", perf.rng_node_draws.to_string()),
        ("jam spent (stepped)", perf.jam_spent_stepped.to_string()),
        ("jam spent (spans)", perf.jam_spent_spans.to_string()),
        ("observer events", perf.observer_events.to_string()),
        (
            "covered slots/s",
            format!("{:.2}M", perf.slots_per_sec * 1e-6),
        ),
        ("executed slots/s", format!("{:.2}M", executed_rate * 1e-6)),
    ] {
        counters.row(&[name.to_string(), value]);
    }

    let mut out = format!(
        "# profile `{scenario}` cell {cell_index}: {}/{} on {} (n={}, T={}) — seed {}, {} trials, {:.3}s wall\n\n\
         ## where the time went\n\n{}\n\
         ## counters\n\n{}",
        cell.protocol.name(),
        cell.adversary.name(),
        cell.topology.name(),
        cell.protocol.n(),
        cell.adversary.budget(),
        cfg.seed,
        cfg.trials,
        perf.wall_s,
        phases.markdown(),
        counters.markdown(),
    );

    if !perf.span_len_hist.is_empty() {
        let mut hist = Table::new(&["span length", "spans"]);
        for b in &perf.span_len_hist {
            let lo = 1u64 << b.log2;
            let label = if b.log2 as usize == SPAN_HIST_BUCKETS - 1 {
                format!("≥ {lo}")
            } else if b.log2 == 0 {
                "1".to_string()
            } else {
                format!("{lo}–{}", (lo << 1) - 1)
            };
            hist.row(&[label, b.count.to_string()]);
        }
        out.push_str(&format!(
            "\n## idle-span length histogram\n\n{}",
            hist.markdown()
        ));
    }

    out.push_str(&format!(
        "\nThe fast-forward path skipped {:.2}% of covered slots in {} spans \
         (mean length {:.1}); the slot loop executed {} slots in {:.4}s \
         ({:.2}M executed slots/s).\n",
        100.0 * perf.ff_skip_ratio,
        perf.spans,
        perf.mean_span_len,
        perf.slots_stepped,
        perf.slot_loop_s,
        executed_rate * 1e-6,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find;

    #[test]
    fn profile_reports_phase_and_counter_breakdown() {
        let scenario = find("epidemic-race").expect("catalog entry");
        let cfg = ProfileConfig {
            trials: 1,
            max_slots: Some(30_000),
            ..ProfileConfig::default()
        };
        let text = profile_cell(&scenario, 0, &cfg).unwrap();
        assert!(text.contains("## where the time went"));
        assert!(text.contains("slot loop"));
        assert!(text.contains("ff skip ratio"));
        assert!(text.contains("rng draws (engine)"));
        assert!(text.contains("The fast-forward path skipped"));
    }

    #[test]
    fn out_of_range_cell_is_a_helpful_error() {
        let scenario = find("epidemic-race").expect("catalog entry");
        let err = profile_cell(&scenario, 999, &ProfileConfig::default()).unwrap_err();
        assert!(err.contains("0..="), "{err}");
        assert!(err.contains("999"));
    }

    /// Same seed derivation as bench: the deterministic counters of a
    /// profile must match a bench run of the same cell and trial count.
    #[test]
    fn profile_counters_match_bench_perf_block() {
        use crate::bench::{run_bench, BenchConfig};
        let scenario = find("epidemic-race").expect("catalog entry");
        let bench = run_bench(
            std::slice::from_ref(&scenario),
            &BenchConfig {
                trials_per_cell: 1,
                max_slots: Some(30_000),
                reference: false,
                ..BenchConfig::default()
            },
        );
        let cell = &bench.scenarios[0].cells[2];
        let text = profile_cell(
            &scenario,
            2,
            &ProfileConfig {
                trials: 1,
                max_slots: Some(30_000),
                ..ProfileConfig::default()
            },
        )
        .unwrap();
        let grab = |label: &str| -> String {
            text.lines()
                .find(|l| l.starts_with(&format!("| {label} ")))
                .unwrap_or_else(|| panic!("row `{label}` missing:\n{text}"))
                .split('|')
                .nth(2)
                .expect("two-column row")
                .trim()
                .to_string()
        };
        assert_eq!(grab("slots covered"), cell.perf.slots_total.to_string());
        assert_eq!(
            grab("slots fast-forwarded"),
            cell.perf.slots_fast_forwarded.to_string()
        );
        assert_eq!(
            grab("rng draws (engine)"),
            cell.perf.rng_engine_draws.to_string()
        );
    }
}
