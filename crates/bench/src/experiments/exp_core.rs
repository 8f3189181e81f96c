//! Experiments E1–E3: the epidemic primitive and `MultiCastCore`.
//!
//! This family runs on the **campaign engine** (`rcb-campaign`): each
//! experiment declares a grid of [`CellSpec`]s, executes it with
//! `run_campaign` (parallel, streaming aggregation, positional seed
//! derivation), and renders its table from the per-cell reports. Every
//! other experiment family follows the same pattern.

use super::{campaign, ci95_of, header};
use crate::scale::Scale;
use rcb_campaign::{CellReport, CellSpec};
use rcb_harness::{AdversaryKind, ProtocolKind};
use rcb_stats::{fit_power_law, Table};

/// 95% half-width on the mean from a cell's streaming moments.
fn ci95(c: &CellReport) -> f64 {
    ci95_of(&c.completion_slots)
}

/// E1 — epidemic growth beats 90% jamming (Claim 4.1.1 / Lemma 4.1).
pub fn e1_epidemic_growth(scale: Scale) -> String {
    let ns: &[u64] = scale.pick(&[64, 256, 1024][..], &[64, 128, 256, 512, 1024][..]);
    let fracs = [0.0, 0.5, 0.9];
    let seeds = scale.seeds().max(5);

    let mut out = header(
        "E1",
        "Epidemic growth under heavy jamming",
        "Claim 4.1.1 / Lemma 4.1: even with 90% of all n/2 channels jammed in \
         every slot, the number of informed nodes keeps growing geometrically, \
         so the naive epidemic completes in O(lg n) slots.",
        &format!(
            "NaiveEpidemic (everyone acts every slot) on n/2 channels; uniform \
             jammer with effectively unbounded budget jamming a fixed fraction; \
             {seeds} seeds per cell via the campaign engine; time = slots until \
             all n nodes are informed."
        ),
    );

    // One cell per (n, frac), in nested loop order.
    let mut cells = Vec::new();
    for &n in ns {
        for &frac in &fracs {
            cells.push(
                CellSpec::new(
                    ProtocolKind::Naive { n, act_prob: 1.0 },
                    if frac == 0.0 {
                        AdversaryKind::Silent
                    } else {
                        AdversaryKind::Uniform {
                            t: u64::MAX / 8,
                            frac,
                        }
                    },
                )
                .with_max_slots(10_000_000),
            );
        }
    }
    let reports = campaign("e1-epidemic-growth", cells, seeds, 11_000);

    let mut table = Table::new(&[
        "n",
        "jam 0% (slots)",
        "jam 50% (slots)",
        "jam 90% (slots)",
        "90% slots / lg n",
    ]);
    let mut per_lgn = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        let mut row = vec![n.to_string()];
        let mut jam90 = 0.0;
        for (j, &frac) in fracs.iter().enumerate() {
            let c = &reports[i * fracs.len() + j];
            assert_eq!(
                c.completed, c.trials,
                "E1: epidemic must complete (n={n}, frac={frac})"
            );
            row.push(format!("{:.0} ± {:.0}", c.completion_slots.mean, ci95(c)));
            if frac == 0.9 {
                jam90 = c.completion_slots.mean;
            }
        }
        let lgn = (n as f64).log2();
        per_lgn.push(jam90 / lgn);
        row.push(format!("{:.1}", jam90 / lgn));
        table.row(&row);
    }
    out.push_str(&table.markdown());
    let spread = per_lgn.iter().cloned().fold(f64::MIN, f64::max)
        / per_lgn.iter().cloned().fold(f64::MAX, f64::min);
    out.push_str(&format!(
        "\n**Result.** Completion under 90% jamming stays within a {spread:.2}x band \
         of c·lg n across a {}x range of n — logarithmic growth as claimed; \
         jamming a constant fraction of channels costs only a constant factor.\n",
        ns[ns.len() - 1] / ns[0]
    ));
    out
}

/// E2 — `MultiCastCore` time & cost scale as `O(T/n + lg T̂)` (Theorem 4.4).
pub fn e2_core_scaling(scale: Scale) -> String {
    let n = 64u64;
    // Budgets start where T/n dominates the Θ(lg T̂)-slot iteration floor
    // (R ≈ 250k slots; Eve's 90%-band jamming costs ~29/slot, so T = 8M buys
    // ~280k jammed slots ≈ one iteration).
    let budgets: &[u64] = scale.pick(
        &[0, 8_000_000, 64_000_000, 512_000_000][..],
        &[0, 8_000_000, 32_000_000, 128_000_000, 512_000_000][..],
    );
    let seeds = scale.seeds().min(3);

    let mut out = header(
        "E2",
        "MultiCastCore time and cost vs T",
        "Theorem 4.4: every node's running time *and* energy are \
         O(T/n + max{lg T, lg n}), i.e. both scale linearly in T once T \
         dominates the logarithmic floor.",
        &format!(
            "n = {n} (32 channels), uniform jammer at 90% of the band; Core is \
             given the true T; {seeds} seeds per budget via the campaign engine."
        ),
    );

    let cells = budgets
        .iter()
        .map(|&t| {
            CellSpec::new(
                ProtocolKind::Core {
                    n,
                    t,
                    params: Default::default(),
                },
                if t == 0 {
                    AdversaryKind::Silent
                } else {
                    AdversaryKind::Uniform { t, frac: 0.9 }
                },
            )
            .with_max_slots(2_000_000_000)
        })
        .collect();
    let reports = campaign("e2-core-scaling", cells, seeds, 22_000);

    let mut table = Table::new(&["T", "time (slots)", "time·n/T", "max node cost", "cost·n/T"]);
    let mut time_points = Vec::new();
    let mut cost_points = Vec::new();
    for (c, &t) in reports.iter().zip(budgets) {
        assert_eq!(c.completed, c.trials, "E2 trial failed at T={t}");
        assert_eq!(c.safety_violations, 0, "E2 safety violation at T={t}");
        let time = c.completion_slots.mean;
        let cost = c.max_node_cost.mean;
        if t > 0 {
            time_points.push((t as f64, time));
            cost_points.push((t as f64, cost));
        }
        table.row(&[
            t.to_string(),
            format!("{time:.0}"),
            if t > 0 {
                format!("{:.3}", time * n as f64 / t as f64)
            } else {
                "-".into()
            },
            format!("{cost:.0}"),
            if t > 0 {
                format!("{:.4}", cost * n as f64 / t as f64)
            } else {
                "-".into()
            },
        ]);
    }
    out.push_str(&table.markdown());
    let (_, bt, rt) = fit_power_law(&time_points);
    let (_, bc, rc) = fit_power_law(&cost_points);
    out.push_str("\n```text\ntime vs T (w.h.p. linear shape):\n");
    out.push_str(&rcb_stats::loglog_plot(&time_points, 56, 10));
    out.push_str("```\n");
    out.push_str(&format!(
        "\n**Result.** time ∝ T^{bt:.2} (r² = {rt:.3}), max cost ∝ T^{bc:.2} \
         (r² = {rc:.3}); Theorem 4.4 predicts exponent 1.0 for both once \
         T ≫ n·lg T̂. Unlike MultiCast (E5), Core's *energy* is also linear in \
         T — the price of its simplicity.\n"
    ));
    out
}

/// E3 — fast termination after a burst ends (Section 4 remark).
pub fn e3_core_fast_termination(scale: Scale) -> String {
    let n = 64u64;
    let budgets: &[u64] = scale.pick(
        &[2_000_000u64, 8_000_000, 32_000_000][..],
        &[2_000_000u64, 8_000_000, 32_000_000, 128_000_000][..],
    );
    let seeds = scale.seeds();

    let mut out = header(
        "E3",
        "MultiCastCore fast termination after jamming stops",
        "Section 4 remark: once Eve stops disrupting, all remaining nodes learn \
         m (if needed) and halt within one Θ(lg T̂)-slot iteration — a property \
         the paper notes other resource-competitive algorithms (needing Θ̃(T)) \
         lack.",
        &format!(
            "n = {n}; front-loaded full-band burst spends the whole budget in the \
             first T/(n/2) slots; gap = (last halt + 1) − (jam end), reported in \
             units of the iteration length R; {seeds} seeds per budget via the \
             campaign engine."
        ),
    );

    let cells = budgets
        .iter()
        .map(|&t| {
            CellSpec::new(
                ProtocolKind::Core {
                    n,
                    t,
                    params: Default::default(),
                },
                AdversaryKind::Burst { t, start: 0 },
            )
            .with_max_slots(2_000_000_000)
        })
        .collect();
    let reports = campaign("e3-core-fast-termination", cells, seeds, 33_000);

    let mut table = Table::new(&["T", "jam end (slot)", "R", "gap (slots)", "gap / R"]);
    let mut worst_ratio: f64 = 0.0;
    for (c, &t) in reports.iter().zip(budgets) {
        let jam_end = t / (n / 2);
        assert_eq!(c.completed, c.trials, "E3 trial failed at T={t}");
        assert_eq!(c.all_informed, c.trials, "E3 trial uninformed at T={t}");
        // Recover R from the protocol parameters.
        let r_len = rcb_core::MultiCastCore::new(n, t).iteration_len();
        // completion_slots = last halt + 1, so the mean gap is the mean
        // completion minus the (deterministic) jam end.
        let gap = (c.completion_slots.mean - jam_end as f64).max(0.0);
        let ratio = gap / r_len as f64;
        worst_ratio = worst_ratio.max(ratio);
        table.row(&[
            t.to_string(),
            jam_end.to_string(),
            r_len.to_string(),
            format!("{gap:.0}"),
            format!("{ratio:.2}"),
        ]);
    }
    out.push_str(&table.markdown());
    out.push_str(&format!(
        "\n**Result.** The halt gap stays ≤ {worst_ratio:.2}·R across a 16x range \
         of T — constant in iterations, exactly the paper's \"within one \
         iteration\" recovery (≤ 2R is the guarantee: the tail of the burst \
         iteration plus one clean iteration).\n"
    ));
    out
}
