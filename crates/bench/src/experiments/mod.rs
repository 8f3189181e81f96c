//! The experiment registry: every theorem/lemma of the paper mapped to a
//! regenerable table (`repro --list` prints the index). Every experiment
//! runs on the campaign engine — cells in, streaming per-cell reports out —
//! so no code path here re-materializes per-trial result vectors.

mod exp_adv;
mod exp_core;
mod exp_extension;
mod exp_multicast;
mod exp_multihop;
mod exp_multimessage;
mod exp_summary;

use crate::scale::Scale;

/// One reproducible experiment.
pub struct Experiment {
    /// Short id (`e1` … `e18`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper claim it reproduces.
    pub claim: &'static str,
    /// Regenerate the table; returns a markdown report.
    pub run: fn(Scale) -> String,
}

/// All experiments, in index order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            title: "Epidemic growth under heavy jamming",
            claim: "Claim 4.1.1 / Lemma 4.1: with 90% of channels jammed, the \
                    epidemic still completes in O(lg n) slots",
            run: exp_core::e1_epidemic_growth,
        },
        Experiment {
            id: "e2",
            title: "MultiCastCore time and cost vs T",
            claim: "Theorem 4.4: time and per-node cost are O(T/n + lg T̂)",
            run: exp_core::e2_core_scaling,
        },
        Experiment {
            id: "e3",
            title: "MultiCastCore fast termination after jamming stops",
            claim: "Section 4 remark: after Eve stops, all nodes halt within \
                    ~one Θ(lg T̂)-slot iteration, independent of T",
            run: exp_core::e3_core_fast_termination,
        },
        Experiment {
            id: "e4",
            title: "MultiCast time vs T",
            claim: "Theorem 5.4(a): all nodes terminate within O(T/n + lg²n) slots",
            run: exp_multicast::e4_multicast_time,
        },
        Experiment {
            id: "e5",
            title: "MultiCast energy vs T",
            claim: "Theorem 5.4(b): per-node cost is O(√(T/n)·√lg T·lg n + lg²n)",
            run: exp_multicast::e5_multicast_cost,
        },
        Experiment {
            id: "e6",
            title: "Multi-channel vs single-channel broadcast",
            claim: "Headline: Õ(T/n) multi-channel time vs Õ(T + n) single-channel \
                    time at the same Õ(√(T/n)) energy",
            run: exp_multicast::e6_vs_single_channel,
        },
        Experiment {
            id: "e7",
            title: "Safety and liveness matrix",
            claim: "Lemmas 4.2/5.2 (never halt uninformed) and 4.3/5.3 (always \
                    halt once jamming is weak) across all adversaries",
            run: exp_multicast::e7_safety_matrix,
        },
        Experiment {
            id: "e8",
            title: "MultiCastAdv time and cost vs T",
            claim: "Theorem 6.10: time Õ(T/n^{1−2α} + n^{2α}), cost \
                    Õ(√(T/n^{1−2α}) + n^{2α})",
            run: exp_adv::e8_adv_scaling,
        },
        Experiment {
            id: "e9",
            title: "Helper localization",
            claim: "Lemmas 6.1–6.3: helpers form only at i > lg n, j = lg n − 1 \
                    (the protocol implicitly measures n)",
            run: exp_adv::e9_helper_localization,
        },
        Experiment {
            id: "e10",
            title: "MultiCast(C) channel sweep",
            claim: "Corollary 7.1: time O(T/C + (n/C)·lg²n) — inversely \
                    proportional to C — at C-independent energy",
            run: exp_multicast::e10_channel_sweep,
        },
        Experiment {
            id: "e11",
            title: "MultiCastAdv(C) under limited channels",
            claim: "Theorem 7.2 / Corollary C.1: helpers form at j = lg C; time \
                    dominated by Õ(T/C^{1−2α} + n^{2+2α}/C^{2−2α})",
            run: exp_adv::e11_adv_limited,
        },
        Experiment {
            id: "e12",
            title: "Resource competitiveness summary",
            claim: "Definition 3.1: max node cost = ρ(T) + τ with ρ(T) ∈ o(T) \
                    for every protocol; naive baselines pay Θ(T)",
            run: exp_summary::e12_competitiveness,
        },
        Experiment {
            id: "e13",
            title: "Adaptive adversaries (extension)",
            claim: "Section 8 conjecture: the protocols survive an adaptive \
                    (band-sensing, reactive) Eve essentially unchanged",
            run: exp_extension::e13_adaptive_adversary,
        },
        Experiment {
            id: "e14",
            title: "Channel-count ablation (extension)",
            claim: "Section 4 design choice: n/2 channels balances parallelism \
                    against meeting probability",
            run: exp_extension::e14_channel_count_ablation,
        },
        Experiment {
            id: "e15",
            title: "Halting-threshold ablation (extension)",
            claim: "Figures 1/2 design choice: the Nn < R·p/2 threshold \
                    separates collision noise from sustainable jamming",
            run: exp_extension::e15_halt_threshold_ablation,
        },
        Experiment {
            id: "e16",
            title: "Sparse-epidemic ablation (extension)",
            claim: "Section 5 design choice: sparsity costs the epidemic ~p⁻² \
                    time and ~p⁻¹ energy, but prices waiting at √R per \
                    iteration — the origin of the √T bound",
            run: exp_extension::e16_sparse_epidemic_ablation,
        },
        Experiment {
            id: "e17",
            title: "Multi-hop topologies (extension)",
            claim: "Beyond the paper's single-hop model: over a connectivity \
                    graph, flooding time scales with diameter, and per-round \
                    edge churn (Ahmadi–Kuhn dynamic networks) delays but \
                    never strands reachable nodes",
            run: exp_multihop::e17_multihop,
        },
        Experiment {
            id: "e18",
            title: "Multi-message broadcast (extension)",
            claim: "Ahmadi-Kuhn multi-message model: k concurrent payloads \
                    multiplexed through one relay schedule complete in \
                    ~k ln k of the single-message time, and jamming only \
                    delays them",
            run: exp_multimessage::e18_multimessage,
        },
    ]
}

/// Shared report header.
pub(crate) fn header(exp: &str, title: &str, claim: &str, setup: &str) -> String {
    format!("## {exp} — {title}\n\n**Claim.** {claim}\n\n**Setup.** {setup}\n\n")
}

/// Run a grid of cells under the campaign engine and return the per-cell
/// reports in cell order. The campaign-engine path (rather than raw
/// `run_trials`) gives experiments streaming aggregation — no per-trial
/// result vectors — plus positional seed derivation for free.
pub(crate) fn campaign(
    name: &str,
    cells: Vec<rcb_campaign::CellSpec>,
    seeds: u64,
    master_seed: u64,
) -> Vec<rcb_campaign::CellReport> {
    let spec = rcb_campaign::CampaignSpec {
        name: name.to_string(),
        description: String::new(),
        cells,
    };
    rcb_campaign::run_campaign(
        &spec,
        &rcb_campaign::CampaignConfig {
            seed: master_seed,
            trials_per_cell: seeds,
            threads: 0,
            max_slots: None,
            progress: false,
            telemetry: false,
        },
    )
    .cells
}

/// 95% half-width on the completion-time mean from a cell's streaming
/// moments.
pub(crate) fn ci95_of(m: &rcb_campaign::MetricReport) -> f64 {
    1.96 * m.std_dev / (m.count as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 18, "12 paper experiments + 6 extensions");
        for (k, e) in exps.iter().enumerate() {
            assert_eq!(e.id, format!("e{}", k + 1));
            assert!(!e.title.is_empty());
            assert!(!e.claim.is_empty());
        }
    }
}
