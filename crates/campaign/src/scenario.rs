//! The scenario catalog: named campaign specs, kept as data.
//!
//! A **scenario** is a named [`CampaignSpec`] — a flat list of
//! [`CellSpec`]s (protocol × adversary × topology × schedule × engine cap).
//! The campaign engine runs every cell for the requested number of trials
//! and aggregates each cell independently.
//!
//! Each entry's spec is a TOML file under `crates/campaign/scenarios/`,
//! embedded into the binary at build time and read by the same loader as
//! `rcb run --spec` ([`parse_spec`]), so `rcb run nemesis` and
//! `rcb run --spec crates/campaign/scenarios/nemesis.toml` are one
//! campaign. A sweep is written as arrays on `[[cell]]` keys, which expand
//! into their cross product (see [`crate::specfile`]). Adding a workload
//! is one file plus one catalog line.
//!
//! The registry covers the reproduction's core claims plus the scenario-
//! diversity axis motivated by the adaptive-adversary follow-up
//! (arXiv:2001.03936) and the dynamic-network line of work: adaptive
//! jammers, bursty environmental noise, sweeping interference, baseline
//! races, and scaling ladders.

use crate::specfile::parse_spec;
use rcb_harness::{AdversaryKind, ProtocolKind, ScheduleSpec, TopologyKind, TrialSpec};

/// One aggregation cell of a campaign: a protocol/adversary/topology
/// triple run for many seeds. Everything the engine needs to build a
/// `TrialSpec`, minus the per-trial seed (the engine derives those).
#[derive(Clone, Debug)]
pub struct CellSpec {
    pub protocol: ProtocolKind,
    pub adversary: AdversaryKind,
    /// Connectivity topology (default: the paper's single-hop model).
    pub topology: TopologyKind,
    /// Declarative world schedule (nemesis events) every trial of the cell
    /// runs under; empty = the unscheduled engine path.
    pub schedule: ScheduleSpec,
    /// Engine slot cap for this cell's trials.
    pub max_slots: u64,
}

impl CellSpec {
    pub fn new(protocol: ProtocolKind, adversary: AdversaryKind) -> Self {
        Self {
            protocol,
            adversary,
            topology: TopologyKind::Complete,
            schedule: ScheduleSpec::new(),
            // Generous but finite: a stuck cell fails loudly instead of
            // spinning the campaign forever.
            max_slots: 50_000_000,
        }
    }

    pub fn with_max_slots(mut self, cap: u64) -> Self {
        self.max_slots = cap;
        self
    }

    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    pub fn with_schedule(mut self, schedule: ScheduleSpec) -> Self {
        self.schedule = schedule;
        self
    }

    /// One trial of this cell: its protocol, adversary, topology and
    /// schedule at master `seed`, capped at `max_slots` (the cell's own
    /// cap, or a run-wide override).
    pub fn trial_spec(&self, seed: u64, max_slots: u64) -> TrialSpec {
        TrialSpec::new(self.protocol.clone(), self.adversary.clone(), seed)
            .with_topology(self.topology.clone())
            .with_schedule(self.schedule.clone())
            .with_max_slots(max_slots)
    }
}

/// A fully-expanded campaign: what `rcb run <scenario>` executes.
///
/// Registered scenarios come from [`find`]/[`registry`], but a spec can
/// just as well be built by hand and handed to
/// [`run_campaign`](crate::run_campaign):
///
/// ```
/// use rcb_campaign::{run_campaign, CampaignConfig, CampaignSpec, CellSpec};
/// use rcb_harness::{AdversaryKind, ProtocolKind};
///
/// let spec = CampaignSpec {
///     name: "tiny".into(),
///     description: "naive epidemic, no jamming".into(),
///     cells: vec![CellSpec::new(
///         ProtocolKind::Naive { n: 16, act_prob: 1.0 },
///         AdversaryKind::Silent,
///     )
///     .with_max_slots(100_000)],
/// };
/// let cfg = CampaignConfig { trials_per_cell: 4, ..Default::default() };
/// let report = run_campaign(&spec, &cfg);
/// assert_eq!(report.cells.len(), 1);
/// assert_eq!(report.cells[0].completed, 4);
/// ```
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    pub name: String,
    pub description: String,
    pub cells: Vec<CellSpec>,
}

/// A catalog entry: a named scenario and its embedded spec file.
///
/// ```
/// let scenario = rcb_campaign::find("adaptive-grid").expect("registered");
/// let spec = scenario.spec();
/// assert_eq!(spec.name, "adaptive-grid");
/// assert!(spec.cells.len() >= 11, "w x c grid plus threshold cells");
/// ```
#[derive(Clone, Copy)]
pub struct Scenario {
    pub name: &'static str,
    pub summary: &'static str,
    /// The text of `scenarios/<name>.toml`.
    toml: &'static str,
}

impl Scenario {
    /// Expand the scenario: parse its embedded spec file.
    ///
    /// # Panics
    /// Panics if the embedded file is malformed, which the catalog's tests
    /// (`tests/catalog_files.rs`) rule out for every entry.
    pub fn spec(&self) -> CampaignSpec {
        let path = format!("crates/campaign/scenarios/{}.toml", self.name);
        parse_spec(self.toml, &path).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The catalog, in `rcb list` order: each `name: summary` line embeds
/// `scenarios/<name>.toml`.
macro_rules! catalog {
    ($($name:literal: $summary:literal,)*) => {
        [$(Scenario {
            name: $name,
            summary: $summary,
            toml: include_str!(concat!("../scenarios/", $name, ".toml")),
        },)*]
    };
}

const CATALOG: [Scenario; 14] = catalog! {
    "core-repro": "MultiCastCore time/cost grid over n and T (Theorem 4.4 shape)",
    "budget-sweep": "MultiCast vs a T ladder at fixed n (the O(T/n) slope, Theorem 5.4)",
    "unknown-n": "MultiCastAdv (knows nothing) vs uniform and burst jamming",
    "limited-channels": "MultiCast(C) channel-count sweep at fixed n (Corollary 7.1)",
    "adaptive-proxy":
        "Reactive and hotspot (execution-observing) jammers vs MultiCast (Section 8)",
    "adaptive-grid":
        "Reactive-family grid: reactivity window x channel cap (arXiv:2001.03936)",
    "gilbert-elliott":
        "Bursty environmental noise (Gilbert-Elliott) vs MultiCast and the epidemic",
    "sweep-jammer": "Sweeping-window interference at several widths vs MultiCast",
    "epidemic-race": "Baseline race: naive epidemic vs Decay vs MultiCast vs single-channel",
    "scaling-ladder": "MultiCast across an n ladder with T proportional to n",
    "adv-late-epoch":
        "MultiCastAdv driven deep into sparse late epochs (idle fast-forward stress)",
    "multi-hop":
        "MultiHopCast over line/grid/geometric/dynamic topologies, with and without jamming",
    "multi-message":
        "MultiMessageCast k-payload ladder, jammed and over a grid (arXiv:1610.02931)",
    "nemesis":
        "World-schedule fault injection: jammer swaps, partition/heal, crashes, lossy links",
};

/// Every registered scenario, in catalog order.
pub fn registry() -> Vec<Scenario> {
    CATALOG.to_vec()
}

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<Scenario> {
    CATALOG.iter().find(|s| s.name == name).copied()
}

/// Render a campaign spec for `rcb describe`: the header plus one line per
/// cell with **full** protocol, adversary, and topology parameters (the
/// schema-v2 fields — topology generator knobs, adaptive-jammer windows and
/// thresholds — included, not just the short names). Columns are sized to
/// the widest cell so the table stays aligned for any scenario.
///
/// ```
/// let s = rcb_campaign::find("adaptive-grid").expect("registered");
/// let text = rcb_campaign::describe_campaign(&s.spec(), s.summary);
/// assert!(text.contains("reactive-window{T=20000, w=1, cap=2, threshold=1}"));
/// assert!(text.contains("on complete"));
/// ```
pub fn describe_campaign(spec: &CampaignSpec, summary: &str) -> String {
    let rows: Vec<(String, String, String)> = spec
        .cells
        .iter()
        .map(|c| {
            (
                c.protocol.detail(),
                c.adversary.detail(),
                c.topology.detail(),
            )
        })
        .collect();
    let w_proto = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let w_adv = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let w_topo = rows.iter().map(|r| r.2.len()).max().unwrap_or(0);
    let mut out = format!(
        "# {} — {}\n\n{}\n\n{} cells:\n",
        spec.name,
        summary,
        spec.description,
        spec.cells.len()
    );
    for (i, (cell, (proto, adv, topo))) in spec.cells.iter().zip(&rows).enumerate() {
        // The schedule column appears only on scheduled cells, so every
        // pre-nemesis scenario renders byte-identically to schema v3.
        let sched = if cell.schedule.is_empty() {
            String::new()
        } else {
            format!(
                "  sched = {} ({})",
                cell.schedule.summary(),
                cell.schedule.detail()
            )
        };
        out.push_str(&format!(
            "  [{i:>2}] {proto:<w_proto$} vs {adv:<w_adv$} on {topo:<w_topo$} cap = {}{sched}\n",
            cell.max_slots
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_sim::WorldEvent;

    #[test]
    fn registry_has_at_least_eight_unique_scenarios() {
        let reg = registry();
        assert!(reg.len() >= 8, "only {} scenarios", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
    }

    #[test]
    fn every_scenario_expands_to_nonempty_cells() {
        for s in registry() {
            let spec = s.spec();
            assert_eq!(spec.name, s.name, "spec name must match catalog name");
            assert!(!spec.cells.is_empty(), "{} has no cells", s.name);
            assert!(!spec.description.is_empty());
            for cell in &spec.cells {
                assert!(cell.max_slots > 0);
                // Budgets must be finite so no campaign can run unbounded.
                assert!(cell.adversary.budget() < u64::MAX / 4);
            }
        }
    }

    #[test]
    fn find_by_name() {
        assert!(find("core-repro").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    /// Golden output for `rcb describe`: the schema-v2 fields — topology
    /// generator parameters and full adversary parameters — must all be
    /// rendered, byte-for-byte stable. `multi-hop` exercises every column
    /// (parameterized protocol, parameterized adversaries, nested dynamic
    /// topology with a computed radius).
    #[test]
    fn describe_golden_output_includes_topology_and_adversary_parameters() {
        let s = find("multi-hop").expect("registered");
        let text = describe_campaign(&s.spec(), s.summary);
        let golden = concat!(
        "# multi-hop — MultiHopCast over line/grid/geometric/dynamic topologies, with and without jamming\n",
        "\n",
        "MultiHopCast (informed nodes relay with the sender schedule, p = 0.25) over a topology family: lines of diameter 31/63, an 8x8 grid, per-trial random geometric graphs at a connectivity-safe radius, and a dynamic variant with 30% per-round edge churn. Completion means every node reachable from the source is informed (Ahmadi-Kuhn dynamic-network reference model).\n",
        "\n",
        "5 cells:\n",
        "  [ 0] MultiHopCast{n=32, channels=8, p=0.25}  vs silent                     on line                                                      cap = 20000000\n",
        "  [ 1] MultiHopCast{n=64, channels=8, p=0.25}  vs uniform{T=20000, frac=0.5} on line                                                      cap = 20000000\n",
        "  [ 2] MultiHopCast{n=64, channels=8, p=0.25}  vs uniform{T=20000, frac=0.5} on grid{cols=8}                                              cap = 20000000\n",
        "  [ 3] MultiHopCast{n=64, channels=16, p=0.25} vs silent                     on random-geometric{radius=0.4415}                           cap = 20000000\n",
        "  [ 4] MultiHopCast{n=64, channels=16, p=0.25} vs burst{T=30000, start=0}    on dynamic{base=random-geometric{radius=0.4415}, p_down=0.3} cap = 20000000\n",
        );
        assert_eq!(text, golden);
    }

    /// Every scenario's describe output must carry full adversary detail
    /// (not just short names) and a topology column.
    #[test]
    fn describe_covers_every_scenario() {
        for s in registry() {
            let spec = s.spec();
            let text = describe_campaign(&spec, s.summary);
            assert!(text.starts_with(&format!("# {} — ", s.name)));
            for cell in &spec.cells {
                assert!(
                    text.contains(&cell.adversary.detail()),
                    "{}: missing adversary detail {}",
                    s.name,
                    cell.adversary.detail()
                );
                assert!(
                    text.contains(&format!("on {}", cell.topology.detail())),
                    "{}: missing topology detail",
                    s.name
                );
            }
        }
    }

    #[test]
    fn adaptive_grid_covers_the_reactivity_plane() {
        let spec = find("adaptive-grid").expect("registered").spec();
        assert!(spec.cells.len() >= 11, "3x3 grid + threshold cells");
        let mut windows = std::collections::BTreeSet::new();
        let mut caps = std::collections::BTreeSet::new();
        let mut thresholds = std::collections::BTreeSet::new();
        for cell in &spec.cells {
            assert!(cell.adversary.is_adaptive(), "grid cells must be adaptive");
            let AdversaryKind::ReactiveWindow {
                window,
                max_channels,
                threshold,
                ..
            } = cell.adversary
            else {
                panic!("adaptive-grid must sweep the reactive family");
            };
            windows.insert(window);
            caps.insert(max_channels);
            thresholds.insert(threshold);
        }
        assert!(windows.len() >= 3, "window axis: {windows:?}");
        assert!(caps.len() >= 3, "cap axis: {caps:?}");
        assert!(
            thresholds.iter().any(|&t| t > 1),
            "a trigger-threshold cell must be present: {thresholds:?}"
        );
    }

    #[test]
    fn multi_message_covers_the_k_axis() {
        let spec = find("multi-message").expect("registered").spec();
        assert!(spec.cells.len() >= 7, "k ladder + jammed + grid cells");
        let mut ks = std::collections::BTreeSet::new();
        for cell in &spec.cells {
            let ProtocolKind::MultiMessage { k, .. } = cell.protocol else {
                panic!("multi-message must run MultiMessageCast");
            };
            ks.insert(k);
            assert!(cell.protocol.never_halts());
        }
        assert!(ks.len() >= 4, "k axis too small: {ks:?}");
        assert!(
            spec.cells.iter().any(|c| c.adversary.budget() > 0),
            "a jammed cell must be present"
        );
        assert!(
            spec.cells.iter().any(|c| !c.topology.is_complete()),
            "a multi-hop cell must be present"
        );
    }

    #[test]
    fn multi_hop_covers_the_topology_family() {
        let spec = find("multi-hop").expect("registered").spec();
        assert!(spec.cells.len() >= 5);
        let mut topologies: Vec<&str> = spec.cells.iter().map(|c| c.topology.name()).collect();
        topologies.sort_unstable();
        topologies.dedup();
        assert!(topologies.contains(&"line"));
        assert!(topologies.contains(&"grid"));
        assert!(topologies.contains(&"random-geometric"));
        assert!(topologies.contains(&"dynamic"));
        assert!(
            spec.cells.iter().all(|c| c.protocol.never_halts()),
            "multi-hop cells must run under stop_when_all_informed"
        );
        // Every other scenario stays on the single-hop default (except
        // multi-message, whose grid cell demonstrates the unified core, and
        // nemesis, whose partition/lossy-link cells need real graphs).
        for s in registry() {
            if s.name != "multi-hop" && s.name != "multi-message" && s.name != "nemesis" {
                assert!(s.spec().cells.iter().all(|c| c.topology.is_complete()));
            }
        }
    }

    /// Golden output for the schema-v4 schedule column: scheduled cells
    /// render `sched = <summary> (<detail>)` after the cap, unscheduled
    /// cells stay byte-identical to the v3 rendering (the multi-hop golden
    /// test above pins that).
    #[test]
    fn describe_golden_output_includes_schedule_column() {
        let s = find("nemesis").expect("registered");
        let spec = s.spec();
        let text = describe_campaign(&spec, s.summary);
        assert!(text.starts_with("# nemesis — World-schedule fault injection"));
        assert!(text.contains("9 cells:\n"));
        // One full golden row per sub-family.
        assert!(
            text.contains("cap = 50000000  sched = 1 event @ 4096 (swap-eve@4096)\n"),
            "jammer-swap row missing schedule column:\n{text}"
        );
        assert!(
            text.contains(
                "cap = 20000000  sched = 2 events @ 64..4096 (partition@64, heal@4096)\n"
            ),
            "partition row missing schedule column:\n{text}"
        );
        assert!(
            text.contains("cap = 50000000  sched = 1 event @ 64 (crash@64)\n"),
            "crash row missing schedule column:\n{text}"
        );
        assert!(
            text.contains("cap = 20000000  sched = 1 event @ 0 (set-link-loss@0)\n"),
            "lossy-link row missing schedule column:\n{text}"
        );
        // Unscheduled scenarios must not grow the column.
        let mh = find("multi-hop").expect("registered");
        assert!(!describe_campaign(&mh.spec(), mh.summary).contains("sched ="));
    }

    #[test]
    fn nemesis_covers_every_event_family() {
        let spec = find("nemesis").expect("registered").spec();
        assert!(spec.cells.len() >= 9, "four sub-families");
        assert!(spec.cells.iter().all(|c| !c.schedule.is_empty()));
        let kinds: std::collections::BTreeSet<&str> = spec
            .cells
            .iter()
            .flat_map(|c| c.schedule.events.iter().map(|(_, e)| e.kind()))
            .collect();
        for kind in ["swap-eve", "partition", "heal", "crash", "set-link-loss"] {
            assert!(kinds.contains(kind), "missing event family {kind}");
        }
        // The crash sweep covers several f values.
        let crash_sizes: std::collections::BTreeSet<usize> = spec
            .cells
            .iter()
            .flat_map(|c| c.schedule.events.iter())
            .filter_map(|(_, e)| match e {
                WorldEvent::CrashNodes { nodes } => Some(nodes.len()),
                _ => None,
            })
            .collect();
        assert!(crash_sizes.len() >= 3, "crash-f sweep: {crash_sizes:?}");
    }
}
