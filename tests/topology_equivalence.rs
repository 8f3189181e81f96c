//! Topology equivalence: `Topology::Complete` must leave the engine
//! **byte-identical** to the topology-free path.
//!
//! This is the design constraint that lets the multi-hop layer coexist with
//! the single-hop reproduction and the committed BENCH trajectory: the
//! topology-aware delivery step, with the complete graph, must make exactly
//! the same RNG draws and produce exactly the same traces (including idle
//! fast-forward spans) and metrics as the pre-topology engine.
//!
//! Three layers:
//!
//! * A full-trace matrix over the five paper protocols (plus the new
//!   `MultiHopCast` relay variant) × three adversaries × three seeds: a
//!   topology-free `Simulation` vs one with `.topology(Complete)` mounted
//!   must agree on every observer event — per-slot stats, idle spans,
//!   informed/halted/boundary — and on the final [`RunOutcome`], field for
//!   field.
//! * A campaign-artifact check: a cell pinned to `TopologyKind::Complete`
//!   produces byte-identical schema-versioned JSON to the default
//!   (topology-free) cell.
//! * Multi-hop campaign determinism: the `multi-hop` scenario's artifact is
//!   byte-identical at any thread count (the `rcb run` guarantee).

use rcb::adversary::{FullBandBurst, RandomSubset, UniformFraction};
use rcb::core::{MultiCast, MultiCastAdv, MultiCastC, MultiCastCore, MultiHopCast};
use rcb::sim::{
    Adversary, EngineConfig, Observer, Protocol, RunOutcome, Simulation, SlotProfile, SlotStats,
    Topology,
};

/// Every observable engine event, recorded verbatim.
#[derive(Clone, Debug, PartialEq)]
enum Ev {
    Informed(u32, u64),
    Halted(u32, u64),
    Boundary(u64, u32, u32, u8, u32, u32),
    Slot(u64, SlotStats),
    IdleSpan(u64, u64, u64),
}

#[derive(Default)]
struct FullTrace {
    events: Vec<Ev>,
}

impl Observer for FullTrace {
    fn on_informed(&mut self, node: u32, slot: u64) {
        self.events.push(Ev::Informed(node, slot));
    }
    fn on_halted(&mut self, node: u32, slot: u64) {
        self.events.push(Ev::Halted(node, slot));
    }
    fn on_boundary(&mut self, slot: u64, profile: &SlotProfile, active: u32, informed: u32) {
        self.events.push(Ev::Boundary(
            slot,
            profile.seg_major,
            profile.seg_minor,
            profile.step,
            active,
            informed,
        ));
    }
    fn on_slot(&mut self, slot: u64, stats: &SlotStats) {
        self.events.push(Ev::Slot(slot, *stats));
    }
    fn on_idle_span(&mut self, slot: u64, len: u64, jammed: u64) {
        self.events.push(Ev::IdleSpan(slot, len, jammed));
    }
}

const PROTOS: [&str; 6] = [
    "MultiCastCore",
    "MultiCast",
    "MultiCast(C)",
    "MultiCastAdv",
    "MultiCastAdv(C)",
    "MultiHopCast",
];
const ADVS: [&str; 3] = ["uniform-fraction", "full-band-burst", "random-subset"];

/// Run protocol/adversary combination `(proto, adv)` at `seed`, either on
/// the topology-free path or over an explicit `Topology::Complete`,
/// capturing the full event trace.
fn run_combo(proto: usize, adv: usize, seed: u64, complete_topo: bool) -> (RunOutcome, Vec<Ev>) {
    let cfg = EngineConfig::capped(40_000);
    let t = 20_000u64;
    let mut adversary: Box<dyn Adversary> = match adv {
        0 => Box::new(UniformFraction::new(t, 0.6, seed + 100)),
        1 => Box::new(FullBandBurst::new(t, 500)),
        2 => Box::new(RandomSubset::new(t, 3, seed + 102)),
        _ => unreachable!(),
    };
    let mut trace = FullTrace::default();
    fn go<P: Protocol>(
        mut p: P,
        a: &mut dyn Adversary,
        seed: u64,
        cfg: &EngineConfig,
        complete_topo: bool,
        obs: &mut FullTrace,
    ) -> RunOutcome {
        if complete_topo {
            Simulation::new(&mut p)
                .adversary(a)
                .topology(&Topology::Complete)
                .config(*(cfg))
                .observer(obs)
                .run(seed)
        } else {
            Simulation::new(&mut p)
                .adversary(a)
                .config(*(cfg))
                .observer(obs)
                .run(seed)
        }
    }
    let n = 16u64;
    let a = adversary.as_mut();
    let out = match proto {
        0 => go(
            MultiCastCore::new(n, t),
            a,
            seed,
            &cfg,
            complete_topo,
            &mut trace,
        ),
        1 => go(MultiCast::new(n), a, seed, &cfg, complete_topo, &mut trace),
        2 => go(
            MultiCastC::new(n, 4),
            a,
            seed,
            &cfg,
            complete_topo,
            &mut trace,
        ),
        3 => go(
            MultiCastAdv::new(n),
            a,
            seed,
            &cfg,
            complete_topo,
            &mut trace,
        ),
        4 => go(
            MultiCastAdv::with_channel_cap(n, 4, Default::default()),
            a,
            seed,
            &cfg,
            complete_topo,
            &mut trace,
        ),
        5 => go(
            MultiHopCast::new(n),
            a,
            seed,
            &cfg,
            complete_topo,
            &mut trace,
        ),
        _ => unreachable!(),
    };
    (out, trace.events)
}

/// The acceptance matrix: protocols × adversaries × seeds; the complete
/// topology must match the topology-free engine on every event and every
/// outcome field.
#[test]
fn complete_topology_trace_equals_single_hop_engine() {
    for (pi, pname) in PROTOS.iter().enumerate() {
        for (ai, aname) in ADVS.iter().enumerate() {
            for seed in [11u64, 22, 33] {
                let (out_single, trace_single) = run_combo(pi, ai, seed, false);
                let (out_topo, trace_topo) = run_combo(pi, ai, seed, true);
                assert_eq!(
                    out_single, out_topo,
                    "{pname} vs {aname} seed {seed}: outcome diverged under Complete topology"
                );
                assert_eq!(
                    trace_single.len(),
                    trace_topo.len(),
                    "{pname} vs {aname} seed {seed}: trace lengths diverged"
                );
                for (k, (a, b)) in trace_single.iter().zip(&trace_topo).enumerate() {
                    assert_eq!(
                        a, b,
                        "{pname} vs {aname} seed {seed}: trace event {k} diverged"
                    );
                }
            }
        }
    }
}

/// Fast-forward spans survive the topology layer: the complete-topology
/// run must fast-forward exactly the same idle spans (the runs above
/// compare them too, but this pins a sparse workload where spans dominate).
#[test]
fn complete_topology_preserves_fast_forward_spans() {
    let spans_of = |complete_topo: bool| {
        let mut proto = MultiCast::new(16);
        let mut eve = UniformFraction::new(400_000, 0.9, 7);
        let mut trace = FullTrace::default();
        let cfg = EngineConfig::default();
        let out = if complete_topo {
            Simulation::new(&mut proto)
                .adversary(&mut eve)
                .topology(&Topology::Complete)
                .config(cfg)
                .observer(&mut trace)
                .run(3)
        } else {
            Simulation::new(&mut proto)
                .adversary(&mut eve)
                .config(cfg)
                .observer(&mut trace)
                .run(3)
        };
        let spans: Vec<Ev> = trace
            .events
            .into_iter()
            .filter(|e| matches!(e, Ev::IdleSpan(..)))
            .collect();
        (out, spans)
    };
    let (out_single, spans_single) = spans_of(false);
    let (out_topo, spans_topo) = spans_of(true);
    assert!(
        !spans_single.is_empty(),
        "the late-iteration workload must fast-forward"
    );
    assert_eq!(spans_single, spans_topo, "idle spans diverged");
    assert_eq!(out_single, out_topo);
}

/// Campaign artifacts: pinning a cell to `TopologyKind::Complete` yields
/// byte-identical JSON to the default topology-free cell.
#[test]
fn complete_topology_campaign_artifact_is_byte_identical() {
    use rcb::campaign::{run_campaign, CampaignConfig, CampaignSpec, CellSpec};
    use rcb::harness::{AdversaryKind, ProtocolKind, TopologyKind};

    let cell = || {
        CellSpec::new(
            ProtocolKind::MultiCast {
                n: 16,
                params: Default::default(),
            },
            AdversaryKind::Uniform {
                t: 5_000,
                frac: 0.5,
            },
        )
        .with_max_slots(5_000_000)
    };
    let spec = |explicit: bool| CampaignSpec {
        name: "equiv".into(),
        description: "complete-topology equivalence".into(),
        cells: vec![if explicit {
            cell().with_topology(TopologyKind::Complete)
        } else {
            cell()
        }],
    };
    let cfg = CampaignConfig {
        seed: 99,
        trials_per_cell: 6,
        threads: 2,
        ..Default::default()
    };
    assert_eq!(
        run_campaign(&spec(false), &cfg).to_json(),
        run_campaign(&spec(true), &cfg).to_json(),
        "explicit Complete topology changed the campaign artifact"
    );
}

/// The `multi-hop` scenario artifact is deterministic at any thread count
/// (the acceptance guarantee behind `rcb run multi-hop --out …`).
#[test]
fn multi_hop_campaign_is_thread_deterministic() {
    use rcb::campaign::{find, run_campaign, CampaignConfig};

    let scenario = find("multi-hop").expect("multi-hop scenario registered");
    let spec = scenario.spec();
    let json_at = |threads: usize| {
        run_campaign(
            &spec,
            &CampaignConfig {
                seed: 41,
                trials_per_cell: 3,
                threads,
                max_slots: Some(2_000_000),
                ..Default::default()
            },
        )
        .to_json()
    };
    let reference = json_at(1);
    assert!(reference.contains("\"schema_version\": 5"));
    assert!(reference.contains("\"topology\": \"line\""));
    assert!(reference.contains("\"topology\": \"dynamic\""));
    assert_eq!(reference, json_at(4), "1 vs 4 threads");
}
