//! `MultiHopCast`: the relay-capable broadcast variant for multi-hop
//! topologies.
//!
//! The paper's protocols assume a single-hop network: one successful
//! transmission can inform any listener. Over a connectivity graph
//! (`rcb_sim::Topology`) the message must instead *propagate*, so every
//! informed node — not just the source — re-runs the sender schedule:
//!
//! * with probability `p` a node draws the **listen** coin; uninformed
//!   nodes listen on a uniformly random channel (informed nodes stay idle);
//! * with probability `p` a node draws the **broadcast** coin; informed
//!   nodes broadcast `m` on a uniformly random channel (uninformed nodes
//!   stay idle).
//!
//! This is exactly the per-slot behaviour of `MultiCast` (Figure 2) with a
//! fixed action probability instead of the geometrically decaying `p_i` —
//! the decay exists to price Eve out over a *single* hop and would starve
//! a deep topology (a diameter-`D` line needs `Θ(D)` successful
//! rendezvous, each costing `Θ(C/p²)` expected slots).
//!
//! `MultiHopCast` has **no termination detection** (distributed multi-hop
//! halting without knowing the topology is follow-up work; see ROADMAP):
//! run it with `stop_when_all_informed`, under which the engine stops once
//! every node *reachable* from the source is informed.

use rcb_sim::{
    Action, BoundaryDecision, Coin, Feedback, Payload, Protocol, ProtocolNode, SlotProfile,
    Xoshiro256,
};

/// The relay-capable multi-hop broadcast protocol (schedule side).
#[derive(Clone, Debug)]
pub struct MultiHopCast {
    n: u64,
    channels: u64,
    p: f64,
}

impl MultiHopCast {
    /// `n` nodes (a power of two ≥ 4) on `n/2` channels with the default
    /// action probability.
    pub fn new(n: u64) -> Self {
        Self::with_config(n, n / 2, 0.25)
    }

    /// Fully configurable: `channels ≥ 1` physical channels and per-slot
    /// action probability `p ∈ (0, 0.5]` (each coin class gets `p`).
    pub fn with_config(n: u64, channels: u64, p: f64) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "n must be a power of two >= 4, got {n}"
        );
        assert!(channels >= 1, "need at least one channel");
        assert!(p > 0.0 && p <= 0.5, "p must be in (0, 0.5], got {p}");
        Self { n, channels, p }
    }
}

impl Protocol for MultiHopCast {
    type Node = MultiHopNode;

    fn num_nodes(&self) -> u32 {
        self.n as u32
    }

    fn segment(&mut self, _start_slot: u64) -> SlotProfile {
        SlotProfile {
            p1: self.p,
            p2: self.p,
            channels: self.channels,
            virt_channels: self.channels,
            round_len: 1,
            // One giant segment: there are no boundary checks to run.
            seg_len: 1 << 50,
            seg_major: 0,
            seg_minor: 0,
            step: 0,
        }
    }

    fn make_node(&self, _id: u32, is_source: bool) -> MultiHopNode {
        MultiHopNode {
            informed: is_source,
        }
    }
}

/// Node state: informed nodes are relay sources, nothing else to track.
#[derive(Clone, Debug)]
pub struct MultiHopNode {
    informed: bool,
}

impl ProtocolNode for MultiHopNode {
    #[inline]
    fn on_selected(&mut self, profile: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
        let ch = rng.gen_range(profile.virt_channels);
        match coin {
            Coin::One if !self.informed => Action::Listen { ch },
            Coin::Two if self.informed => Action::Broadcast {
                ch,
                payload: Payload::Data,
            },
            _ => Action::Idle,
        }
    }

    #[inline]
    fn on_feedback(&mut self, _profile: &SlotProfile, fb: Feedback) {
        if fb == Feedback::Message(Payload::Data) {
            self.informed = true;
        }
    }

    fn on_boundary(&mut self, _profile: &SlotProfile) -> BoundaryDecision {
        BoundaryDecision::Continue
    }

    #[inline]
    fn is_informed(&self) -> bool {
        self.informed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::UniformFraction;
    use rcb_sim::{EngineConfig, Simulation, Topology};

    fn informed_cfg() -> EngineConfig {
        EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(5_000_000)
        }
    }

    #[test]
    fn single_hop_completes_like_an_epidemic() {
        let mut proto = MultiHopCast::new(32);
        let out = Simulation::new(&mut proto).config(informed_cfg()).run(1);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.safety_violations(), 0);
    }

    #[test]
    fn relays_carry_the_message_down_a_line() {
        let mut proto = MultiHopCast::with_config(16, 4, 0.25);
        let out = Simulation::new(&mut proto)
            .topology(&Topology::Line)
            .config(informed_cfg())
            .run(2);
        assert!(out.all_informed, "{out:?}");
        // Every non-source node was informed strictly after the source, and
        // someone beyond the source's only neighbor got informed — i.e. a
        // relay (not the source) delivered at least one hop.
        let far_informed = out.nodes[2..].iter().any(|n| n.informed_at.is_some());
        assert!(far_informed);
    }

    #[test]
    fn line_time_grows_with_diameter() {
        let time = |n: u64| {
            let mut slots = 0u64;
            for seed in 0..5 {
                let mut proto = MultiHopCast::with_config(n, 4, 0.25);
                let out = Simulation::new(&mut proto)
                    .topology(&Topology::Line)
                    .config(informed_cfg())
                    .run(100 + seed);
                assert!(out.all_informed);
                slots += out.slots;
            }
            slots
        };
        assert!(
            time(32) > time(8),
            "a 4x deeper line must take longer to flood"
        );
    }

    #[test]
    fn survives_jamming_on_a_grid() {
        let mut proto = MultiHopCast::with_config(16, 8, 0.25);
        let mut eve = UniformFraction::new(5_000, 0.5, 3);
        let out = Simulation::new(&mut proto)
            .adversary(&mut eve)
            .topology(&Topology::Grid { cols: 4 })
            .config(informed_cfg())
            .run(4);
        assert!(out.all_informed, "{out:?}");
        assert!(out.eve_spent > 0);
    }

    #[test]
    fn never_halts() {
        let mut proto = MultiHopCast::new(16);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(500))
            .run(5);
        assert!(!out.all_halted);
        assert!(out.nodes.iter().all(|n| n.halted_at.is_none()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        MultiHopCast::new(12);
    }
}
