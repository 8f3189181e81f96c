//! The classical `Decay` broadcast primitive as a non-robust control.

use rcb_sim::{
    Action, BoundaryDecision, Coin, Feedback, Payload, Protocol, ProtocolNode, SlotProfile,
    Xoshiro256,
};

/// `Decay` (Bar-Yehuda, Goldreich & Itai, 1992), specialised to a single-hop
/// single-channel network: time is divided into rounds of `lg n` slots; in
/// slot `k` of a round each informed node broadcasts with probability
/// `2^{−k}` while every uninformed node listens.
///
/// In the jamming-free single-hop setting this informs everyone almost
/// immediately (the very first slot has a lone broadcaster — the source).
/// Its role here is as the **energy-naive control** in experiments E6/E12:
/// it has no noise-based termination, so under jamming its uninformed
/// listeners burn one energy unit per slot — `Θ(T)` per node against a
/// budget-`T` adversary, the behaviour resource-competitive algorithms are
/// designed to avoid. Like `NaiveEpidemic` it never halts; run it with
/// [`EngineConfig::stop_when_all_informed`](rcb_sim::EngineConfig).
#[derive(Clone, Debug)]
pub struct Decay {
    n: u64,
    round: u32,
}

impl Decay {
    pub fn new(n: u64) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "n must be a power of two >= 4, got {n}"
        );
        Self { n, round: 0 }
    }

    fn lg_n(&self) -> u32 {
        self.n.trailing_zeros()
    }
}

impl Protocol for Decay {
    type Node = DecayNode;

    fn num_nodes(&self) -> u32 {
        self.n as u32
    }

    fn segment(&mut self, _start_slot: u64) -> SlotProfile {
        // Each *slot* is its own segment so that the per-slot broadcast
        // probability 2^{−k} can vary; `seg_minor` carries `k`.
        let k = self.round % self.lg_n();
        self.round += 1;
        SlotProfile {
            // Everyone is selected every slot; the decaying broadcast
            // probability is applied inside the node (it depends on the
            // node's informed status, which the engine does not see).
            p1: 1.0,
            p2: 0.0,
            channels: 1,
            virt_channels: 1,
            round_len: 1,
            seg_len: 1,
            seg_major: self.round - 1,
            seg_minor: k,
            step: 0,
        }
    }

    fn make_node(&self, _id: u32, is_source: bool) -> DecayNode {
        DecayNode {
            informed: is_source,
        }
    }
}

/// Node state for `Decay`.
#[derive(Clone, Debug)]
pub struct DecayNode {
    informed: bool,
}

impl ProtocolNode for DecayNode {
    #[inline]
    fn on_selected(&mut self, profile: &SlotProfile, _coin: Coin, rng: &mut Xoshiro256) -> Action {
        if self.informed {
            let p = 0.5f64.powi(profile.seg_minor as i32);
            if rng.gen_bool(p) {
                Action::Broadcast {
                    ch: 0,
                    payload: Payload::Data,
                }
            } else {
                Action::Idle
            }
        } else {
            Action::Listen { ch: 0 }
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
    use rcb_adversary::FullBandBurst;
    use rcb_sim::{EngineConfig, Simulation};

    fn informed_cfg(cap: u64) -> EngineConfig {
        EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(cap)
        }
    }

    #[test]
    fn informs_everyone_in_the_first_slot_without_jamming() {
        // Slot 0 has broadcast probability 2^0 = 1 and a single informed
        // node — a clean transmission to all listeners.
        let mut proto = Decay::new(16);
        let out = Simulation::new(&mut proto)
            .config(informed_cfg(10_000))
            .run(1);
        assert!(out.all_informed);
        assert_eq!(out.slots, 1);
    }

    #[test]
    fn jamming_makes_listeners_pay_linearly() {
        // The resource-competitiveness failure mode: Eve jams the single
        // channel for T slots; every uninformed node listens (and pays)
        // every one of those slots.
        let t = 5_000u64;
        let mut proto = Decay::new(16);
        let mut eve = FullBandBurst::front_loaded(t);
        let out = Simulation::new(&mut proto)
            .adversary(&mut eve)
            .config(informed_cfg(100_000))
            .run(2);
        assert!(out.all_informed);
        assert!(out.slots >= t, "broadcast blocked until Eve is bankrupt");
        let max_uninformed_cost = out
            .nodes
            .iter()
            .filter(|n| n.id != 0)
            .map(|n| n.cost())
            .max()
            .unwrap();
        assert!(
            max_uninformed_cost >= t,
            "listeners pay Θ(T): cost {max_uninformed_cost} vs T = {t}"
        );
    }

    #[test]
    fn broadcast_probability_decays_within_round() {
        let mut proto = Decay::new(16);
        let profiles: Vec<SlotProfile> = (0..8).map(|s| proto.segment(s)).collect();
        let ks: Vec<u32> = profiles.iter().map(|p| p.seg_minor).collect();
        assert_eq!(ks, vec![0, 1, 2, 3, 0, 1, 2, 3], "k cycles over lg n = 4");
    }
}
