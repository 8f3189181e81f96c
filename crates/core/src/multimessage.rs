//! `MultiMessageCast`: `k` concurrent payloads through one broadcast
//! schedule — the multi-message broadcast model of Ahmadi & Kuhn
//! (arXiv:1610.02931), single-source variant.
//!
//! The source starts holding all `k` messages; every other node must learn
//! all of them. Per slot the behaviour is the relay schedule of
//! [`MultiHopCast`](crate::MultiHopCast) with **payload multiplexing**:
//!
//! * with probability `p` a node draws the **listen** coin; nodes still
//!   missing at least one message listen on a uniformly random channel
//!   (complete nodes stay idle);
//! * with probability `p` a node draws the **broadcast** coin; nodes
//!   holding at least one message broadcast a *uniformly random message
//!   they know* ([`Payload::Msg`]) on a uniformly random channel.
//!
//! Because any partial holder relays whatever it knows, the protocol works
//! unchanged over multi-hop topologies, and distinct messages spread
//! concurrently through the same slots — the engine's per-message tracking
//! ([`rcb_sim::RunOutcome::messages`], via
//! [`ProtocolNode::informed_mask`]) records each message's own completion
//! slot. This is the first protocol written once against the unified
//! `Simulation` core rather than per engine entry point.
//!
//! Like `MultiHopCast` there is **no termination detection**: run with
//! `stop_when_all_informed`, under which the engine stops once every
//! reachable node holds all `k` messages.

use rcb_sim::{
    Action, BoundaryDecision, Coin, Feedback, Payload, Protocol, ProtocolNode, SlotProfile,
    Xoshiro256,
};

/// The multi-message broadcast protocol (schedule side).
#[derive(Clone, Debug)]
pub struct MultiMessageCast {
    n: u64,
    k: u32,
    channels: u64,
    p: f64,
}

impl MultiMessageCast {
    /// `n` nodes (a power of two ≥ 4) carrying `k` concurrent messages on
    /// `n/2` channels with the default action probability.
    pub fn new(n: u64, k: u32) -> Self {
        Self::with_config(n, k, n / 2, 0.25)
    }

    /// Fully configurable: `k ∈ 1..=64` messages, `channels ≥ 1` physical
    /// channels, per-slot action probability `p ∈ (0, 0.5]` per coin class.
    pub fn with_config(n: u64, k: u32, channels: u64, p: f64) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "n must be a power of two >= 4, got {n}"
        );
        assert!((1..=64).contains(&k), "k must be in 1..=64, got {k}");
        assert!(channels >= 1, "need at least one channel");
        assert!(p > 0.0 && p <= 0.5, "p must be in (0, 0.5], got {p}");
        Self { n, k, channels, p }
    }

    /// Bitmask with one bit per message.
    fn full_mask(&self) -> u64 {
        if self.k == 64 {
            u64::MAX
        } else {
            (1u64 << self.k) - 1
        }
    }
}

impl Protocol for MultiMessageCast {
    type Node = MultiMessageNode;

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

    fn make_node(&self, _id: u32, is_source: bool) -> MultiMessageNode {
        MultiMessageNode {
            mask: if is_source { self.full_mask() } else { 0 },
            full: self.full_mask(),
        }
    }

    fn num_messages(&self) -> u32 {
        self.k
    }
}

/// Node state: which messages this node holds.
#[derive(Clone, Debug)]
pub struct MultiMessageNode {
    mask: u64,
    full: u64,
}

impl MultiMessageNode {
    /// Pick a uniformly random known message (caller guarantees
    /// `mask != 0`).
    fn random_known(&self, rng: &mut Xoshiro256) -> u16 {
        let idx = rng.gen_range(self.mask.count_ones() as u64);
        let mut bits = self.mask;
        for _ in 0..idx {
            bits &= bits - 1;
        }
        bits.trailing_zeros() as u16
    }
}

impl ProtocolNode for MultiMessageNode {
    #[inline]
    fn on_selected(&mut self, profile: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
        match coin {
            Coin::One if self.mask != self.full => Action::Listen {
                ch: rng.gen_range(profile.virt_channels),
            },
            Coin::Two if self.mask != 0 => {
                let ch = rng.gen_range(profile.virt_channels);
                Action::Broadcast {
                    ch,
                    payload: Payload::Msg(self.random_known(rng)),
                }
            }
            _ => Action::Idle,
        }
    }

    #[inline]
    fn on_feedback(&mut self, _profile: &SlotProfile, fb: Feedback) {
        if let Feedback::Message(Payload::Msg(j)) = fb {
            if u32::from(j) < 64 {
                self.mask |= (1u64 << j) & self.full;
            }
        }
    }

    fn on_boundary(&mut self, _profile: &SlotProfile) -> BoundaryDecision {
        BoundaryDecision::Continue
    }

    #[inline]
    fn is_informed(&self) -> bool {
        self.mask == self.full
    }

    #[inline]
    fn informed_mask(&self) -> u64 {
        self.mask
    }

    fn status_label(&self) -> &'static str {
        if self.mask == self.full {
            "complete"
        } else if self.mask != 0 {
            "partial"
        } else {
            "empty"
        }
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
            ..EngineConfig::capped(10_000_000)
        }
    }

    #[test]
    fn all_messages_reach_everyone() {
        let mut proto = MultiMessageCast::new(16, 4);
        let out = Simulation::new(&mut proto).config(informed_cfg()).run(1);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.safety_violations(), 0);
        assert_eq!(out.messages.len(), 4);
        for m in &out.messages {
            assert_eq!(m.informed_count, 16);
            assert!(m.all_informed_at.is_some());
        }
        // The run ends exactly when the slowest message completes.
        let slowest = out.messages.iter().filter_map(|m| m.all_informed_at).max();
        assert_eq!(slowest, out.all_informed_at);
    }

    #[test]
    fn messages_complete_at_distinct_times() {
        // With 8 messages racing through the same slots, at least two must
        // finish at different slots (they would all tie only with
        // astronomical luck).
        let mut proto = MultiMessageCast::new(16, 8);
        let out = Simulation::new(&mut proto).config(informed_cfg()).run(2);
        assert!(out.all_informed);
        let times: std::collections::BTreeSet<u64> = out
            .messages
            .iter()
            .map(|m| m.all_informed_at.unwrap())
            .collect();
        assert!(times.len() > 1, "all {} messages tied: {times:?}", 8);
    }

    #[test]
    fn more_messages_take_longer() {
        let time = |k: u32| {
            let mut slots = 0u64;
            for seed in 0..5 {
                let mut proto = MultiMessageCast::new(16, k);
                let out = Simulation::new(&mut proto)
                    .config(informed_cfg())
                    .run(100 + seed);
                assert!(out.all_informed);
                slots += out.slots;
            }
            slots
        };
        assert!(
            time(16) > time(1),
            "16 concurrent messages must take longer than one"
        );
    }

    #[test]
    fn survives_jamming() {
        let mut proto = MultiMessageCast::new(16, 4);
        let mut eve = UniformFraction::new(5_000, 0.5, 3);
        let out = Simulation::new(&mut proto)
            .adversary(&mut eve)
            .config(informed_cfg())
            .run(4);
        assert!(out.all_informed, "{out:?}");
        assert!(out.eve_spent > 0);
    }

    #[test]
    fn relays_partial_knowledge_over_a_line() {
        // On a line, message bits must travel hop by hop through partial
        // holders; completion still means everyone holds everything.
        let mut proto = MultiMessageCast::with_config(8, 4, 4, 0.25);
        let out = Simulation::new(&mut proto)
            .topology(&Topology::Line)
            .config(informed_cfg())
            .run(5);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.reachable, 8);
        for m in &out.messages {
            assert_eq!(m.informed_count, 8);
        }
    }

    #[test]
    fn never_halts() {
        let mut proto = MultiMessageCast::new(16, 2);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(500))
            .run(6);
        assert!(!out.all_halted);
        assert!(out.nodes.iter().all(|n| n.halted_at.is_none()));
        for m in &out.messages {
            assert_eq!(m.halted_knowing, 0);
        }
    }

    #[test]
    fn k_one_is_a_valid_degenerate_case() {
        let mut proto = MultiMessageCast::new(16, 1);
        let out = Simulation::new(&mut proto).config(informed_cfg()).run(7);
        assert!(out.all_informed);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].all_informed_at, out.all_informed_at);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=64")]
    fn rejects_k_zero() {
        MultiMessageCast::new(16, 0);
    }

    #[test]
    fn random_known_is_uniform_over_held_bits() {
        let node = MultiMessageNode {
            mask: 0b1010_0010,
            full: 0xff,
        };
        let mut rng = Xoshiro256::seeded(9);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let j = node.random_known(&mut rng);
            assert!(node.mask & (1 << j) != 0, "picked an unheld message {j}");
            seen.insert(j);
        }
        assert_eq!(seen.len(), 3, "all three held messages get picked");
    }
}
