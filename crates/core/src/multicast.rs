//! `MultiCast` (Section 5, Figure 2): resource-competitive broadcast on
//! `n/2` channels, knowing `n` but **not** `T`.
//!
//! The algorithm runs iterations `i = 6, 7, 8, …` of geometrically growing
//! length `R_i = Θ(i·4^i·lg²n)` rounds with geometrically shrinking action
//! probability `p_i = 2^{−i}`. In every slot each node hops to a uniformly
//! random channel in `[0, n/2)`; with probability `p_i` it listens, and with
//! probability `p_i` it broadcasts the message if informed (uninformed nodes
//! stay idle on that coin). At the end of iteration `i` a node halts iff it
//! heard noise in fewer than `R_i·p_i/2` of its listening slots — little
//! noise means little jamming, which means the epidemic broadcast must have
//! succeeded (Lemma 5.1), and fewer active nodes only means *less* collision
//! noise, so Eve cannot cheaply keep survivors awake (Lemma 5.3).
//!
//! Guarantees (Theorem 5.4, w.h.p.): all nodes receive `m` and terminate
//! within `O(T/n + lg²n)` slots, each spending
//! `O(√(T/n)·√(lg T)·lg n + lg²n)` energy.

use crate::params::McParams;
use rcb_sim::{
    Action, BoundaryDecision, Coin, Feedback, NodeExtra, Payload, Protocol, ProtocolNode,
    SlotProfile, Xoshiro256,
};

/// The `MultiCast` protocol (schedule side).
#[derive(Clone, Debug)]
pub struct MultiCast {
    n: u64,
    params: McParams,
    next_iteration: u32,
}

impl MultiCast {
    /// Create for a network of `n` nodes (a power of two ≥ 4), using `n/2`
    /// channels.
    pub fn new(n: u64) -> Self {
        Self::with_params(n, McParams::default())
    }

    pub fn with_params(n: u64, params: McParams) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "n must be a power of two >= 4, got {n}"
        );
        Self {
            n,
            params,
            next_iteration: params.first_iteration,
        }
    }

    /// The iteration length `R_i` in rounds (= slots for this protocol).
    pub fn iteration_rounds(&self, i: u32) -> u64 {
        self.params.rounds(i, self.n)
    }

    /// Slot spans `[start, end)` of the first `count` iterations, for
    /// schedule-targeted adversaries (Eve knows the algorithm).
    pub fn iteration_spans(&self, count: u32) -> Vec<(u64, u64)> {
        let mut spans = Vec::with_capacity(count as usize);
        let mut start = 0u64;
        for k in 0..count {
            let i = self.params.first_iteration + k;
            let len = self.iteration_rounds(i);
            spans.push((start, start + len));
            start += len;
        }
        spans
    }
}

impl Protocol for MultiCast {
    type Node = McNode;

    fn num_nodes(&self) -> u32 {
        self.n as u32
    }

    fn segment(&mut self, _start_slot: u64) -> SlotProfile {
        let i = self.next_iteration;
        self.next_iteration += 1;
        let p = self.params.p(i);
        SlotProfile {
            p1: p,
            p2: p,
            channels: self.n / 2,
            virt_channels: self.n / 2,
            round_len: 1,
            seg_len: self.iteration_rounds(i),
            seg_major: i,
            seg_minor: 0,
            step: 0,
        }
    }

    fn make_node(&self, _id: u32, is_source: bool) -> McNode {
        McNode::new(is_source, self.params.halt_ratio)
    }
}

/// Node state shared by `MultiCastCore`, `MultiCast`, and `MultiCast(C)`:
/// the "count noisy slots, halt when quiet" node of Figures 1, 2 and 5.
///
/// All schedule information (iteration length, action probability, channel
/// count) arrives through the [`SlotProfile`], so the same node state drives
/// all three protocols; thresholds are computed in *rounds*
/// (`profile.rounds()`), which equals slots except under `MultiCast(C)`'s
/// round simulation.
#[derive(Clone, Debug)]
pub struct McNode {
    informed: bool,
    /// Noisy listening slots observed in the current iteration (`N_n`).
    noisy: u64,
    /// Halt iff `noisy < halt_ratio · R_i · p_i` at an iteration boundary.
    halt_ratio: f64,
}

impl McNode {
    pub fn new(is_source: bool, halt_ratio: f64) -> Self {
        Self {
            informed: is_source,
            noisy: 0,
            halt_ratio,
        }
    }

    /// Noisy-slot count within the current iteration (test/diagnostic hook).
    pub fn noisy_count(&self) -> u64 {
        self.noisy
    }
}

impl ProtocolNode for McNode {
    #[inline]
    fn on_selected(&mut self, profile: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
        let ch = rng.gen_range(profile.virt_channels);
        match coin {
            // coin == 1: listen (informed nodes listen too — they keep
            // counting noise to decide termination).
            Coin::One => Action::Listen { ch },
            // coin == 2: broadcast if informed, else stay idle.
            Coin::Two => {
                if self.informed {
                    Action::Broadcast {
                        ch,
                        payload: Payload::Data,
                    }
                } else {
                    Action::Idle
                }
            }
        }
    }

    #[inline]
    fn on_feedback(&mut self, _profile: &SlotProfile, fb: Feedback) {
        match fb {
            Feedback::Noise => self.noisy += 1,
            Feedback::Message(Payload::Data) => self.informed = true,
            _ => {}
        }
    }

    fn on_boundary(&mut self, profile: &SlotProfile) -> BoundaryDecision {
        let threshold = self.halt_ratio * profile.rounds() as f64 * profile.p();
        let decision = if (self.noisy as f64) < threshold {
            BoundaryDecision::Halt
        } else {
            BoundaryDecision::Continue
        };
        self.noisy = 0;
        decision
    }

    #[inline]
    fn is_informed(&self) -> bool {
        self.informed
    }

    fn extra(&self) -> NodeExtra {
        let mut e = NodeExtra::default();
        e.push("informed", if self.informed { 1.0 } else { 0.0 });
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_sim::{EngineConfig, Simulation};

    fn quick_params() -> McParams {
        McParams::default()
    }

    #[test]
    fn completes_and_halts_without_adversary() {
        let mut proto = MultiCast::with_params(64, quick_params());
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(10_000_000))
            .run(1);
        assert!(out.all_informed, "all nodes must learn m");
        assert!(out.all_halted, "all nodes must terminate");
        assert_eq!(out.safety_violations(), 0);
    }

    #[test]
    fn without_jamming_terminates_in_first_iteration() {
        let mut proto = MultiCast::with_params(64, quick_params());
        let r6 = proto.iteration_rounds(6);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(10_000_000))
            .run(2);
        assert_eq!(out.slots, r6, "T = 0 should finish at the first boundary");
    }

    #[test]
    fn cost_without_jamming_is_about_2rp() {
        let mut proto = MultiCast::with_params(64, quick_params());
        let r6 = proto.iteration_rounds(6);
        let expected = 2.0 * r6 as f64 / 64.0; // 2·R·p
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(10_000_000))
            .run(3);
        let mean = out.mean_cost();
        assert!(
            (mean - expected).abs() / expected < 0.25,
            "mean cost {mean} should be within 25% of 2Rp = {expected}"
        );
    }

    #[test]
    fn iteration_spans_tile_the_timeline() {
        let proto = MultiCast::with_params(64, quick_params());
        let spans = proto.iteration_spans(4);
        assert_eq!(spans[0].0, 0);
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0, "spans must be contiguous");
        }
        assert_eq!(spans[1].1 - spans[1].0, proto.iteration_rounds(7));
    }

    #[test]
    fn segment_profiles_follow_the_schedule() {
        let mut proto = MultiCast::with_params(64, quick_params());
        let s6 = proto.segment(0);
        assert_eq!(s6.seg_major, 6);
        assert_eq!(s6.p1, 1.0 / 64.0);
        assert_eq!(s6.channels, 32);
        let s7 = proto.segment(s6.seg_len);
        assert_eq!(s7.seg_major, 7);
        assert_eq!(s7.p1, 1.0 / 128.0);
        assert!(s7.seg_len > 4 * s6.seg_len, "lengths grow faster than 4x");
    }

    #[test]
    fn node_counts_noise_and_resets_at_boundary() {
        let profile = SlotProfile {
            p1: 0.25,
            p2: 0.25,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 100,
            seg_major: 6,
            seg_minor: 0,
            step: 0,
        };
        let mut node = McNode::new(false, 0.5);
        for _ in 0..20 {
            node.on_feedback(&profile, Feedback::Noise);
        }
        assert_eq!(node.noisy_count(), 20);
        // threshold = 0.5 · 100 · 0.25 = 12.5; 20 >= 12.5 → stay.
        assert_eq!(node.on_boundary(&profile), BoundaryDecision::Continue);
        assert_eq!(node.noisy_count(), 0, "counter resets");
        // Fresh iteration with little noise → halt.
        for _ in 0..5 {
            node.on_feedback(&profile, Feedback::Noise);
        }
        assert_eq!(node.on_boundary(&profile), BoundaryDecision::Halt);
    }

    #[test]
    fn uninformed_node_never_broadcasts() {
        let profile = SlotProfile {
            p1: 0.5,
            p2: 0.5,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 10,
            seg_major: 6,
            seg_minor: 0,
            step: 0,
        };
        let mut node = McNode::new(false, 0.5);
        let mut rng = Xoshiro256::seeded(1);
        for _ in 0..100 {
            assert_eq!(
                node.on_selected(&profile, Coin::Two, &mut rng),
                Action::Idle
            );
        }
        node.on_feedback(&profile, Feedback::Message(Payload::Data));
        assert!(matches!(
            node.on_selected(&profile, Coin::Two, &mut rng),
            Action::Broadcast {
                payload: Payload::Data,
                ..
            }
        ));
    }

    #[test]
    fn beacon_messages_do_not_inform() {
        // MultiCast never sends beacons, but the node must be robust anyway.
        let profile = SlotProfile {
            p1: 0.5,
            p2: 0.5,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 10,
            seg_major: 6,
            seg_minor: 0,
            step: 0,
        };
        let mut node = McNode::new(false, 0.5);
        node.on_feedback(&profile, Feedback::Message(Payload::Beacon));
        assert!(!node.is_informed());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_n() {
        MultiCast::new(100);
    }
}
