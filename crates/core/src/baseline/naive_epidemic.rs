//! The bare "multi-channel epidemic broadcast" scheme from Section 1 of the
//! paper.

use rcb_sim::{
    Action, BoundaryDecision, Coin, Feedback, Payload, Protocol, ProtocolNode, SlotProfile,
    Xoshiro256,
};

/// Naive epidemic broadcast: in every slot every node hops to a uniformly
/// random channel in `[0, n/2)`; informed nodes broadcast (with probability
/// `act_prob`, default 1) and uninformed nodes listen.
///
/// This is the scheme the paper's introduction motivates: "in each time
/// slot, let each node independently choose a random channel, then let
/// informed nodes broadcast and uninformed nodes listen". The number of
/// informed nodes grows geometrically, and even an adversary jamming a
/// constant fraction of channels only dents the growth rate (Claim 4.1.1 /
/// experiment E1).
///
/// It has **no termination detection** — run it with
/// [`EngineConfig::stop_when_all_informed`](rcb_sim::EngineConfig) — and
/// listeners pay one unit *every* slot, which is why it is only a baseline.
#[derive(Clone, Debug)]
pub struct NaiveEpidemic {
    n: u64,
    channels: u64,
    act_prob: f64,
}

impl NaiveEpidemic {
    pub fn new(n: u64) -> Self {
        Self::with_act_prob(n, 1.0)
    }

    /// Variant where nodes act with probability `act_prob` per slot
    /// (the "sparse" epidemic of Section 5, without the iteration scaffold).
    pub fn with_act_prob(n: u64, act_prob: f64) -> Self {
        Self::with_config(n, n / 2, act_prob)
    }

    /// Fully configurable variant, for the channel-count ablation (E14):
    /// Section 4 argues `n/2` channels is the sweet spot — "too few channels
    /// hurts parallelism, but too many channels may result in nodes not
    /// being able to meet each other sufficiently often".
    pub fn with_config(n: u64, channels: u64, act_prob: f64) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "n must be a power of two >= 4, got {n}"
        );
        assert!(channels >= 1, "need at least one channel");
        assert!(act_prob > 0.0 && act_prob <= 1.0);
        Self {
            n,
            channels,
            act_prob,
        }
    }
}

impl Protocol for NaiveEpidemic {
    type Node = NaiveNode;

    fn num_nodes(&self) -> u32 {
        self.n as u32
    }

    fn segment(&mut self, _start_slot: u64) -> SlotProfile {
        SlotProfile {
            p1: self.act_prob,
            p2: 0.0,
            channels: self.channels,
            virt_channels: self.channels,
            round_len: 1,
            // One giant segment: there are no boundaries to act on.
            seg_len: 1 << 50,
            seg_major: 0,
            seg_minor: 0,
            step: 0,
        }
    }

    fn make_node(&self, _id: u32, is_source: bool) -> NaiveNode {
        NaiveNode {
            informed: is_source,
        }
    }
}

/// Node state: just "do I know m".
#[derive(Clone, Debug)]
pub struct NaiveNode {
    informed: bool,
}

impl ProtocolNode for NaiveNode {
    #[inline]
    fn on_selected(&mut self, profile: &SlotProfile, _coin: Coin, rng: &mut Xoshiro256) -> Action {
        let ch = rng.gen_range(profile.virt_channels);
        if self.informed {
            Action::Broadcast {
                ch,
                payload: Payload::Data,
            }
        } else {
            Action::Listen { ch }
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
    use rcb_sim::{EngineConfig, Simulation};

    fn informed_cfg() -> EngineConfig {
        EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(1_000_000)
        }
    }

    #[test]
    fn informs_everyone_in_logarithmic_time() {
        let mut proto = NaiveEpidemic::new(64);
        let out = Simulation::new(&mut proto).config(informed_cfg()).run(1);
        assert!(out.all_informed);
        // Geometric growth: wildly less than n slots.
        assert!(out.slots < 200, "took {} slots", out.slots);
    }

    #[test]
    fn survives_ninety_percent_jamming() {
        // Claim 4.1.1's setting: Eve jams 90% of all n/2 channels every slot;
        // the epidemic still completes quickly (experiment E1).
        let mut proto = NaiveEpidemic::new(64);
        let mut eve = UniformFraction::new(u64::MAX, 0.9, 3);
        let out = Simulation::new(&mut proto)
            .adversary(&mut eve)
            .config(informed_cfg())
            .run(2);
        assert!(out.all_informed, "jamming 90% must not stop the epidemic");
        assert!(out.slots < 2_000, "took {} slots", out.slots);
    }

    #[test]
    fn full_jamming_stops_it() {
        let mut proto = NaiveEpidemic::new(16);
        let mut eve = UniformFraction::new(u64::MAX, 1.0, 4);
        let cfg = EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(2_000)
        };
        let out = Simulation::new(&mut proto)
            .adversary(&mut eve)
            .config(cfg)
            .run(3);
        assert!(!out.all_informed);
        assert_eq!(out.informed_count(), 1, "only the source knows m");
    }

    #[test]
    fn sparse_variant_is_slower_but_cheaper_per_slot() {
        let mut dense = NaiveEpidemic::new(32);
        let dense_out = Simulation::new(&mut dense).config(informed_cfg()).run(5);
        let mut sparse = NaiveEpidemic::with_act_prob(32, 0.25);
        let sparse_out = Simulation::new(&mut sparse).config(informed_cfg()).run(5);
        assert!(dense_out.all_informed && sparse_out.all_informed);
        assert!(sparse_out.slots > dense_out.slots);
        let dense_rate = dense_out.mean_cost() / dense_out.slots as f64;
        let sparse_rate = sparse_out.mean_cost() / sparse_out.slots as f64;
        assert!(sparse_rate < dense_rate);
    }

    #[test]
    fn channel_count_is_configurable() {
        // With only 2 channels the dense epidemic informs ~half the network
        // in slot 0 and then deadlocks: ~16 informed nodes broadcasting on 2
        // channels collide essentially forever. This is the §4 "too few
        // channels hurts parallelism" effect (the dense epidemic lacks the
        // probability-backoff that MultiCast(C) adds for scarce spectrum).
        let mut narrow = NaiveEpidemic::with_config(32, 2, 1.0);
        let cfg = EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(2_000)
        };
        let narrow_out = Simulation::new(&mut narrow).config(cfg).run(9);
        assert!(
            !narrow_out.all_informed,
            "2 always-busy channels should deadlock on collisions"
        );
        assert!(
            narrow_out.informed_count() > 1,
            "slot 0 still informs some listeners"
        );
        let mut wide = NaiveEpidemic::with_config(32, 16, 1.0);
        let wide_out = Simulation::new(&mut wide).config(informed_cfg()).run(9);
        assert!(wide_out.all_informed);
    }

    #[test]
    fn nodes_never_halt() {
        let mut proto = NaiveEpidemic::new(16);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(500))
            .run(6);
        assert!(!out.all_halted);
        assert!(out.nodes.iter().all(|n| n.halted_at.is_none()));
    }
}
