//! `MultiCastAdv` (Section 6, Figure 4): resource-competitive broadcast
//! knowing **neither** `n` nor `T`.
//!
//! The algorithm guesses `n` through an epoch/phase structure: epoch `i` has
//! phases `j = 0 … i−1`; phase `(i, j)` uses `2^j` channels (guessing
//! `n ≈ 2^{j+1}`), runs two steps of `R(i,j) = Θ(2^{2α(i−j)}·i³)` slots each
//! with action probability `p(i,j) = 2^{−α(i−j)}/2`, where `α ∈ (0, 1/4)` is
//! the tunable exponent of Theorem 6.10.
//!
//! * **Step one** disseminates: uninformed nodes listen, informed nodes
//!   broadcast `m`; an uninformed listener that hears `m` becomes informed
//!   immediately.
//! * **Step two** measures: every node listens or broadcasts with
//!   probability `p` each (uninformed nodes broadcast the beacon `±`), and
//!   counts message slots (`Nm`), message-or-beacon slots (`N'm`), noisy
//!   slots (`Nn`) and silent slots (`Ns`). Status changes only at the end of
//!   the step: hear `m` at all → informed; informed with `Nm`, `Ns` high and
//!   `N'm` low → **helper** (the `N'm`/`Ns` combination pins the phase to
//!   `j = lg n − 1`, Lemmas 6.1–6.3); a helper that has waited the required
//!   number of epochs and hears almost no noise in its helper phase →
//!   **halt**.
//!
//! The two-stage helper/halt termination is what keeps early terminators
//! from stranding stragglers: all nodes are informed before the first helper
//! appears (Lemma 6.4), and all nodes are helpers before the first halt
//! (Lemma 6.5) — so departures only ever *reduce* noise.
//!
//! Guarantees (Theorem 6.10, w.h.p.): every node receives `m` and halts
//! within `Õ(T/n^{1−2α} + n^{2α})` slots, spending
//! `Õ(√(T/n^{1−2α}) + n^{2α})` energy.
//!
//! With a channel cap (`AdvParams::channel_cap = Some(C)`) this type becomes
//! `MultiCastAdv(C)` (Section 7, Figure 6): phases with `j > lg C` are cut
//! off and the `N'm` condition is dropped at `j = lg C`, where helpers now
//! form (Theorem 7.2).

use crate::params::{lg_pow2, AdvParams};
use rcb_sim::{
    Action, BoundaryDecision, Coin, Feedback, NodeExtra, Payload, Protocol, ProtocolNode,
    SlotProfile, Xoshiro256,
};

/// Node status in `MultiCastAdv` (halting is signalled via
/// [`BoundaryDecision::Halt`] rather than stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvStatus {
    Uninformed,
    Informed,
    Helper,
}

/// One scheduled step of an `(i, j)`-phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdvSegment {
    pub epoch: u32,
    pub phase: u32,
    pub step: u8,
    pub start: u64,
    pub len: u64,
}

/// Lazy walker over the epoch/phase/step schedule. Shared by the protocol
/// (to produce segment profiles) and by schedule-targeted adversaries (Eve
/// knows the algorithm, so the schedule is public information).
#[derive(Clone, Debug)]
pub struct AdvScheduleIter {
    params: AdvParams,
    epoch: u32,
    phase: u32,
    step: u8,
    start: u64,
}

impl AdvScheduleIter {
    pub fn new(params: AdvParams) -> Self {
        Self {
            params,
            epoch: 1,
            phase: 0,
            step: 0,
            start: 0,
        }
    }
}

impl Iterator for AdvScheduleIter {
    type Item = AdvSegment;

    fn next(&mut self) -> Option<AdvSegment> {
        let seg = AdvSegment {
            epoch: self.epoch,
            phase: self.phase,
            step: self.step,
            start: self.start,
            len: self.params.r(self.epoch, self.phase),
        };
        self.start = self.start.saturating_add(seg.len);
        if self.step == 0 {
            self.step = 1;
        } else {
            self.step = 0;
            if self.phase < self.params.max_phase(self.epoch) {
                self.phase += 1;
            } else {
                self.phase = 0;
                self.epoch += 1;
            }
        }
        Some(seg)
    }
}

/// The `MultiCastAdv` protocol (schedule side).
///
/// ```
/// use rcb_core::{AdvParams, MultiCastAdv};
/// use rcb_sim::Simulation;
///
/// // Knows neither n nor T; α ∈ (0, 1/4) trades exponent for constants.
/// let params = AdvParams { alpha: 0.24, ..AdvParams::default() };
/// let mut protocol = MultiCastAdv::with_params(16, params);
/// let outcome = Simulation::new(&mut protocol).run(7);
/// assert!(outcome.all_informed && outcome.all_halted);
/// // Every node discovered lg n implicitly: helpers form at j = lg n − 1.
/// for node in &outcome.nodes {
///     assert_eq!(node.extra.get("helper_phase"), Some(3.0));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct MultiCastAdv {
    n: u64,
    params: AdvParams,
    schedule: AdvScheduleIter,
}

impl MultiCastAdv {
    /// Create for a network of `n` nodes. `n` is used **only** to size the
    /// simulated network — neither the schedule nor the node logic reads it
    /// (that is the point of the algorithm).
    pub fn new(n: u64) -> Self {
        Self::with_params(n, AdvParams::default())
    }

    pub fn with_params(n: u64, params: AdvParams) -> Self {
        assert!(n >= 4, "need at least 4 nodes, got {n}");
        let params = params.validated();
        Self {
            n,
            params,
            schedule: AdvScheduleIter::new(params),
        }
    }

    /// `MultiCastAdv(C)`: cut off phases above `lg C` (Section 7, Figure 6).
    pub fn with_channel_cap(n: u64, c: u64, params: AdvParams) -> Self {
        Self::with_params(
            n,
            AdvParams {
                channel_cap: Some(c),
                ..params
            },
        )
    }

    pub fn params(&self) -> &AdvParams {
        &self.params
    }

    /// A fresh schedule walker (for adversaries and tests).
    pub fn schedule_iter(&self) -> AdvScheduleIter {
        AdvScheduleIter::new(self.params)
    }
}

impl Protocol for MultiCastAdv {
    type Node = AdvNode;

    fn num_nodes(&self) -> u32 {
        self.n as u32
    }

    fn segment(&mut self, start_slot: u64) -> SlotProfile {
        let seg = self.schedule.next().expect("schedule is infinite");
        debug_assert_eq!(seg.start, start_slot, "schedule cursor out of sync");
        let p = self.params.p(seg.epoch, seg.phase);
        let channels = 1u64 << seg.phase;
        SlotProfile {
            p1: p,
            // Step one: only the coin-1 action exists (listen-or-broadcast by
            // status). Step two: coin 1 = listen, coin 2 = broadcast.
            p2: if seg.step == 1 { p } else { 0.0 },
            channels,
            virt_channels: channels,
            round_len: 1,
            seg_len: seg.len,
            seg_major: seg.epoch,
            seg_minor: seg.phase,
            step: seg.step,
        }
    }

    fn make_node(&self, _id: u32, is_source: bool) -> AdvNode {
        AdvNode::new(is_source, self.params)
    }
}

/// Per-node state of `MultiCastAdv` / `MultiCastAdv(C)`.
#[derive(Clone, Debug)]
pub struct AdvNode {
    status: AdvStatus,
    /// `(iˆ, jˆ)`: the phase in which this node became a helper.
    helper_at: Option<(u32, u32)>,
    params: AdvParams,
    /// Step-two counters: message, message-or-beacon, noisy, silent slots.
    nm: u64,
    nm_prime: u64,
    nn: u64,
    ns: u64,
}

impl AdvNode {
    pub fn new(is_source: bool, params: AdvParams) -> Self {
        Self {
            status: if is_source {
                AdvStatus::Informed
            } else {
                AdvStatus::Uninformed
            },
            helper_at: None,
            params,
            nm: 0,
            nm_prime: 0,
            nn: 0,
            ns: 0,
        }
    }

    pub fn status(&self) -> AdvStatus {
        self.status
    }

    pub fn helper_at(&self) -> Option<(u32, u32)> {
        self.helper_at
    }

    /// Is phase `j` the cut-off phase `lg C` of `MultiCastAdv(C)`?
    fn at_channel_cap(&self, j: u32) -> bool {
        self.params.channel_cap.is_some_and(|c| j == lg_pow2(c))
    }

    fn reset_counters(&mut self) {
        self.nm = 0;
        self.nm_prime = 0;
        self.nn = 0;
        self.ns = 0;
    }
}

impl ProtocolNode for AdvNode {
    #[inline]
    fn on_selected(&mut self, profile: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
        let ch = rng.gen_range(profile.virt_channels);
        if profile.step == 0 {
            // Step one (Figure 4 lines 2–8): the single coin means "listen"
            // for uninformed nodes and "broadcast m" for everyone else.
            debug_assert_eq!(coin, Coin::One, "step one has no second coin");
            if self.status == AdvStatus::Uninformed {
                Action::Listen { ch }
            } else {
                Action::Broadcast {
                    ch,
                    payload: Payload::Data,
                }
            }
        } else {
            // Step two (lines 10–20): coin 1 listens, coin 2 broadcasts —
            // the message if informed, the ± beacon if not.
            match coin {
                Coin::One => Action::Listen { ch },
                Coin::Two => Action::Broadcast {
                    ch,
                    payload: if self.status == AdvStatus::Uninformed {
                        Payload::Beacon
                    } else {
                        Payload::Data
                    },
                },
            }
        }
    }

    #[inline]
    fn on_feedback(&mut self, profile: &SlotProfile, fb: Feedback) {
        if profile.step == 0 {
            // Step one: an uninformed listener that hears m is informed
            // immediately (line 6).
            if fb == Feedback::Message(Payload::Data) && self.status == AdvStatus::Uninformed {
                self.status = AdvStatus::Informed;
            }
        } else {
            // Step two: count, but never change status mid-step (lines
            // 14–17; the "critically, even if an uninformed node hears m…"
            // remark of Section 6.2).
            match fb {
                Feedback::Message(Payload::Data) => {
                    self.nm += 1;
                    self.nm_prime += 1;
                }
                Feedback::Message(Payload::Beacon) => self.nm_prime += 1,
                // Foreign multi-message payloads count like the beacon: a
                // decodable transmission that is not m itself.
                Feedback::Message(Payload::Msg(_)) => self.nm_prime += 1,
                Feedback::Noise => self.nn += 1,
                Feedback::Silence => self.ns += 1,
            }
        }
    }

    fn on_boundary(&mut self, profile: &SlotProfile) -> BoundaryDecision {
        if profile.step == 0 {
            // Entering step two: counters start from zero (Figure 4 line 9).
            self.reset_counters();
            return BoundaryDecision::Continue;
        }
        // End of step two: the three checks of Figure 4 lines 21–23, in
        // order.
        let (i, j) = (profile.seg_major, profile.seg_minor);
        let r = profile.seg_len as f64;
        let p = profile.p1;
        let rp = r * p;
        let rp2 = r * p * p;

        // Check 1: uninformed node that heard m during step two → informed.
        if self.status == AdvStatus::Uninformed && self.nm >= 1 {
            self.status = AdvStatus::Informed;
        }

        // Check 2: informed → helper when the phase looks like the "good"
        // phase (j = lg n − 1, or j = lg C under a channel cap, where the
        // N'm condition is dropped — Figure 6 line 23).
        if self.status == AdvStatus::Informed
            && (self.nm as f64) >= self.params.theta_m * rp2
            && (self.ns as f64) >= self.params.theta_s * rp
            && (self.at_channel_cap(j) || (self.nm_prime as f64) <= self.params.theta_m_prime * rp2)
        {
            self.status = AdvStatus::Helper;
            self.helper_at = Some((i, j));
        }

        // Check 3: a helper halts in its helper phase once enough epochs have
        // passed and its helper phase is almost noise-free.
        if self.status == AdvStatus::Helper {
            if let Some((i_hat, j_hat)) = self.helper_at {
                if i - i_hat >= self.params.halt_delay
                    && j == j_hat
                    && (self.nn as f64) <= self.params.theta_n * rp
                {
                    return BoundaryDecision::Halt;
                }
            }
        }
        BoundaryDecision::Continue
    }

    #[inline]
    fn is_informed(&self) -> bool {
        self.status != AdvStatus::Uninformed
    }

    fn status_label(&self) -> &'static str {
        match self.status {
            AdvStatus::Uninformed => "uninformed",
            AdvStatus::Informed => "informed",
            AdvStatus::Helper => "helper",
        }
    }

    fn extra(&self) -> NodeExtra {
        let mut e = NodeExtra::default();
        e.push(
            "status",
            match self.status {
                AdvStatus::Uninformed => 0.0,
                AdvStatus::Informed => 1.0,
                AdvStatus::Helper => 2.0,
            },
        );
        if let Some((i, j)) = self.helper_at {
            e.push("helper_epoch", i as f64);
            e.push("helper_phase", j as f64);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_sim::{EngineConfig, Simulation};

    #[test]
    fn schedule_iterates_epochs_phases_steps() {
        let params = AdvParams::default().validated();
        let segs: Vec<AdvSegment> = AdvScheduleIter::new(params).take(10).collect();
        // Epoch 1: one phase (j = 0), two steps. Epoch 2: phases 0, 1.
        assert_eq!((segs[0].epoch, segs[0].phase, segs[0].step), (1, 0, 0));
        assert_eq!((segs[1].epoch, segs[1].phase, segs[1].step), (1, 0, 1));
        assert_eq!((segs[2].epoch, segs[2].phase, segs[2].step), (2, 0, 0));
        assert_eq!((segs[3].epoch, segs[3].phase, segs[3].step), (2, 0, 1));
        assert_eq!((segs[4].epoch, segs[4].phase, segs[4].step), (2, 1, 0));
        assert_eq!((segs[5].epoch, segs[5].phase, segs[5].step), (2, 1, 1));
        assert_eq!((segs[6].epoch, segs[6].phase, segs[6].step), (3, 0, 0));
        // Spans tile the timeline.
        for w in segs.windows(2) {
            assert_eq!(w[0].start + w[0].len, w[1].start);
        }
        // Both steps of a phase have the same length.
        assert_eq!(segs[0].len, segs[1].len);
    }

    #[test]
    fn channel_cap_cuts_phases() {
        let params = AdvParams {
            channel_cap: Some(4),
            ..AdvParams::default()
        }
        .validated();
        let segs: Vec<AdvSegment> = AdvScheduleIter::new(params).take(40).collect();
        assert!(
            segs.iter().all(|s| s.phase <= 2),
            "phases must stop at lg C = 2"
        );
        // Epoch 4 and later have exactly 3 phases (j = 0, 1, 2).
        let e4: Vec<_> = segs.iter().filter(|s| s.epoch == 4).collect();
        assert_eq!(e4.len(), 6, "3 phases x 2 steps");
    }

    #[test]
    fn profiles_match_formulas() {
        let mut proto = MultiCastAdv::new(16);
        let s = proto.segment(0);
        assert_eq!((s.seg_major, s.seg_minor, s.step), (1, 0, 0));
        assert_eq!(s.channels, 1);
        let alpha = proto.params().alpha;
        assert!((s.p1 - 2f64.powf(-alpha) / 2.0).abs() < 1e-12);
        assert_eq!(s.p2, 0.0, "step one has no broadcast coin");
        let s2 = proto.segment(s.seg_len);
        assert_eq!(s2.step, 1);
        assert_eq!(
            s2.p1, s2.p2,
            "step two: listen and broadcast equally likely"
        );
    }

    #[test]
    fn step_one_roles_follow_status() {
        let params = AdvParams::default().validated();
        let profile = SlotProfile {
            p1: 0.25,
            p2: 0.0,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 100,
            seg_major: 5,
            seg_minor: 2,
            step: 0,
        };
        let mut rng = Xoshiro256::seeded(3);
        let mut un = AdvNode::new(false, params);
        assert!(matches!(
            un.on_selected(&profile, Coin::One, &mut rng),
            Action::Listen { .. }
        ));
        let mut src = AdvNode::new(true, params);
        assert!(matches!(
            src.on_selected(&profile, Coin::One, &mut rng),
            Action::Broadcast {
                payload: Payload::Data,
                ..
            }
        ));
    }

    #[test]
    fn step_two_uninformed_broadcasts_beacon() {
        let params = AdvParams::default().validated();
        let profile = SlotProfile {
            p1: 0.25,
            p2: 0.25,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 100,
            seg_major: 5,
            seg_minor: 2,
            step: 1,
        };
        let mut rng = Xoshiro256::seeded(4);
        let mut un = AdvNode::new(false, params);
        assert!(matches!(
            un.on_selected(&profile, Coin::Two, &mut rng),
            Action::Broadcast {
                payload: Payload::Beacon,
                ..
            }
        ));
    }

    #[test]
    fn step_two_defers_informing_to_boundary() {
        let params = AdvParams::default().validated();
        let profile = SlotProfile {
            p1: 0.25,
            p2: 0.25,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 100,
            seg_major: 5,
            seg_minor: 2,
            step: 1,
        };
        let mut node = AdvNode::new(false, params);
        node.on_feedback(&profile, Feedback::Message(Payload::Data));
        assert!(!node.is_informed(), "status frozen during step two");
        node.on_boundary(&profile);
        assert!(node.is_informed(), "check 1 applies at the boundary");
    }

    #[test]
    fn counters_track_feedback_kinds() {
        let params = AdvParams::default().validated();
        let step2 = SlotProfile {
            p1: 0.25,
            p2: 0.25,
            channels: 4,
            virt_channels: 4,
            round_len: 1,
            seg_len: 100,
            seg_major: 5,
            seg_minor: 2,
            step: 1,
        };
        let mut node = AdvNode::new(true, params);
        node.on_feedback(&step2, Feedback::Message(Payload::Data));
        node.on_feedback(&step2, Feedback::Message(Payload::Beacon));
        node.on_feedback(&step2, Feedback::Noise);
        node.on_feedback(&step2, Feedback::Silence);
        assert_eq!((node.nm, node.nm_prime, node.nn, node.ns), (1, 2, 1, 1));
        // Entering the next step two resets them.
        let step1 = SlotProfile { step: 0, ..step2 };
        node.on_boundary(&step1);
        assert_eq!((node.nm, node.nm_prime, node.nn, node.ns), (0, 0, 0, 0));
    }

    #[test]
    fn helper_promotion_and_halt_gates() {
        let params = AdvParams::default().validated();
        let profile = SlotProfile {
            p1: 0.1,
            p2: 0.1,
            channels: 8,
            virt_channels: 8,
            round_len: 1,
            seg_len: 10_000,
            seg_major: 10,
            seg_minor: 3,
            step: 1,
        };
        let r = 10_000f64;
        let (p, rp, rp2) = (0.1, 10_000.0 * 0.1, 10_000.0 * 0.1 * 0.1);
        let _ = p;
        let mut node = AdvNode::new(true, params);
        // Satisfy Nm and Ns, keep N'm low → helper.
        node.nm = (params.theta_m * rp2) as u64 + 1;
        node.nm_prime = node.nm;
        node.ns = (params.theta_s * rp) as u64 + 1;
        node.nn = 0;
        assert_eq!(node.on_boundary(&profile), BoundaryDecision::Continue);
        assert_eq!(node.status(), AdvStatus::Helper);
        assert_eq!(node.helper_at(), Some((10, 3)));
        let _ = r;

        // Same phase, later epoch but not late enough → no halt.
        let early = SlotProfile {
            seg_major: 11,
            ..profile
        };
        node.reset_counters();
        assert_eq!(node.on_boundary(&early), BoundaryDecision::Continue);

        // Late enough, same phase, quiet → halt.
        let late = SlotProfile {
            seg_major: 10 + params.halt_delay,
            ..profile
        };
        node.reset_counters();
        assert_eq!(node.on_boundary(&late), BoundaryDecision::Halt);

        // Wrong phase never halts.
        let mut node2 = AdvNode::new(true, params);
        node2.status = AdvStatus::Helper;
        node2.helper_at = Some((10, 3));
        let wrong_phase = SlotProfile {
            seg_major: 20,
            seg_minor: 4,
            ..profile
        };
        assert_eq!(node2.on_boundary(&wrong_phase), BoundaryDecision::Continue);

        // Noisy helper phase never halts.
        let mut node3 = AdvNode::new(true, params);
        node3.status = AdvStatus::Helper;
        node3.helper_at = Some((10, 3));
        node3.nn = rp as u64; // all listening slots noisy
        assert_eq!(node3.on_boundary(&late), BoundaryDecision::Continue);
    }

    #[test]
    fn nm_prime_gate_blocks_promotion_off_cap() {
        let params = AdvParams::default().validated();
        let profile = SlotProfile {
            p1: 0.1,
            p2: 0.1,
            channels: 8,
            virt_channels: 8,
            round_len: 1,
            seg_len: 10_000,
            seg_major: 10,
            seg_minor: 3,
            step: 1,
        };
        let (rp, rp2) = (1_000.0, 100.0);
        let mut node = AdvNode::new(true, params);
        node.nm = (params.theta_m * rp2) as u64 + 1;
        node.ns = (params.theta_s * rp) as u64 + 1;
        node.nm_prime = (params.theta_m_prime * rp2) as u64 + 10; // too many beacons
        node.on_boundary(&profile);
        assert_eq!(node.status(), AdvStatus::Informed, "N'm gate must block");

        // With a channel cap and j == lg C, the N'm condition is dropped.
        let capped = AdvParams {
            channel_cap: Some(8),
            ..AdvParams::default()
        }
        .validated();
        let mut node2 = AdvNode::new(true, capped);
        node2.nm = (capped.theta_m * rp2) as u64 + 1;
        node2.ns = (capped.theta_s * rp) as u64 + 1;
        node2.nm_prime = u64::MAX / 2;
        node2.on_boundary(&profile); // seg_minor = 3 = lg 8
        assert_eq!(
            node2.status(),
            AdvStatus::Helper,
            "cap phase drops the N'm gate"
        );
    }

    /// End-to-end smoke test: without an adversary, a small network must
    /// inform everyone and halt everyone. (Timing/scaling claims are covered
    /// by integration tests and experiment E8/E9.)
    #[test]
    fn completes_without_adversary_n16() {
        let mut proto = MultiCastAdv::new(16);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(500_000_000))
            .run(7);
        assert!(out.all_informed, "informed: {}/16", out.informed_count());
        assert!(
            out.all_halted,
            "halted: {:?}",
            out.nodes.iter().filter(|n| n.halted_at.is_none()).count()
        );
        assert_eq!(out.safety_violations(), 0);
        // Helpers must have formed at j = lg n − 1 = 3 (experiment E9's
        // property, checked here for one seed).
        for node in &out.nodes {
            assert_eq!(
                node.extra.get("helper_phase"),
                Some(3.0),
                "node {}",
                node.id
            );
        }
    }
}
