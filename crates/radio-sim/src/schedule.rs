//! Declarative world-event schedules: the nemesis layer.
//!
//! A [`WorldSchedule`] is a sorted list of time-indexed [`WorldEvent`]s —
//! adversary swaps, network partitions, node crashes/recoveries, and lossy
//! links — mounted on a [`Simulation`](crate::Simulation) via
//! [`schedule`](crate::Simulation::schedule). The engine applies events at
//! **round starts**: an event scheduled for slot `s` fires at the first
//! round-start slot `≥ s`, exactly the granularity at which actor sampling
//! (and therefore the idle fast-forward) is decided. Pending events clip
//! fast-forward spans the same way segment boundaries already do, so every
//! applied event lands on a span boundary and idle-round skipping stays
//! sound — and a mounted-but-empty schedule is byte-identical to no
//! schedule at all (same RNG draws, same traces, same spans; enforced by
//! `tests/schedule_equivalence.rs`).
//!
//! # Event catalog
//!
//! * [`WorldEvent::SwapEve`] — replace the adversary seat with the next
//!   entry of the swap queue ([`Simulation::swap_eve`](crate::Simulation::swap_eve));
//!   the incoming Eve starts with her own full budget while
//!   [`RunOutcome::eve_spent`](crate::RunOutcome::eve_spent) keeps
//!   accumulating across seats.
//! * [`WorldEvent::Partition`] — overlay a partition on connectivity: nodes
//!   in different groups cannot hear each other. Nodes absent from every
//!   group form one implicit residual group. [`WorldEvent::Heal`] removes
//!   the overlay.
//! * [`WorldEvent::CrashNodes`] / [`WorldEvent::RecoverNodes`] — fail-stop
//!   crashes with memory: a crashed node leaves the actor-sampling pool
//!   (it neither acts nor hears, and cannot halt or become informed) but
//!   keeps its protocol state, informed status, and energy ledger; recovery
//!   re-admits it. Crashed nodes leave the completion accounting through
//!   the survivor-relative verdict
//!   ([`RunOutcome::survivors_all_informed`](crate::RunOutcome::survivors_all_informed)).
//! * [`WorldEvent::SetLinkLoss`] — independent per-round per-link loss with
//!   probability `p`, decided by counter-based hashing of
//!   `(seed, round, edge)` exactly like `Topology::Dynamic` churn, so
//!   skipped rounds never materialize a loss decision. `p = 0.0` turns the
//!   overlay off.
//!
//! Partition and link-loss overlays gate **delivery only**: the base
//! topology (and with it [`RunOutcome::reachable`](crate::RunOutcome::reachable))
//! is unchanged, matching the model where disruption is transient.

use crate::rng::SplitMix64;

/// One time-indexed disruption. See the [module docs](self) for semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldEvent {
    /// Replace the adversary seat with the next queued swap Eve (no-op when
    /// the queue is exhausted).
    SwapEve,
    /// Partition the network: nodes in different groups cannot hear each
    /// other; nodes listed in no group share one residual group.
    Partition { groups: Vec<Vec<u32>> },
    /// Remove any active partition overlay.
    Heal,
    /// Fail-stop the listed nodes (unknown / already-crashed / halted ids
    /// are ignored).
    CrashNodes { nodes: Vec<u32> },
    /// Recover the listed nodes with their pre-crash state intact.
    RecoverNodes { nodes: Vec<u32> },
    /// Set the independent per-round link-loss probability (`0.0` = off).
    SetLinkLoss { p: f64 },
}

impl WorldEvent {
    /// Stable kind tag used in timeline markers, reports, and spec files.
    pub fn kind(&self) -> &'static str {
        match self {
            WorldEvent::SwapEve => "swap-eve",
            WorldEvent::Partition { .. } => "partition",
            WorldEvent::Heal => "heal",
            WorldEvent::CrashNodes { .. } => "crash",
            WorldEvent::RecoverNodes { .. } => "recover",
            WorldEvent::SetLinkLoss { .. } => "set-link-loss",
        }
    }

    /// Does this event change who can hear whom (and therefore force the
    /// per-listener delivery path even on single-hop runs)?
    pub fn affects_connectivity(&self) -> bool {
        matches!(
            self,
            WorldEvent::Partition { .. } | WorldEvent::Heal | WorldEvent::SetLinkLoss { .. }
        )
    }
}

/// A sorted list of `(slot, event)` pairs — the declarative fault script of
/// one run.
///
/// ```
/// use rcb_sim::{WorldEvent, WorldSchedule};
///
/// let sched = WorldSchedule::new()
///     .at(1_000, WorldEvent::CrashNodes { nodes: vec![3, 4] })
///     .at(5_000, WorldEvent::RecoverNodes { nodes: vec![3, 4] });
/// assert_eq!(sched.len(), 2);
/// assert_eq!(sched.first_slot(), Some(1_000));
/// assert_eq!(sched.last_slot(), Some(5_000));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorldSchedule {
    events: Vec<(u64, WorldEvent)>,
}

impl WorldSchedule {
    /// An empty schedule (byte-identical to no schedule at all).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event, builder-style.
    ///
    /// # Panics
    /// Panics when `slot` is earlier than the last queued event or the
    /// event itself is invalid — the checked, non-panicking path is
    /// [`try_push`](Self::try_push).
    pub fn at(mut self, slot: u64, event: WorldEvent) -> Self {
        self.try_push(slot, event)
            .unwrap_or_else(|e| panic!("invalid schedule entry: {e}"));
        self
    }

    /// Append an event, validating slot order and event parameters: the one
    /// place a schedule's rules are checked. The spec loader builds every
    /// cell's schedule through it (via the harness's `ScheduleSpec`), so its
    /// errors are strings ready for file/line context wrapping, and a
    /// rejected event is not queued.
    pub fn try_push(&mut self, slot: u64, event: WorldEvent) -> Result<(), String> {
        if let Some(&(last, _)) = self.events.last() {
            if slot < last {
                return Err(format!(
                    "out-of-order event — slot {slot} after slot {last} \
                     (events must be nondecreasing)"
                ));
            }
        }
        if let WorldEvent::SetLinkLoss { p } = &event {
            if !(0.0..=1.0).contains(p) {
                return Err(format!(
                    "link-loss probability p must be in [0, 1], got {p}"
                ));
            }
        }
        if let WorldEvent::Partition { groups } = &event {
            if groups.is_empty() {
                return Err("a partition needs at least one group".to_string());
            }
        }
        self.events.push((slot, event));
        Ok(())
    }

    /// The sorted `(slot, event)` list.
    pub fn events(&self) -> &[(u64, WorldEvent)] {
        &self.events
    }

    /// Iterate the `(slot, event)` pairs in slot order.
    pub fn iter(&self) -> std::slice::Iter<'_, (u64, WorldEvent)> {
        self.events.iter()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Slot of the earliest event, if any.
    pub fn first_slot(&self) -> Option<u64> {
        self.events.first().map(|&(s, _)| s)
    }

    /// Slot of the latest event, if any.
    pub fn last_slot(&self) -> Option<u64> {
        self.events.last().map(|&(s, _)| s)
    }

    /// Does any event change connectivity (see
    /// [`WorldEvent::affects_connectivity`])?
    pub fn affects_connectivity(&self) -> bool {
        self.events.iter().any(|(_, e)| e.affects_connectivity())
    }
}

/// Timeline marker recorded in
/// [`RunOutcome::timeline`](crate::RunOutcome::timeline) for every applied
/// event: what fired, when it was asked for, and the round-start slot at
/// which the engine actually applied it. Events scheduled past the end of
/// the run never apply and leave no marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleMarker {
    /// The slot the schedule asked for.
    pub scheduled_at: u64,
    /// The round-start slot at which the event was applied (`>= scheduled_at`,
    /// equal whenever the scheduled slot is itself a round start).
    pub applied_at: u64,
    /// [`WorldEvent::kind`] of the applied event.
    pub kind: &'static str,
}

/// Reserved derive-stream id for the link-loss overlay's counter-based hash
/// (the adversary uses `1_000_003`, topologies `1_000_004`/`1_000_005`).
pub const LINK_LOSS_STREAM: u64 = 1_000_006;

/// Counter-based link-loss decision: same stateless `(seed, round, edge)`
/// hashing as `Topology::Dynamic` churn, so fast-forwarded rounds never
/// need a loss decision and runs stay pure functions of their seeds.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LinkLoss {
    seed: u64,
    /// `p` mapped onto the full `u64` range; 0 = overlay off.
    threshold: u64,
}

impl LinkLoss {
    pub(crate) fn new(seed: u64) -> Self {
        Self { seed, threshold: 0 }
    }

    /// Install probability `p` (validated by [`WorldSchedule::try_push`]).
    pub(crate) fn set_p(&mut self, p: f64) {
        // Exact at both endpoints: 0.0 → never lost, 1.0 → always lost.
        self.threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * 2f64.powi(64)) as u64
        };
    }

    /// Is the overlay active at all?
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.threshold != 0
    }

    /// Is `edge` lost in `round`?
    #[inline]
    pub(crate) fn is_lost(&self, round: u64, edge: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        if self.threshold == u64::MAX {
            return true;
        }
        let mut sm = SplitMix64::new(
            self.seed
                ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ edge.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        sm.next_u64() < self.threshold
    }
}

/// Per-node group ids realized from a [`WorldEvent::Partition`]; nodes in
/// different groups cannot hear each other. Nodes absent from every listed
/// group share the residual group `groups.len()`.
pub(crate) fn realize_partition(groups: &[Vec<u32>], n: u32) -> Vec<u32> {
    let residual = groups.len() as u32;
    let mut ids = vec![residual; n as usize];
    for (g, members) in groups.iter().enumerate() {
        for &nid in members {
            if nid < n {
                ids[nid as usize] = g as u32;
            }
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_reports_extents() {
        let s = WorldSchedule::new()
            .at(10, WorldEvent::SwapEve)
            .at(10, WorldEvent::Heal)
            .at(99, WorldEvent::SetLinkLoss { p: 0.5 });
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.first_slot(), Some(10));
        assert_eq!(s.last_slot(), Some(99));
        assert_eq!(
            s.iter()
                .filter(|(_, e)| matches!(e, WorldEvent::SwapEve))
                .count(),
            1
        );
        assert!(s.affects_connectivity());
        assert_eq!(s.events()[1].1.kind(), "heal");
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = WorldSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.first_slot(), None);
        assert_eq!(s.last_slot(), None);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.affects_connectivity());
    }

    #[test]
    fn try_push_rejects_out_of_order_and_bad_params() {
        let mut s = WorldSchedule::new();
        s.try_push(50, WorldEvent::Heal).unwrap();
        let err = s.try_push(49, WorldEvent::SwapEve).unwrap_err();
        assert!(err.contains("nondecreasing"), "{err}");
        let err = s
            .try_push(60, WorldEvent::SetLinkLoss { p: 1.5 })
            .unwrap_err();
        assert!(err.contains("probability"), "{err}");
        let err = s
            .try_push(60, WorldEvent::Partition { groups: vec![] })
            .unwrap_err();
        assert!(err.contains("at least one group"), "{err}");
        // The valid prefix survived; invalid entries were not queued.
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid schedule entry")]
    fn builder_panics_on_out_of_order() {
        let _ = WorldSchedule::new()
            .at(100, WorldEvent::Heal)
            .at(50, WorldEvent::SwapEve);
    }

    #[test]
    fn connectivity_flag_only_for_connectivity_events() {
        let crash_only = WorldSchedule::new()
            .at(5, WorldEvent::CrashNodes { nodes: vec![1] })
            .at(9, WorldEvent::RecoverNodes { nodes: vec![1] })
            .at(11, WorldEvent::SwapEve);
        assert!(!crash_only.affects_connectivity());
        assert!(WorldSchedule::new()
            .at(
                5,
                WorldEvent::Partition {
                    groups: vec![vec![0]]
                }
            )
            .affects_connectivity());
    }

    #[test]
    fn partition_realization_assigns_residual_group() {
        let ids = realize_partition(&[vec![0, 1], vec![2, 99]], 5);
        assert_eq!(ids, vec![0, 0, 1, 2, 2]); // 3 and 4 share residual group 2
    }

    #[test]
    fn link_loss_endpoints_and_statelessness() {
        let mut loss = LinkLoss::new(7);
        assert!(!loss.active());
        assert!(!loss.is_lost(3, 14));
        loss.set_p(1.0);
        assert!(loss.is_lost(0, 0));
        loss.set_p(0.5);
        assert!(loss.active());
        // Stateless: same (round, edge) → same decision; some edges differ.
        let a: Vec<bool> = (0..64).map(|e| loss.is_lost(11, e)).collect();
        let b: Vec<bool> = (0..64).map(|e| loss.is_lost(11, e)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        loss.set_p(0.0);
        assert!(!loss.active());
    }
}
