//! Closed-form theory helpers: the paper's bounds and the adversary
//! economics implied by the protocol schedules.
//!
//! Experiments need to *pick budgets* that make a sweep informative (each
//! step should let Eve block one more iteration/epoch) and to *compare*
//! measurements against predicted shapes. This module centralizes that
//! arithmetic, with the constants of this implementation (not the paper's
//! galactic analysis constants — see the [`params`](crate::params) module
//! docs).

use crate::params::{lg_f64, AdvParams, McParams};

/// Predicted `MultiCast` bounds of Theorem 5.4, up to constant factors:
/// time `T/n + lg²n`, per-node cost `√(T/n)·√lg T·lg n + lg²n`.
/// Useful for shape comparison (ratios across sweep points), not absolute
/// prediction.
pub fn multicast_time_shape(n: u64, t: u64) -> f64 {
    t as f64 / n as f64 + lg_f64(n) * lg_f64(n)
}

/// See [`multicast_time_shape`].
pub fn multicast_cost_shape(n: u64, t: u64) -> f64 {
    let lg_n = lg_f64(n);
    ((t as f64 / n as f64).sqrt()) * lg_f64(t.max(2)).sqrt() * lg_n + lg_n * lg_n
}

/// Predicted `MultiCastAdv` shapes of Theorem 6.10.
pub fn adv_time_shape(n: u64, t: u64, alpha: f64) -> f64 {
    let n_pow = (n as f64).powf(1.0 - 2.0 * alpha);
    let lg_t3 = lg_f64(t.max(2)).powi(3);
    let lg_n3 = lg_f64(n).powi(3);
    t as f64 / n_pow * lg_t3 + (n as f64).powf(2.0 * alpha) * lg_n3
}

/// See [`adv_time_shape`].
pub fn adv_cost_shape(n: u64, t: u64, alpha: f64) -> f64 {
    let n_pow = (n as f64).powf(1.0 - 2.0 * alpha);
    let lg_t3 = lg_f64(t.max(2)).powi(3);
    let lg_n3 = lg_f64(n).powi(3);
    (t as f64 / n_pow).sqrt() * lg_t3 + (n as f64).powf(2.0 * alpha) * lg_n3
}

/// Energy Eve must spend to keep `MultiCast` iteration `i` "noisy": to push
/// the expected noisy fraction of listening slots above the halting
/// threshold `ratio`, she must jam an (expected) `ratio` fraction of
/// channel-slots over the iteration. Cheapest plan: jam `frac` of the `n/2`
/// channels for `ratio/frac` of the `R_i` slots, costing
/// `ratio · (n/2) · R_i` regardless of `frac`.
pub fn mc_blocking_cost(params: &McParams, n: u64, i: u32) -> u64 {
    let r = params.rounds(i, n) as f64;
    (params.halt_ratio * (n as f64 / 2.0) * r).ceil() as u64
}

/// The smallest budget that lets Eve block `MultiCast` iterations
/// `first..=last` back to back (the budget placing termination at the end
/// of iteration `last + 1`).
pub fn mc_budget_to_block_through(params: &McParams, n: u64, last: u32) -> u64 {
    (params.first_iteration..=last)
        .map(|i| mc_blocking_cost(params, n, i))
        .sum()
}

/// Wall-clock slots from the start of execution through the end of
/// `MultiCast` iteration `i` (inclusive).
pub fn mc_slots_through(params: &McParams, n: u64, i: u32) -> u64 {
    (params.first_iteration..=i)
        .map(|k| params.rounds(k, n))
        .sum()
}

/// Energy Eve must spend to deny halting in one `MultiCastAdv` helper-phase
/// step: push the noisy fraction of step two of phase `(i, j)` above
/// `theta_n` — `theta_n · 2^j · R(i,j)` channel-slots.
pub fn adv_blocking_cost(params: &AdvParams, i: u32, j: u32) -> u64 {
    let r = params.r(i, j) as f64;
    (params.theta_n * (1u64 << j) as f64 * r).ceil() as u64
}

/// Per-node expected energy in one `(i, j)`-phase of `MultiCastAdv`
/// (both steps; step one has one action class, step two has two).
pub fn adv_phase_cost(params: &AdvParams, i: u32, j: u32) -> f64 {
    let r = params.r(i, j) as f64;
    let p = params.p(i, j);
    r * p + r * 2.0 * p
}

/// Per-node expected energy across all phases of epoch `i`.
pub fn adv_epoch_cost(params: &AdvParams, i: u32) -> f64 {
    (0..=params.max_phase(i))
        .map(|j| adv_phase_cost(params, i, j))
        .sum()
}

/// Wall-clock slots in epoch `i` of `MultiCastAdv`.
pub fn adv_epoch_slots(params: &AdvParams, i: u32) -> u64 {
    (0..=params.max_phase(i)).map(|j| 2 * params.r(i, j)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_monotone_in_t() {
        for t in [0u64, 1_000, 1_000_000] {
            let t2 = t * 4 + 1;
            assert!(multicast_time_shape(64, t2) > multicast_time_shape(64, t));
            assert!(multicast_cost_shape(64, t2) > multicast_cost_shape(64, t));
            assert!(adv_time_shape(64, t2, 0.2) > adv_time_shape(64, t, 0.2));
            assert!(adv_cost_shape(64, t2, 0.2) > adv_cost_shape(64, t, 0.2));
        }
    }

    #[test]
    fn cost_shape_grows_like_sqrt_t() {
        // Quadrupling T should roughly double the T-dominated cost shape
        // (times the √lg T drift).
        let a = multicast_cost_shape(16, 10_000_000);
        let b = multicast_cost_shape(16, 40_000_000);
        let ratio = b / a;
        assert!((1.9..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn blocking_cost_matches_hand_calculation() {
        let p = McParams::default();
        // R_6(n=16) = 512·6·16 = 49152; blocking = 0.5·8·49152 = 196608.
        assert_eq!(mc_blocking_cost(&p, 16, 6), 196_608);
        // Budgets used by experiments E4/E5 block through these iterations:
        let b6 = mc_budget_to_block_through(&p, 16, 6);
        let b7 = mc_budget_to_block_through(&p, 16, 7);
        assert_eq!(b6, 196_608);
        assert!(b7 > 5 * b6 / 2, "iteration 7 is ~4.7x longer");
        // The E4/E5 sweep values straddle these thresholds.
        assert!(400_000 > b6 && 400_000 < b7);
    }

    #[test]
    fn slots_through_matches_iteration_sum() {
        let p = McParams::default();
        let r6 = p.rounds(6, 16);
        let r7 = p.rounds(7, 16);
        assert_eq!(mc_slots_through(&p, 16, 7), r6 + r7);
    }

    #[test]
    fn adv_epoch_accounting() {
        let params = AdvParams {
            alpha: 0.24,
            ..AdvParams::default()
        }
        .validated();
        // Epoch slots are the sum of both steps of each phase.
        let manual: u64 = (0..=params.max_phase(5)).map(|j| 2 * params.r(5, j)).sum();
        assert_eq!(adv_epoch_slots(&params, 5), manual);
        // Node cost per epoch is far below the slot count (sparse actions).
        assert!(adv_epoch_cost(&params, 5) < adv_epoch_slots(&params, 5) as f64);
        // Eve's per-step denial price grows with the epoch.
        assert!(adv_blocking_cost(&params, 12, 3) > adv_blocking_cost(&params, 8, 3));
    }

    #[test]
    fn adv_blocking_formula() {
        let params = AdvParams {
            alpha: 0.24,
            theta_n: 0.025,
            ..AdvParams::default()
        }
        .validated();
        let r = params.r(10, 3);
        let expect = (0.025 * 8.0 * r as f64).ceil() as u64;
        assert_eq!(adv_blocking_cost(&params, 10, 3), expect);
    }
}
