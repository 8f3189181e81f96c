//! # rcb-adversary — oblivious jamming strategies for Eve
//!
//! The paper's adversary model (Section 3): Eve may jam any set of channels
//! in each slot at one unit of energy per channel-slot, limited only by her
//! total budget `T`. She is **oblivious** — she knows the algorithm and may
//! pursue an arbitrary pre-committed strategy, but cannot observe the
//! execution. Structurally, every strategy here is a function of the slot
//! index, the (publicly known) per-slot channel count, and the strategy's own
//! private randomness; the engine never passes execution state to it.
//!
//! The library covers the strategy space the paper's proofs quantify over:
//!
//! * [`Silent`] — no jamming (the `T = 0` baseline of every theorem).
//! * [`UniformFraction`] — jam a fixed fraction of channels every slot, at a
//!   rotating random offset. The "constant fraction of channels for a
//!   constant fraction of slots" shape that Lemmas 4.1/5.1 call *effective*
//!   disruption.
//! * [`FullBandBurst`] — jam *all* channels from a chosen slot until the
//!   budget runs out: the strongest possible burst, and the strategy behind
//!   the `Ω(T/C)` optimality remark of Section 7.
//! * [`PeriodicPulse`] — duty-cycled bursts (microwave-oven-style periodic
//!   interference).
//! * [`Sweep`] — a contiguous window sweeping across the band.
//! * [`SpanJammer`] — jam only designated slot spans (built by the harness
//!   from a protocol's public schedule: e.g. "jam phase `lg n − 1` of every
//!   epoch of `MultiCastAdv`", the worst case for resource competitiveness
//!   discussed in Section 6.1).
//! * [`GilbertElliott`] — a two-state Markov environmental-noise model, for
//!   realistic non-malicious interference.

pub mod burst;
pub mod gilbert_elliott;
pub mod pulse;
pub mod random_subset;
pub mod reactive;
pub mod spans;
pub mod sweep;
pub mod uniform;

pub use burst::FullBandBurst;
pub use gilbert_elliott::GilbertElliott;
pub use pulse::PeriodicPulse;
pub use random_subset::RandomSubset;
pub use reactive::{HotspotJammer, ReactiveJammer};
pub use spans::{JamSpan, SpanJammer};
pub use sweep::Sweep;
pub use uniform::UniformFraction;

use rcb_sim::{Adversary, JamSet, SpanCharge};

/// The absent adversary: never jams, budget zero.
///
/// Identical in behaviour to [`rcb_sim::protocol::NoAdversary`]; re-exported
/// here under the experiment-facing name so adversary line-ups in the harness
/// read uniformly.
#[derive(Clone, Copy, Debug, Default)]
pub struct Silent;

impl Adversary for Silent {
    fn jam(&mut self, _slot: u64, _channels: u64) -> JamSet {
        JamSet::Empty
    }

    fn budget(&self) -> u64 {
        0
    }

    fn jam_span(&mut self, _start: u64, _len: u64, _channels: u64, _budget: u64) -> SpanCharge {
        SpanCharge::default()
    }

    fn name(&self) -> &'static str {
        "silent"
    }
}

/// Round `frac * channels` to a jam count (halves away from zero, as
/// `f64::round`), clamped to the band.
///
/// No `round` call, which is out of line on baseline x86-64: truncate, then
/// add one when the dropped fraction is at least ½. For `0 < x < 2⁵²` the
/// fraction `x − ⌊x⌋` is exact in f64, so the comparison is exact; from
/// 2⁵² on `x` is already an integer and the fraction is 0.
#[inline]
pub(crate) fn frac_to_count(frac: f64, channels: u64) -> u64 {
    if frac <= 0.0 {
        0
    } else if frac >= 1.0 {
        channels
    } else {
        let x = frac * channels as f64;
        let t = x as u64;
        (t + (x - t as f64 >= 0.5) as u64).min(channels)
    }
}

/// Deterministic per-slot channel offset in `[0, channels)`, derived from a
/// strategy seed and the slot index alone — no sequential RNG state.
///
/// Making window/subset placement a pure function of `(seed, slot)` is what
/// lets the structured jammers implement **exact** closed-form
/// [`Adversary::jam_span`] charges: skipping a span of slots leaves no state
/// to advance, so the engine's idle fast-forward is byte-identical to the
/// slot-by-slot path. The mapping uses `derive_seed` mixing plus Lemire's
/// high-multiply range reduction (bias ≤ `channels / 2⁶⁴`, immaterial).
pub(crate) fn slot_offset(seed: u64, slot: u64, channels: u64) -> u64 {
    debug_assert!(channels > 0);
    let x = rcb_sim::derive_seed(seed, slot);
    ((x as u128 * channels as u128) >> 64) as u64
}

/// Exact aggregate charge for a constant per-slot demand: the engine charges
/// `min(want, remaining)` per slot, which over any span sums to
/// `min(total want, budget)` regardless of how the demand is distributed.
pub(crate) fn constant_demand_charge(want_per_slot: u64, slots: u64, budget: u64) -> SpanCharge {
    let want = want_per_slot as u128 * slots as u128;
    SpanCharge {
        spent: want.min(budget as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_never_jams() {
        let mut s = Silent;
        assert_eq!(s.jam(0, 100), JamSet::Empty);
        assert_eq!(s.budget(), 0);
        assert_eq!(s.name(), "silent");
        assert_eq!(s.jam_span(0, 1 << 40, 100, u64::MAX / 2).spent, 0);
    }

    #[test]
    fn slot_offset_is_deterministic_in_range_and_spread() {
        let channels = 32u64;
        let mut hits = vec![0u64; channels as usize];
        for slot in 0..3200 {
            let a = slot_offset(7, slot, channels);
            assert_eq!(a, slot_offset(7, slot, channels));
            assert!(a < channels);
            hits[a as usize] += 1;
        }
        // Roughly uniform: every offset occurs, none dominates.
        assert!(hits.iter().all(|&h| h > 0));
        assert!(*hits.iter().max().unwrap() < 300);
        // Different seeds decorrelate.
        let same = (0..64).filter(|&s| slot_offset(1, s, channels) == slot_offset(2, s, channels));
        assert!(same.count() < 10);
    }

    #[test]
    fn constant_demand_charge_caps_at_budget() {
        assert_eq!(constant_demand_charge(3, 10, 1000).spent, 30);
        assert_eq!(constant_demand_charge(3, 10, 7).spent, 7);
        assert_eq!(constant_demand_charge(0, 10, 7).spent, 0);
        // No overflow at extreme spans.
        assert_eq!(
            constant_demand_charge(u64::MAX, u64::MAX, u64::MAX).spent,
            u64::MAX
        );
    }

    /// `frac_to_count`'s rounding as it was: `f64::round`, then the clamp.
    fn round_reference(frac: f64, channels: u64) -> u64 {
        if frac <= 0.0 {
            0
        } else if frac >= 1.0 {
            channels
        } else {
            ((frac * channels as f64).round() as u64).min(channels)
        }
    }

    /// The truncate-and-compare rounding equals `f64::round` on every
    /// half-integer `k + ½` and its two f64 neighbours, for `k < 2²⁰` and
    /// near 2⁵² (where the fraction stops being representable), on the
    /// largest f64 below ½, and on seeded `frac × channels` pairs.
    #[test]
    fn frac_to_count_equals_round() {
        // frac = x / C for a power of two C above x: exact, below 1, and
        // frac * C gives back exactly x, so the clamp never bites.
        fn check(x: f64) {
            let channels = (x as u64 + 1).next_power_of_two();
            let frac = x / channels as f64;
            assert_eq!(frac * channels as f64, x);
            let want = x.round() as u64;
            assert_eq!(
                frac_to_count(frac, channels),
                want,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
        let halves = (0..1u64 << 20).chain((1u64 << 52) - (1 << 12)..(1u64 << 52) + (1 << 12));
        for k in halves {
            let x = k as f64 + 0.5;
            for y in [
                x,
                f64::from_bits(x.to_bits() - 1),
                f64::from_bits(x.to_bits() + 1),
            ] {
                check(y);
            }
        }
        // The largest f64 below ½: a `+ 0.5` then `floor` would round it up.
        check(0.49999999999999994);
        assert_eq!(frac_to_count(0.49999999999999994, 1), 0);
        let mut rng = rcb_sim::Xoshiro256::seeded(0xF7AC);
        for _ in 0..100_000 {
            let bits = 1 + rng.gen_range(40);
            let channels = 1 + rng.gen_range(1 << bits);
            let frac = rng.next_f64();
            assert_eq!(
                frac_to_count(frac, channels),
                round_reference(frac, channels),
                "frac = {frac}, channels = {channels}"
            );
        }
    }

    #[test]
    fn frac_rounding() {
        assert_eq!(frac_to_count(0.0, 10), 0);
        assert_eq!(frac_to_count(1.0, 10), 10);
        assert_eq!(frac_to_count(2.0, 10), 10);
        assert_eq!(frac_to_count(0.9, 10), 9);
        assert_eq!(frac_to_count(0.05, 10), 1, "0.5 rounds up");
        assert_eq!(frac_to_count(-0.5, 10), 0);
    }
}
