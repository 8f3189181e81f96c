//! Tunable constants shared by the protocol implementations.
//!
//! The paper's pseudocode fixes every *ratio* (listen probability `1/64`,
//! halting threshold `R/128 = R·p/2`, helper thresholds `1.5Rp²`, `0.9Rp`,
//! `2.2Rp²`, …) but leaves the leading constants of iteration/phase lengths
//! as "sufficiently large" analysis constants (`a`, `b`) chosen for Chernoff
//! slack at asymptotic scale. Those analysis constants are galactic: taken at
//! face value, `MultiCast`'s first iteration alone is `a·6·4⁶·lg²n ≳ 10⁶`
//! slots and `MultiCastAdv` needs `Θ(1/α)`-epoch waits that multiply run
//! length by `2^{Θ(1)/α}`. For a simulable reproduction we keep every
//! functional form and re-anchor the constants; each deviation is recorded
//! here next to the value it replaces. The `repro` experiments
//! (`crates/bench`) verify the *asymptotic shapes* — which are unaffected
//! by the re-anchoring — empirically.

/// Exact base-2 logarithm of a power of two.
///
/// # Panics
/// Panics if `n` is not a positive power of two (the paper assumes `n` is a
/// power of two throughout; see Section 3).
#[inline]
pub fn lg_pow2(n: u64) -> u32 {
    assert!(n.is_power_of_two(), "{n} is not a power of two");
    n.trailing_zeros()
}

/// `lg(max(x, 2))` as an f64, for lengths like `a·lg T̂`.
#[inline]
pub fn lg_f64(x: u64) -> f64 {
    (x.max(2) as f64).log2()
}

/// Round `x` up to a `u64` slot count, clamped to a sane maximum so schedule
/// arithmetic can never overflow downstream additions.
#[inline]
pub fn ceil_slots(x: f64) -> u64 {
    const MAX: f64 = (1u64 << 60) as f64;
    if x <= 1.0 {
        1
    } else if x >= MAX {
        1u64 << 60
    } else {
        x.ceil() as u64
    }
}

/// Parameters of `MultiCastCore` (Section 4, Figure 1).
#[derive(Clone, Copy, Debug)]
pub struct CoreParams {
    /// Iteration length multiplier: iterations have `R = ⌈a · lg T̂⌉` slots,
    /// `T̂ = max(T, n)`. Paper: `a` is "some sufficiently large constant";
    /// default 10240 — calibrated so one iteration comfortably contains a
    /// complete epidemic broadcast at `p = 1/64`: measured completion is
    /// ≈ 2900·lg n slots (mean; worst of 20 seeds ≈ 1.35×), so `a·lg T̂ ≥
    /// a·lg n` leaves a ≥ 2.5× margin for all `n ≤ 1024`.
    pub a: f64,
    /// Listen/broadcast probability per slot. Paper: `1/64` (the
    /// `coin ← rnd(1, 64)` draw).
    pub p: f64,
    /// Halting threshold as a fraction of `R·p`: halt iff `Nn < ratio·R·p`.
    /// Paper: `R/128`, i.e. `ratio = 1/2` of `R·p` with `p = 1/64`.
    pub halt_ratio: f64,
}

impl Default for CoreParams {
    fn default() -> Self {
        Self {
            a: 10240.0,
            p: 1.0 / 64.0,
            halt_ratio: 0.5,
        }
    }
}

/// Parameters of `MultiCast` (Section 5, Figure 2) and of its
/// channel-limited variant `MultiCast(C)` (Section 7, Figure 5).
#[derive(Clone, Copy, Debug)]
pub struct McParams {
    /// Iteration length multiplier: iteration `i ≥ 6` has
    /// `R_i = ⌈a · i · 4^{i−6} · lg²n⌉` *rounds*. Paper: `R_i = a·i·4^i·lg²n`
    /// with "sufficiently large" `a`; we anchor the geometric growth at the
    /// first iteration (absorbing the paper's `4⁶` into `a`) and default
    /// `a = 512`: measured epidemic completion at `p_6 = 1/64` is
    /// ≈ 2900·lg n slots (worst of 20 seeds ≈ 1.35× that), so
    /// `R_6 = 512·6·lg²n` leaves a ≥ 3× margin for all `n ∈ [16, 1024]`.
    pub a: f64,
    /// First iteration index. Paper: 6 (so that `p_i = 2^{−i}` starts at
    /// `1/64`).
    pub first_iteration: u32,
    /// Halting threshold as a fraction of `R_i·p_i`: halt iff
    /// `Nn < ratio·R_i·p_i`. Paper: `R_i/2^{i+1} = R_i·p_i/2`, i.e. `1/2`.
    pub halt_ratio: f64,
}

impl Default for McParams {
    fn default() -> Self {
        Self {
            a: 512.0,
            first_iteration: 6,
            halt_ratio: 0.5,
        }
    }
}

impl McParams {
    /// Rounds in iteration `i` for network size `n`:
    /// `R_i = ⌈a · i · 4^{i−i₀} · lg²n⌉`.
    pub fn rounds(&self, i: u32, n: u64) -> u64 {
        let lg2n = lg_f64(n) * lg_f64(n);
        let growth = 4f64.powi(i as i32 - self.first_iteration as i32);
        ceil_slots(self.a * i as f64 * growth * lg2n)
    }

    /// Listening/broadcasting probability in iteration `i`: `p_i = 2^{−i}`.
    pub fn p(&self, i: u32) -> f64 {
        0.5f64.powi(i as i32)
    }
}

/// Parameters of `MultiCastAdv` (Section 6, Figure 4) and of its
/// channel-limited variant `MultiCastAdv(C)` (Section 7, Figure 6).
///
/// # Threshold re-anchoring (documented deviation)
///
/// The paper's helper/halt thresholds interlock with its analysis constants
/// (`x₂ = y₂ = 10⁻⁴` blocking fractions, a `⌈2/α⌉`-epoch halt delay and an
/// `11/α`-epoch halt horizon). Taken literally they make the halting noise
/// threshold `Nn ≤ Rp/3000` unreachable until collision noise `≈ 2p²` decays
/// below `1/3000`, i.e. `Θ(1/α)` additional epochs, each `2^{2α}×` longer
/// than the last — a `2^{Θ(1)}/α`-factor blow-up that is pure constant. We
/// re-anchor:
///
/// | quantity            | paper        | here (default) | separation it must keep |
/// |---------------------|--------------|----------------|--------------------------|
/// | `Nm ≥ θ_m·Rp²`      | `θ_m = 1.5`  | `1.2`          | good phase `E ≈ 2e^{−2p}Rp²` above; `j ≥ lg n` phases `E ≤ Rp²` below |
/// | `Ns ≥ θ_s·Rp`       | `θ_s = 0.9`  | `0.75`         | good phase `E ≈ e^{−2p}Rp` above; `j < lg n − 1` large-`p` phases below |
/// | `N'm ≤ θ'_m·Rp²`    | `θ'_m = 2.2` | `2.2`          | good phase `E ≈ 2e^{−2p}Rp²` below; `j < lg n −1` phases `E ≥ 4e^{−4p}Rp²` above |
/// | `Nn ≤ θ_n·Rp`       | `1/3000`     | `1/40`         | collision noise `≈ 2p²` below (needs `p ≲ 0.1`); Eve must push noise above `θ_n` to block halting, paying `Θ(θ_n·n·R)` per blocked epoch |
/// | halt delay (epochs) | `⌈2/α⌉`      | `2`            | halting nodes have `p` reduced `2^{−2α}×` vs. helper formation; promotion thresholds are `p`-monotone so stragglers promote in any clean epoch in between |
///
/// Every separation above is verified empirically by experiment E9 and the
/// `multicast_adv` test suite across `n ∈ {16 … 128}`.
#[derive(Clone, Copy, Debug)]
pub struct AdvParams {
    /// The tunable exponent `α ∈ (0, 1/4)` of Theorem 6.10. Smaller `α`
    /// improves the asymptotic exponents but inflates the constant
    /// (`2^{Θ(1)/α}`), exactly as the paper warns.
    pub alpha: f64,
    /// Phase length multiplier: each step of an `(i, j)`-phase has
    /// `R(i, j) = ⌈b · 2^{2α(i−j)} · i³⌉` slots. Paper: "sufficiently large
    /// constant"; default 2.
    pub b: f64,
    /// Helper threshold on message receptions: `Nm ≥ θ_m·Rp²`.
    pub theta_m: f64,
    /// Helper threshold on silent slots: `Ns ≥ θ_s·Rp`.
    pub theta_s: f64,
    /// Helper cap on message-or-beacon receptions: `N'm ≤ θ'_m·Rp²`.
    pub theta_m_prime: f64,
    /// Halting threshold on noisy slots: `Nn ≤ θ_n·Rp`.
    pub theta_n: f64,
    /// Epochs a helper waits before it may halt (`i − iˆ ≥ halt_delay`).
    pub halt_delay: u32,
    /// Channel cap for `MultiCastAdv(C)`: phases with `j > lg C` are cut
    /// off, and at `j = lg C` the `N'm` condition is dropped (Figure 6).
    /// `None` = unlimited channels (plain `MultiCastAdv`).
    pub channel_cap: Option<u64>,
}

impl Default for AdvParams {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            b: 2.0,
            theta_m: 1.2,
            theta_s: 0.75,
            theta_m_prime: 2.2,
            theta_n: 1.0 / 40.0,
            halt_delay: 2,
            channel_cap: None,
        }
    }
}

impl AdvParams {
    /// Validate the parameter combination.
    pub fn validated(self) -> Self {
        assert!(
            self.alpha > 0.0 && self.alpha < 0.25,
            "alpha must lie in (0, 1/4), got {}",
            self.alpha
        );
        assert!(self.b > 0.0);
        if let Some(c) = self.channel_cap {
            assert!(
                c.is_power_of_two(),
                "channel cap must be a power of two, got {c}"
            );
        }
        self
    }

    /// Step length of an `(i, j)`-phase: `R(i,j) = ⌈b·2^{2α(i−j)}·i³⌉`.
    pub fn r(&self, i: u32, j: u32) -> u64 {
        debug_assert!(j < i);
        let d = (i - j) as f64;
        ceil_slots(self.b * 2f64.powf(2.0 * self.alpha * d) * (i as f64).powi(3))
    }

    /// Action probability of an `(i, j)`-phase: `p(i,j) = 2^{−α(i−j)}/2`.
    pub fn p(&self, i: u32, j: u32) -> f64 {
        debug_assert!(j < i);
        let d = (i - j) as f64;
        2f64.powf(-self.alpha * d) / 2.0
    }

    /// Highest phase index in epoch `i` (inclusive): `min(i−1, lg C)`.
    pub fn max_phase(&self, i: u32) -> u32 {
        let natural = i - 1;
        match self.channel_cap {
            Some(c) => natural.min(lg_pow2(c)),
            None => natural,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lg_pow2_on_powers() {
        assert_eq!(lg_pow2(1), 0);
        assert_eq!(lg_pow2(2), 1);
        assert_eq!(lg_pow2(1024), 10);
    }

    #[test]
    #[should_panic]
    fn lg_pow2_rejects_non_powers() {
        lg_pow2(24);
    }

    #[test]
    fn ceil_slots_clamps() {
        assert_eq!(ceil_slots(0.3), 1);
        assert_eq!(ceil_slots(2.2), 3);
        assert_eq!(ceil_slots(f64::INFINITY), 1u64 << 60);
    }

    #[test]
    fn mc_iteration_lengths_grow_4x_per_iteration() {
        let p = McParams::default();
        let r6 = p.rounds(6, 256);
        let r7 = p.rounds(7, 256);
        let r8 = p.rounds(8, 256);
        // R_i = a·i·4^{i−6}·lg²n: ratio between consecutive iterations is
        // 4·(i+1)/i.
        assert_eq!(r6, (512.0 * 6.0 * 64.0) as u64);
        assert!((r7 as f64 / r6 as f64 - 4.0 * 7.0 / 6.0).abs() < 0.01);
        assert!((r8 as f64 / r7 as f64 - 4.0 * 8.0 / 7.0).abs() < 0.01);
    }

    #[test]
    fn mc_probability_halves_each_iteration() {
        let p = McParams::default();
        assert_eq!(p.p(6), 1.0 / 64.0);
        assert_eq!(p.p(7), 1.0 / 128.0);
    }

    #[test]
    fn adv_r_and_p_follow_formulas() {
        let a = AdvParams {
            alpha: 0.25 - 1e-9,
            b: 1.0,
            ..AdvParams::default()
        };
        // i − j = 4, alpha ≈ 1/4: 2^{2·(1/4)·4} = 4; i³ = 1000.
        let r = a.r(10, 6);
        assert!((r as f64 - 4.0 * 1000.0).abs() / 4000.0 < 0.01, "r = {r}");
        let p = a.p(10, 6);
        assert!((p - 0.25).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn adv_p_decreases_in_distance() {
        let a = AdvParams::default();
        assert!(a.p(10, 9) > a.p(10, 5));
        assert!(a.p(10, 5) > a.p(20, 5));
        assert!(a.p(7, 6) <= 0.5);
    }

    #[test]
    fn adv_phase_cap() {
        let mut a = AdvParams::default();
        assert_eq!(a.max_phase(5), 4);
        a.channel_cap = Some(4); // lg C = 2
        assert_eq!(a.max_phase(5), 2);
        assert_eq!(a.max_phase(2), 1, "cap not binding in early epochs");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn adv_rejects_alpha_out_of_range() {
        AdvParams {
            alpha: 0.3,
            ..AdvParams::default()
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn adv_rejects_non_pow2_cap() {
        AdvParams {
            channel_cap: Some(6),
            ..AdvParams::default()
        }
        .validated();
    }
}
