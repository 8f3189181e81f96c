//! Exact Bernoulli-subset sampling via geometric skips.
//!
//! In every protocol of the paper, each active node independently acts in a
//! slot with a small probability `p` (e.g. `1/64` in `MultiCastCore`,
//! `1/2ⁱ` in iteration `i` of `MultiCast`). Iterating all `n` nodes per slot
//! to flip those coins would make the simulator `O(n)` per slot; instead we
//! sample the *gaps* between selected indices, which are i.i.d.
//! `Geometric(p)`. This produces exactly the same distribution as `m`
//! independent Bernoulli draws — see `bernoulli_subset_matches_dense` below,
//! which cross-validates against the dense method — in `O(p·m)` expected time.
//!
//! # The gap guide: exact gaps without `ln`
//!
//! Each gap is one inversion `⌊ln(1−U)/ln q⌋` with `q = 1 − p`: a libm `ln`
//! and a divide, the largest single cost of the engine's slot loop. A
//! [`TwoClassRoundStream`] whose segment makes at least half of its gaps
//! below 64 (`0 < p < 1` and `q⁶⁴ ≤ ½`) therefore carries a *gap guide*: a
//! 4096-entry `u8` table indexed by the top 12 bits of the raw draw word.
//! Bucket `b` holds the draws with `U ∈ [b/4096, (b+1)/4096)`; its entry is
//! either the gap every draw in the bucket yields, or a sentinel that sends
//! the draw to the inversion. Either way the draw consumes the same single
//! word, so RNG consumption and every output are unchanged.
//!
//! *Construction.* With `x = 1 − U` (exact in f64), `gap ≥ k ⟺ x ≤ qᵏ`.
//! Boundary `k` gets the zone `[qᵏ(1 − G), qᵏ(1 + G)]` in `x`, `G = 2⁻³⁰`.
//! Only `k < 64` with `qᵏ ≥ 2⁻²⁰` are covered. A bucket no zone touches
//! gets the number of boundaries it lies above; every bucket a zone touches,
//! and every bucket past the last covered boundary, gets the sentinel. The
//! `qᵏ` come from repeated multiplication of `exp(ln q)`, and the table is
//! written in one pass over the covered boundaries, not bucket by bucket.
//!
//! *Why an answered draw is exact.* Let `Q = ln x / ln q` be the exact
//! quotient, so the true gap is `⌊Q⌋`.
//! - The `qᵏ` products carry about a hundred ulps (`≤ 2⁻⁴⁵` relative) of
//!   error, and rounding `1 − qᵏ(1 ± G)` to f64 moves a zone edge by at most
//!   `2⁻⁵³ ≤ G·qᵏ/8` in `U`, because `qᵏ ≥ 2⁻²⁰`. So every draw of an
//!   answered bucket has `x` outside `[qᵏ(1 − G/2), qᵏ(1 + G/2)]` for every
//!   covered `k`, and `x > q^K(1 + G/2)` for the last covered `K ≤ 63`.
//! - Hence `Q < 63`, and `Q` lies at least `ln(1 + G/2)/|ln q| ≥ 1.2·10⁻¹¹`
//!   from every integer: `p < 1` in f64 gives `|ln q| ≤ 36.8`.
//! - The computed `fl(fl(ln x)/ln q)` is within `64·3·2⁻⁵³ ≈ 2·10⁻¹⁴` of `Q`
//!   for any `ln` within 1 ulp, so truncating it gives `⌊Q⌋` — the entry.
//!   The margin is several hundred times the error it must absorb.
//!
//! Draws past the covered boundaries or inside a zone take the inversion
//! itself, so the guide needs no claim about them. [`geometric_gap`] keeps
//! the plain inversion for its other callers ([`bernoulli_subset`] and the
//! adversaries' sojourn jumps).
//!
//! # The round sampler
//!
//! [`TwoClassRoundStream::next_round_into`] is the engine's per-round
//! actor sampler, and its shape is chosen for the slot loop:
//! - *Two cursors, no pushes.* Each actor's index is stored into both
//!   caller-owned class slices and only its class's cursor advances
//!   (`n1 += first; n2 += !first`). A push onto the vector the
//!   unpredictable class coin picks reloads that vector's pointer and
//!   length on every actor.
//! - *The class rule once per call.* `gen_bool(frac1)` has draw-free cases
//!   (one-sided classes, `frac1 ≤ 0`, `frac1 ≥ 1`); the stream resolves
//!   them when it opens, and a call matches on the rule once and runs an
//!   actor loop specialized to it. The draw-free cases draw nothing, as
//!   `gen_bool` does not.
//! - *Register-resident state.* The RNG and the carried gap are copied
//!   into locals and written back once per call; updated through the
//!   `&mut`, the generator's four state words and draw count would go back
//!   to memory on every draw. A guide miss takes its `ln` through a cold,
//!   out-of-line helper, so the call's spills stay off the guided path.
//! - *Out of line.* The sampler is `#[inline(never)]`: inlined into the
//!   engine's slot loop it competes with that loop for registers, and the
//!   same code measured slower there.

use crate::rng::Xoshiro256;

/// Append to `out` a sorted sample of `0..m` where each index is included
/// independently with probability `p`.
///
/// Exactness: the gap between consecutive selected indices (and the offset of
/// the first) is distributed `Geometric(p)` on `{0, 1, …}`; each is one
/// [`geometric_gap`] draw.
pub fn bernoulli_subset(rng: &mut Xoshiro256, m: usize, p: f64, out: &mut Vec<u32>) {
    if m == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..m as u32);
        return;
    }
    let ln_q = (1.0 - p).ln();
    let m = m as u64;
    let mut i: u64 = 0;
    loop {
        let skip = geometric_gap(rng, ln_q);
        if skip >= m {
            break; // next selected index would be past the end
        }
        i += skip;
        if i >= m {
            break;
        }
        out.push(i as u32);
        i += 1;
        if i >= m {
            break;
        }
    }
}

/// Reference implementation: flip one coin per index. Used by tests and by
/// the engine's dense cross-validation mode.
pub fn bernoulli_subset_dense(rng: &mut Xoshiro256, m: usize, p: f64, out: &mut Vec<u32>) {
    for i in 0..m {
        if rng.gen_bool(p) {
            out.push(i as u32);
        }
    }
}

/// Sample two *mutually exclusive* index classes over `0..m`:
/// each index lands in class 1 with probability `p1`, in class 2 with
/// probability `p2`, and in neither with probability `1 − p1 − p2`,
/// independently across indices.
///
/// This models the per-node coin of the paper's pseudocode
/// (`coin ← rnd(1, 1/p)`; `coin == 1` → one action, `coin == 2` → another):
/// we first sample the union (an index acts w.p. `p1 + p2`) and then assign
/// each actor to class 1 w.p. `p1/(p1+p2)` — an exact multinomial thinning.
///
/// # Panics
/// Panics if `p1 + p2 > 1 + ε`.
pub fn sample_two_class(
    rng: &mut Xoshiro256,
    m: usize,
    p1: f64,
    p2: f64,
    class1: &mut Vec<u32>,
    class2: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    debug_assert!(p1 >= 0.0 && p2 >= 0.0);
    let total = p1 + p2;
    assert!(
        total <= 1.0 + 1e-12,
        "action probabilities must satisfy p1 + p2 <= 1 (got {p1} + {p2})"
    );
    if total <= 0.0 || m == 0 {
        return;
    }
    scratch.clear();
    bernoulli_subset(rng, m, total.min(1.0), scratch);
    if p2 <= 0.0 {
        class1.extend_from_slice(scratch);
        return;
    }
    if p1 <= 0.0 {
        class2.extend_from_slice(scratch);
        return;
    }
    let frac1 = p1 / total;
    for &idx in scratch.iter() {
        if rng.gen_bool(frac1) {
            class1.push(idx);
        } else {
            class2.push(idx);
        }
    }
}

/// Draw `Geometric(p)` on `{0, 1, …}` by inversion — `⌊ln(1−U)/ln(1−p)⌋` —
/// from a precomputed `ln_q = ln(1 − p)`, saturating to `u64::MAX`
/// ("never") on overflow or a degenerate draw.
///
/// `ln_q` must be finite and non-positive: `p ∈ (0, 1)`, where a `p` below
/// f64 resolution rounds `ln_q` to zero and never succeeds. Callers
/// special-case `p ≤ 0` (never succeeds) and `p ≥ 1` (always succeeds)
/// themselves. Shared by [`bernoulli_subset`], [`TwoClassRoundStream`] and
/// the sojourn-jump adversaries in `rcb-adversary` so the numerically
/// subtle edge cases (`U → 1`, tiny `p`, f64→u64 saturation) live in
/// exactly one place.
#[inline]
pub fn geometric_gap(rng: &mut Xoshiro256, ln_q: f64) -> u64 {
    debug_assert!(ln_q.is_finite() && ln_q <= 0.0, "ln_q = {ln_q}");
    gap_from_uniform(rng.next_f64(), ln_q)
}

/// The inversion of [`geometric_gap`] for one uniform `u ∈ [0, 1)`.
///
/// No `floor`: `1 − u ∈ (0, 1]`, so `ln(1 − u) ≤ 0`, and with `ln_q < 0`
/// the quotient is never negative (at worst `−0.0`, at `u = 0`). Casting a
/// non-negative finite f64 below 2⁶⁴ truncates toward zero, which is
/// exactly the floor, and saves a libm call on targets without a rounding
/// instruction (baseline x86-64). Every non-finite quotient — `+inf` from
/// a tiny `|ln_q|`, and the `−inf`/NaN of `ln_q = 0` — saturates.
#[inline]
fn gap_from_uniform(u: f64, ln_q: f64) -> u64 {
    let gap = (1.0 - u).ln() / ln_q;
    if gap.is_finite() && gap < u64::MAX as f64 {
        gap as u64
    } else {
        u64::MAX
    }
}

/// Entries of a gap guide: one per value of a draw word's top 12 bits.
const GUIDE_LEN: usize = 1 << 12;
/// The guide entry that sends a draw to the exact inversion.
const GUIDE_MISS: u8 = u8::MAX;
/// Relative half-width `G` of the zone around each boundary `qᵏ`.
const GUIDE_BAND: f64 = 1.0 / (1u64 << 30) as f64;
/// Smallest boundary `qᵏ` the guide covers (`2⁻²⁰`).
const GUIDE_MIN_BOUNDARY: f64 = 1.0 / (1u64 << 20) as f64;

/// A segment's gap guide: entry `b` answers the draw words whose top 12
/// bits are `b` (see the module docs for the construction and why it is
/// exact).
#[derive(Clone)]
struct GapGuide(Box<[u8; GUIDE_LEN]>);

impl GapGuide {
    /// The guide of a segment with `ln_q = ln(1 − p)`, or `None` when fewer
    /// than half of its gaps are below 64 (`q⁶⁴ > ½`, including `ln_q = 0`).
    fn new(ln_q: f64) -> Option<Self> {
        if ln_q * 64.0 > -std::f64::consts::LN_2 {
            return None;
        }
        let q = ln_q.exp();
        let bucket = |u: f64| (u * GUIDE_LEN as f64) as usize;
        let mut guide: Vec<u8> = Vec::with_capacity(GUIDE_LEN);
        // `qk = q^(k+1)`: a draw with 1 − U ≤ qk has gap at least k + 1, so
        // the buckets up to that boundary's zone get gap k.
        let mut qk = q;
        for k in 0..63u8 {
            if qk < GUIDE_MIN_BOUNDARY {
                break;
            }
            let zone_lo = bucket(1.0 - qk * (1.0 + GUIDE_BAND));
            let zone_hi = bucket(1.0 - qk * (1.0 - GUIDE_BAND));
            if zone_lo > guide.len() {
                guide.resize(zone_lo, k);
            }
            guide.resize(guide.len().max(zone_hi + 1), GUIDE_MISS);
            qk *= q;
        }
        guide.resize(GUIDE_LEN, GUIDE_MISS);
        guide.into_boxed_slice().try_into().ok().map(Self)
    }

    /// The gap of draw word `word`, or `None` when it must take the
    /// inversion.
    #[inline]
    fn gap(&self, word: u64) -> Option<u64> {
        let entry = self.0[(word >> 52) as usize];
        (entry != GUIDE_MISS).then_some(entry as u64)
    }
}

/// A summary, not 4096 entries.
impl std::fmt::Debug for GapGuide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let answered = self.0.iter().filter(|&&e| e != GUIDE_MISS).count();
        write!(f, "GapGuide({answered}/{GUIDE_LEN} buckets answered)")
    }
}

/// Segment-scoped two-class actor sampling with a geometric skip carried
/// **across rounds** — the sampling substrate of the engine's idle-round
/// fast-forward.
///
/// Conceptually, a segment of `R` rounds over `m` active nodes is one long
/// Bernoulli(`p1 + p2`) process over `R·m` indices, chopped into rounds of
/// `m`: index `I` is round `I / m`, node `I % m`. By memorylessness of the
/// geometric gap this is *exactly* the same joint distribution as drawing
/// each round independently (the restart-per-round scheme of
/// [`sample_two_class`]), but it has a property the restart scheme lacks:
/// **an empty round consumes no randomness**. When the carried gap exceeds
/// `m`, the stream already knows — without touching the RNG — that the next
/// `gap / m` whole rounds select nobody, so the engine can fast-forward
/// them in O(1) ([`skip_rounds`](Self::skip_rounds)) and produce the exact
/// same downstream stream state as if it had executed them one by one
/// ([`next_round_into`](Self::next_round_into) on an empty round just
/// subtracts `m`).
///
/// Selected actors are thinned into class 1 (probability `p1 / (p1 + p2)`)
/// or class 2 with one `gen_bool` draw each, as in [`sample_two_class`].
/// Which of `gen_bool`'s cases applies is fixed when the stream opens: a
/// one-sided segment, or a class-1 fraction that rounds to `≤ 0` or `≥ 1`,
/// sends every actor to one class and draws no class word, exactly as
/// `gen_bool` would not; otherwise each actor draws one word. A round
/// matches on that rule once, so its actor loop has no per-actor branch
/// on the rule.
///
/// When at least half of the segment's gaps are below 64 (`q⁶⁴ ≤ ½` with
/// `q = 1 − p1 − p2`), the stream builds a 4 KiB *gap guide* on opening
/// and answers most gap draws from it without `ln`: the top 12 bits of the
/// draw word pick an entry that is either the gap every draw with those
/// bits provably yields, or a sentinel that falls back to the inversion of
/// [`geometric_gap`] on the same word. Every gap, class list and RNG state
/// is therefore identical to the guide-free stream; the module docs give
/// the exactness argument.
#[derive(Clone, Debug)]
pub struct TwoClassRoundStream {
    m: u64,
    total: f64,
    /// How each actor picks its class (fixed for the segment).
    coin: ClassCoin,
    /// `ln(1 − total)` when `0 < total < 1` (unused otherwise).
    ln_q: f64,
    /// The segment's gap guide (see the module docs), if it has one.
    guide: Option<GapGuide>,
    /// Concatenated-process indices still to skip before the next selected
    /// node. `u64::MAX` means "no further selection, ever".
    gap: u64,
}

/// The class rule of a segment: `gen_bool(frac1)` with `frac1 = p1 / (p1 +
/// p2)`, its draw-free cases resolved once.
#[derive(Clone, Copy, Debug)]
enum ClassCoin {
    /// Every actor lands in class 1 (`true`) or class 2 (`false`) without
    /// a draw: one-sided classes, or `frac1 ≥ 1` / `frac1 ≤ 0`.
    Fixed(bool),
    /// Each actor draws one word and joins class 1 iff its uniform is
    /// below `frac1` (`0 < frac1 < 1`).
    Draw(f64),
}

impl TwoClassRoundStream {
    /// Open a stream for a segment with `m` active nodes and class
    /// probabilities `p1`, `p2`. Draws the initial gap (one uniform) unless
    /// the segment trivially selects nobody (`p1 + p2 ≤ 0`) or everybody
    /// (`p1 + p2 ≥ 1`).
    ///
    /// # Panics
    /// Panics if `p1 + p2 > 1 + ε` or `m == 0`.
    pub fn new(rng: &mut Xoshiro256, m: usize, p1: f64, p2: f64) -> Self {
        debug_assert!(p1 >= 0.0 && p2 >= 0.0);
        let total = p1 + p2;
        assert!(
            total <= 1.0 + 1e-12,
            "action probabilities must satisfy p1 + p2 <= 1 (got {p1} + {p2})"
        );
        assert!(m > 0, "a segment needs at least one active node");
        let frac1 = if total > 0.0 { p1 / total } else { 0.0 };
        // `gen_bool(p)` answers `p ≤ 0` and `p ≥ 1` without a draw.
        let coin = if p2 <= 0.0 || frac1 >= 1.0 {
            ClassCoin::Fixed(true)
        } else if p1 <= 0.0 || frac1 <= 0.0 {
            ClassCoin::Fixed(false)
        } else {
            ClassCoin::Draw(frac1)
        };
        let draws_gaps = total > 0.0 && total < 1.0;
        let ln_q = if draws_gaps { (1.0 - total).ln() } else { 0.0 };
        let guide = GapGuide::new(ln_q);
        let gap = if total <= 0.0 {
            u64::MAX
        } else if draws_gaps {
            guided_gap(rng, guide.as_ref(), ln_q)
        } else {
            0
        };
        Self {
            m: m as u64,
            total,
            coin,
            ln_q,
            guide,
            gap,
        }
    }

    /// Number of whole rounds, starting at the current round, that are
    /// guaranteed to select no actor. `0` means the current round has at
    /// least one. Costs no randomness.
    #[inline]
    pub fn empty_rounds_ahead(&self) -> u64 {
        if self.gap < self.m {
            0
        } else if self.gap == u64::MAX {
            u64::MAX
        } else {
            self.gap / self.m
        }
    }

    /// Skip `k` whole rounds, all of which must be empty
    /// (`k ≤ empty_rounds_ahead()`). O(1), no randomness.
    #[inline]
    pub fn skip_rounds(&mut self, k: u64) {
        if self.gap != u64::MAX {
            debug_assert!(k <= self.gap / self.m, "skipping a non-empty round");
            self.gap -= k * self.m;
        }
    }

    /// Sample the acting subset of the current round, then advance to the
    /// next round. Returns `(n1, n2)`: `class1[..n1]` and `class2[..n2]`
    /// are the two classes' node indices (in `[0, m)`, strictly
    /// increasing). Each actor's index is written to both slices and only
    /// its class's cursor advances; the caller sizes the slices once for
    /// its largest pool, since a round has at most `m` actors. Out of line,
    /// with the RNG in locals: see "The round sampler" in the module docs.
    ///
    /// # Panics
    /// Panics if a slice is shorter than the round's actor count.
    #[inline(never)]
    pub fn next_round_into(
        &mut self,
        rng: &mut Xoshiro256,
        class1: &mut [u32],
        class2: &mut [u32],
    ) -> (usize, usize) {
        match self.coin {
            ClassCoin::Fixed(first) => self.fill_round(rng, class1, class2, |_| first),
            ClassCoin::Draw(frac1) => {
                self.fill_round(rng, class1, class2, |r| r.next_f64() < frac1)
            }
        }
    }

    /// The actor loop of [`next_round_into`](Self::next_round_into), for
    /// one class rule: `coin` answers "class 1?" per actor, class draw
    /// first, then the actor's gap draw, as in the inversion stream.
    #[inline(always)]
    fn fill_round(
        &mut self,
        rng: &mut Xoshiro256,
        class1: &mut [u32],
        class2: &mut [u32],
        mut coin: impl FnMut(&mut Xoshiro256) -> bool,
    ) -> (usize, usize) {
        let mut r = rng.clone();
        let mut gap = self.gap;
        let (m, ln_q, guide) = (self.m, self.ln_q, self.guide.as_ref());
        let (mut n1, mut n2) = (0usize, 0usize);
        let mut place = |idx: u32, first: bool| {
            class1[n1] = idx;
            class2[n2] = idx;
            n1 += first as usize;
            n2 += !first as usize;
        };
        if self.total >= 1.0 {
            // Every node acts every round; only the class draw remains.
            for idx in 0..m as u32 {
                place(idx, coin(&mut r));
            }
        } else {
            while gap < m {
                place(gap as u32, coin(&mut r));
                gap = (gap + 1).saturating_add(guided_gap(&mut r, guide, ln_q));
            }
            if gap != u64::MAX {
                gap -= m;
            }
        }
        *rng = r;
        self.gap = gap;
        (n1, n2)
    }
}

/// One geometric gap draw from a segment's cached `ln(1 − p)`: one word,
/// answered by the guide when it can, otherwise inverted exactly as
/// [`geometric_gap`] would invert it.
#[inline(always)]
fn guided_gap(rng: &mut Xoshiro256, guide: Option<&GapGuide>, ln_q: f64) -> u64 {
    let word = rng.next_u64();
    match guide.and_then(|g| g.gap(word)) {
        Some(gap) => gap,
        None => invert_word(word, ln_q),
    }
}

/// The inversion of a draw word no guide answers. Cold and out of line, so
/// the `ln` call's register spills stay off the guided path.
#[cold]
#[inline(never)]
fn invert_word(word: u64, ln_q: f64) -> u64 {
    gap_from_uniform(Xoshiro256::unit_f64(word), ln_q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_count(p: f64, m: usize, trials: usize, seed: u64) -> (f64, f64) {
        let mut rng = Xoshiro256::seeded(seed);
        let mut out = Vec::new();
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..trials {
            out.clear();
            bernoulli_subset(&mut rng, m, p, &mut out);
            let k = out.len() as f64;
            sum += k;
            sum2 += k * k;
        }
        let mean = sum / trials as f64;
        let var = sum2 / trials as f64 - mean * mean;
        (mean, var)
    }

    #[test]
    fn output_is_sorted_unique_in_range() {
        let mut rng = Xoshiro256::seeded(1);
        let mut out = Vec::new();
        for _ in 0..1000 {
            out.clear();
            bernoulli_subset(&mut rng, 500, 0.07, &mut out);
            for w in out.windows(2) {
                assert!(w[0] < w[1], "not strictly increasing: {out:?}");
            }
            if let Some(&last) = out.last() {
                assert!((last as usize) < 500);
            }
        }
    }

    #[test]
    fn p_zero_selects_nothing_p_one_selects_all() {
        let mut rng = Xoshiro256::seeded(2);
        let mut out = Vec::new();
        bernoulli_subset(&mut rng, 100, 0.0, &mut out);
        assert!(out.is_empty());
        bernoulli_subset(&mut rng, 100, 1.0, &mut out);
        assert_eq!(out, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_population() {
        let mut rng = Xoshiro256::seeded(2);
        let mut out = Vec::new();
        bernoulli_subset(&mut rng, 0, 0.5, &mut out);
        assert!(out.is_empty());
    }

    /// Mean and variance of the selected count must match Binomial(m, p).
    #[test]
    fn count_matches_binomial_moments() {
        for &(p, m) in &[
            (1.0 / 64.0, 1024usize),
            (0.25, 64),
            (0.9, 32),
            (0.005, 4096),
        ] {
            let trials = 20_000;
            let (mean, var) = mean_count(p, m, trials, 77);
            let em = m as f64 * p;
            let ev = m as f64 * p * (1.0 - p);
            // 5-sigma band on the sample mean.
            let mean_sd = (ev / trials as f64).sqrt();
            assert!(
                (mean - em).abs() < 5.0 * mean_sd + 1e-9,
                "p={p} m={m}: mean {mean} vs {em}"
            );
            assert!(
                (var - ev).abs() / ev.max(1e-9) < 0.15,
                "p={p} m={m}: var {var} vs {ev}"
            );
        }
    }

    /// Each individual index must be selected with probability p (no position
    /// bias from the skip process).
    #[test]
    fn per_index_inclusion_probability_is_uniform() {
        let m = 64;
        let p = 0.1;
        let trials = 60_000;
        let mut rng = Xoshiro256::seeded(123);
        let mut hits = vec![0usize; m];
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            bernoulli_subset(&mut rng, m, p, &mut out);
            for &i in &out {
                hits[i as usize] += 1;
            }
        }
        let sd = (trials as f64 * p * (1.0 - p)).sqrt();
        for (i, h) in hits.iter().enumerate() {
            let z = (*h as f64 - trials as f64 * p) / sd;
            assert!(z.abs() < 5.0, "index {i}: z = {z}");
        }
    }

    /// Sparse and dense implementations must agree in distribution.
    #[test]
    fn bernoulli_subset_matches_dense() {
        let m = 256;
        let p = 1.0 / 32.0;
        let trials = 30_000;
        let mut rng_a = Xoshiro256::seeded(5);
        let mut rng_b = Xoshiro256::seeded(6);
        let (mut sum_a, mut sum_b) = (0usize, 0usize);
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            bernoulli_subset(&mut rng_a, m, p, &mut out);
            sum_a += out.len();
            out.clear();
            bernoulli_subset_dense(&mut rng_b, m, p, &mut out);
            sum_b += out.len();
        }
        let ma = sum_a as f64 / trials as f64;
        let mb = sum_b as f64 / trials as f64;
        let sd = (m as f64 * p * (1.0 - p) / trials as f64).sqrt();
        assert!((ma - mb).abs() < 6.0 * sd, "sparse {ma} vs dense {mb}");
    }

    #[test]
    fn two_class_marginals() {
        let m = 512;
        let (p1, p2) = (1.0 / 64.0, 1.0 / 64.0);
        let trials = 40_000;
        let mut rng = Xoshiro256::seeded(9);
        let (mut c1, mut c2, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let (mut n1, mut n2) = (0usize, 0usize);
        for _ in 0..trials {
            c1.clear();
            c2.clear();
            sample_two_class(&mut rng, m, p1, p2, &mut c1, &mut c2, &mut scratch);
            n1 += c1.len();
            n2 += c2.len();
            // Exclusivity: no index in both classes.
            for &i in &c1 {
                assert!(!c2.contains(&i));
            }
        }
        let e = m as f64 * p1;
        let sd = (m as f64 * p1 * (1.0 - p1)).sqrt() * (trials as f64).sqrt();
        assert!(((n1 as f64) - e * trials as f64).abs() < 6.0 * sd);
        assert!(((n2 as f64) - e * trials as f64).abs() < 6.0 * sd);
    }

    #[test]
    fn two_class_full_saturation() {
        // p1 + p2 == 1: every index must be selected into exactly one class.
        let mut rng = Xoshiro256::seeded(33);
        let (mut c1, mut c2, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        sample_two_class(&mut rng, 100, 0.5, 0.5, &mut c1, &mut c2, &mut scratch);
        assert_eq!(c1.len() + c2.len(), 100);
    }

    #[test]
    #[should_panic]
    fn two_class_rejects_super_unit_mass() {
        let mut rng = Xoshiro256::seeded(33);
        let (mut c1, mut c2, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        sample_two_class(&mut rng, 10, 0.7, 0.7, &mut c1, &mut c2, &mut scratch);
    }

    /// One [`TwoClassRoundStream::next_round_into`] round through buffers
    /// sized for the whole pool, returned as the two class lists.
    fn round(stream: &mut TwoClassRoundStream, rng: &mut Xoshiro256) -> (Vec<u32>, Vec<u32>) {
        let m = stream.m as usize;
        let (mut c1, mut c2) = (vec![0; m], vec![0; m]);
        let (n1, n2) = stream.next_round_into(rng, &mut c1, &mut c2);
        c1.truncate(n1);
        c2.truncate(n2);
        (c1, c2)
    }

    /// The carried-gap stream must produce the same per-round selection
    /// distribution as independent per-round sampling.
    #[test]
    fn round_stream_matches_restart_sampling_in_distribution() {
        let m = 128usize;
        let (p1, p2) = (1.0 / 64.0, 1.0 / 64.0);
        let rounds_per_stream = 50;
        let streams = 800;
        let mut rng = Xoshiro256::seeded(404);
        let (mut n1, mut n2) = (0usize, 0usize);
        let mut hits = vec![0u64; m];
        for _ in 0..streams {
            let mut stream = TwoClassRoundStream::new(&mut rng, m, p1, p2);
            for _ in 0..rounds_per_stream {
                let (c1, c2) = round(&mut stream, &mut rng);
                for w in c1.windows(2) {
                    assert!(w[0] < w[1]);
                }
                n1 += c1.len();
                n2 += c2.len();
                for &i in c1.iter().chain(c2.iter()) {
                    hits[i as usize] += 1;
                }
            }
        }
        let rounds = (rounds_per_stream * streams) as f64;
        let e = m as f64 * p1 * rounds;
        let sd = (m as f64 * p1 * (1.0 - p1) * rounds).sqrt();
        assert!((n1 as f64 - e).abs() < 6.0 * sd, "class1 {n1} vs {e}");
        assert!((n2 as f64 - e).abs() < 6.0 * sd, "class2 {n2} vs {e}");
        // No position bias from the carried gap.
        let p = p1 + p2;
        let per_idx_sd = (rounds * p * (1.0 - p)).sqrt();
        for (i, &h) in hits.iter().enumerate() {
            let z = (h as f64 - rounds * p) / per_idx_sd;
            assert!(z.abs() < 5.5, "index {i}: z = {z:.2}");
        }
    }

    /// `skip_rounds(k)` must leave the stream in exactly the state that
    /// executing the k empty rounds one by one would.
    #[test]
    fn round_stream_skip_equals_stepping_through_empty_rounds() {
        let m = 64usize;
        let p = 1.0 / 512.0;
        let mut rng_a = Xoshiro256::seeded(9);
        let mut rng_b = Xoshiro256::seeded(9);
        let mut a = TwoClassRoundStream::new(&mut rng_a, m, p, p);
        let mut b = TwoClassRoundStream::new(&mut rng_b, m, p, p);
        let mut skipped = 0u64;
        for _ in 0..2_000 {
            let ahead = a.empty_rounds_ahead();
            assert_eq!(ahead, b.empty_rounds_ahead());
            if ahead > 0 {
                // a jumps; b steps through each empty round.
                a.skip_rounds(ahead);
                for _ in 0..ahead {
                    let (c1b, c2b) = round(&mut b, &mut rng_b);
                    assert!(c1b.is_empty() && c2b.is_empty(), "round was not empty");
                }
                skipped += ahead;
            }
            let (c1a, c2a) = round(&mut a, &mut rng_a);
            let (c1b, c2b) = round(&mut b, &mut rng_b);
            assert_eq!((&c1a, &c2a), (&c1b, &c2b));
            assert!(!c1a.is_empty() || !c2a.is_empty(), "post-skip round empty");
        }
        assert!(skipped > 1_000, "sparse stream should skip many rounds");
    }

    #[test]
    fn round_stream_degenerate_probabilities() {
        let mut rng = Xoshiro256::seeded(7);
        // p1 + p2 == 0: nobody ever acts, infinitely many empty rounds.
        let mut none = TwoClassRoundStream::new(&mut rng, 10, 0.0, 0.0);
        assert_eq!(none.empty_rounds_ahead(), u64::MAX);
        let (c1, c2) = round(&mut none, &mut rng);
        assert!(c1.is_empty() && c2.is_empty());
        none.skip_rounds(1 << 40); // no-op, must not underflow
        assert_eq!(none.empty_rounds_ahead(), u64::MAX);
        // p1 + p2 == 1: everyone acts every round.
        let mut all = TwoClassRoundStream::new(&mut rng, 10, 0.5, 0.5);
        assert_eq!(all.empty_rounds_ahead(), 0);
        let (c1, c2) = round(&mut all, &mut rng);
        assert_eq!(c1.len() + c2.len(), 10);
        // One-sided classes take the draw-free path.
        let mut one_sided = TwoClassRoundStream::new(&mut rng, 100, 1.0, 0.0);
        let draws = rng.draws();
        let (c1, c2) = round(&mut one_sided, &mut rng);
        assert_eq!(c1, (0..100).collect::<Vec<u32>>());
        assert!(c2.is_empty());
        assert_eq!(rng.draws(), draws, "a one-sided full round draws nothing");
    }

    /// The inversion as written before the floor was dropped: the
    /// reference `geometric_gap` must reproduce bit for bit.
    fn floor_reference_gap(u: f64, ln_q: f64) -> u64 {
        let gap = ((1.0 - u).ln() / ln_q).floor();
        if gap.is_finite() && gap < u64::MAX as f64 {
            gap as u64
        } else {
            u64::MAX
        }
    }

    const EXACTNESS_PS: [f64; 6] = [1e-12, 1e-6, 1.0 / 64.0, 0.3, 0.87, 0.999999];

    #[test]
    fn geometric_gap_equals_the_floor_reference() {
        for (k, &p) in EXACTNESS_PS.iter().enumerate() {
            let ln_q = (1.0 - p).ln();
            let mut rng = Xoshiro256::seeded(0x6A9 + k as u64);
            let mut reference = rng.clone();
            for _ in 0..100_000 {
                let want = floor_reference_gap(reference.next_f64(), ln_q);
                assert_eq!(geometric_gap(&mut rng, ln_q), want, "p = {p}");
            }
        }
    }

    #[test]
    fn geometric_gap_edge_uniforms_match_the_floor_reference() {
        // The largest uniform `next_f64` returns.
        let u_max = 1.0 - f64::EPSILON / 2.0;
        for &p in &EXACTNESS_PS {
            let ln_q = (1.0 - p).ln();
            // U = 0: the quotient is −0.0, and the gap is 0.
            assert_eq!((1.0f64 - 0.0).ln() / ln_q, 0.0);
            assert!(((1.0f64 - 0.0).ln() / ln_q).is_sign_negative());
            assert_eq!(gap_from_uniform(0.0, ln_q), 0, "p = {p}");
            assert_eq!(floor_reference_gap(0.0, ln_q), 0, "p = {p}");
            assert_eq!(
                gap_from_uniform(u_max, ln_q),
                floor_reference_gap(u_max, ln_q),
                "p = {p}, U = 1 - 2^-53"
            );
        }
        // A vanishing |ln_q| overflows u64 on every draw: saturate.
        let ln_q = -1e-300;
        assert_eq!(gap_from_uniform(u_max, ln_q), u64::MAX);
        let mut rng = Xoshiro256::seeded(0x5A7);
        for _ in 0..10_000 {
            assert_eq!(geometric_gap(&mut rng, ln_q), u64::MAX);
        }
    }

    /// `bernoulli_subset` draws its gaps through `geometric_gap`; its
    /// samples and RNG consumption equal those of its former inline floor.
    #[test]
    fn bernoulli_subset_equals_the_floor_reference() {
        fn reference_subset(rng: &mut Xoshiro256, m: usize, p: f64, out: &mut Vec<u32>) {
            let ln_q = (1.0 - p).ln();
            let mut i: u64 = 0;
            loop {
                let skip = ((1.0 - rng.next_f64()).ln() / ln_q).floor();
                if !skip.is_finite() || skip >= (m as f64) {
                    break;
                }
                i += skip as u64;
                if i >= m as u64 {
                    break;
                }
                out.push(i as u32);
                i += 1;
                if i >= m as u64 {
                    break;
                }
            }
        }
        let mut params = Xoshiro256::seeded(0xB5);
        let mut rng = Xoshiro256::seeded(0xB6);
        let mut reference = rng.clone();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for k in 0..20_000 {
            let m = 1 + params.gen_range(600) as usize;
            let p = EXACTNESS_PS[k % EXACTNESS_PS.len()].min(params.next_f64());
            got.clear();
            want.clear();
            bernoulli_subset(&mut rng, m, p, &mut got);
            if p > 0.0 {
                reference_subset(&mut reference, m, p, &mut want);
            }
            assert_eq!(got, want, "m = {m}, p = {p}");
            assert_eq!(rng.draws(), reference.draws(), "m = {m}, p = {p}");
        }
    }

    #[test]
    fn one_sided_classes_take_fast_paths() {
        let mut rng = Xoshiro256::seeded(40);
        let (mut c1, mut c2, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        sample_two_class(&mut rng, 1000, 0.3, 0.0, &mut c1, &mut c2, &mut scratch);
        assert!(c2.is_empty());
        assert!(!c1.is_empty());
        c1.clear();
        sample_two_class(&mut rng, 1000, 0.0, 0.3, &mut c1, &mut c2, &mut scratch);
        assert!(c1.is_empty());
        assert!(!c2.is_empty());
    }

    /// Totals over which the guide is checked: just past the coverage rule
    /// (`q⁶⁴` just below ½), a 1/64-scale segment, the middle of the range,
    /// and the largest totals, where it covers one boundary or none.
    fn guide_ladder() -> [f64; 7] {
        let coverage_edge = 1.0 - 0.5f64.powf(1.0 / 64.0);
        [
            coverage_edge * (1.0 + 1e-9),
            1.0 / 64.0,
            0.3,
            0.5,
            0.87,
            0.999999,
            1.0 - f64::EPSILON,
        ]
    }

    /// The inversion's gap of one raw draw word.
    fn inverted(word: u64, ln_q: f64) -> u64 {
        gap_from_uniform(Xoshiro256::unit_f64(word), ln_q)
    }

    /// The inversion is monotone in the draw word, so a bucket whose first
    /// and last word both invert to its entry inverts to it throughout.
    #[test]
    fn guide_entries_match_the_inversion_at_both_bucket_edges() {
        for p in guide_ladder() {
            let ln_q = (1.0 - p).ln();
            let guide = GapGuide::new(ln_q).expect("every ladder total builds a guide");
            let mut answered = 0;
            for b in 0..GUIDE_LEN as u64 {
                let first = b << 52;
                let last = first | ((1 << 52) - 1);
                let entry = guide.gap(first);
                assert_eq!(entry, guide.gap(last), "p = {p}, bucket {b}");
                if let Some(gap) = entry {
                    answered += 1;
                    assert_eq!(gap, inverted(first, ln_q), "p = {p}, bucket {b}, first");
                    assert_eq!(gap, inverted(last, ln_q), "p = {p}, bucket {b}, last");
                }
            }
            // Not vacuous: only the last rung, whose first boundary lies
            // below 2⁻²⁰, answers nothing.
            if p < 0.9999999 {
                assert!(answered * 5 > GUIDE_LEN * 2, "p = {p}: {answered} answered");
            } else {
                assert_eq!(answered, 0, "p = {p}");
            }
        }
    }

    /// No answered bucket contains a boundary `U = 1 − qᵏ`, covered or not
    /// (boundaries computed independently, as `exp(k·ln q)`).
    #[test]
    fn guide_never_answers_a_bucket_holding_a_boundary() {
        for p in guide_ladder() {
            let ln_q = (1.0 - p).ln();
            let guide = GapGuide::new(ln_q).expect("every ladder total builds a guide");
            for k in 1..=4096 {
                let qk = (k as f64 * ln_q).exp();
                if qk < f64::EPSILON {
                    break;
                }
                let b = ((1.0 - qk) * GUIDE_LEN as f64) as usize;
                assert_eq!(
                    guide.0[b], GUIDE_MISS,
                    "p = {p}, boundary {k} in bucket {b}"
                );
            }
        }
    }

    #[test]
    fn guide_is_built_only_when_half_the_gaps_are_below_64() {
        let coverage_edge = 1.0 - 0.5f64.powf(1.0 / 64.0);
        assert!(GapGuide::new((1.0 - coverage_edge * (1.0 - 1e-9)).ln()).is_none());
        assert!(GapGuide::new((1.0 - coverage_edge * (1.0 + 1e-9)).ln()).is_some());
        assert!(GapGuide::new((1.0 - 1e-3f64).ln()).is_none());
        assert!(GapGuide::new(0.0).is_none());
    }

    /// Random words against random guided totals, log-uniform in `|ln q|`
    /// from the coverage edge to the largest total below 1.
    #[test]
    fn guide_matches_the_inversion_on_random_draws() {
        let mut params = Xoshiro256::seeded(0x61DE);
        let mut words = Xoshiro256::seeded(0x61DF);
        let (lo, hi) = (std::f64::consts::LN_2 / 64.0, -f64::EPSILON.ln());
        let mut answered = 0u64;
        for _ in 0..200 {
            let t = lo * (hi / lo).powf(params.next_f64());
            let ln_q = (1.0 - (1.0 - (-t).exp())).ln();
            let Some(guide) = GapGuide::new(ln_q) else {
                continue;
            };
            for _ in 0..2_000 {
                let word = words.next_u64();
                if let Some(gap) = guide.gap(word) {
                    answered += 1;
                    assert_eq!(gap, inverted(word, ln_q), "ln_q = {ln_q}, word = {word:#x}");
                }
            }
        }
        assert!(answered > 200_000, "{answered} draws answered");
    }

    /// `TwoClassRoundStream` as it was before the gap guide and the
    /// two-cursor slices: every gap is a [`geometric_gap`] inversion, and
    /// every actor's class is a `gen_bool` pushed onto a list.
    struct InversionStream {
        m: u64,
        total: f64,
        frac1: f64,
        p1: f64,
        p2: f64,
        ln_q: f64,
        gap: u64,
    }

    impl InversionStream {
        fn new(rng: &mut Xoshiro256, m: usize, p1: f64, p2: f64) -> Self {
            let total = p1 + p2;
            let ln_q = if total > 0.0 && total < 1.0 {
                (1.0 - total).ln()
            } else {
                0.0
            };
            let gap = if total <= 0.0 {
                u64::MAX
            } else if total >= 1.0 {
                0
            } else {
                geometric_gap(rng, ln_q)
            };
            Self {
                m: m as u64,
                total,
                frac1: if total > 0.0 { p1 / total } else { 0.0 },
                p1,
                p2,
                ln_q,
                gap,
            }
        }

        fn empty_rounds_ahead(&self) -> u64 {
            if self.gap < self.m {
                0
            } else if self.gap == u64::MAX {
                u64::MAX
            } else {
                self.gap / self.m
            }
        }

        fn skip_rounds(&mut self, k: u64) {
            if self.gap != u64::MAX {
                self.gap -= k * self.m;
            }
        }

        fn next_round(&mut self, rng: &mut Xoshiro256, c1: &mut Vec<u32>, c2: &mut Vec<u32>) {
            let mut classify = |rng: &mut Xoshiro256, idx: u32| {
                let first = if self.p2 <= 0.0 {
                    true
                } else if self.p1 <= 0.0 {
                    false
                } else {
                    rng.gen_bool(self.frac1)
                };
                if first { &mut *c1 } else { &mut *c2 }.push(idx);
            };
            if self.total >= 1.0 {
                for idx in 0..self.m as u32 {
                    classify(rng, idx);
                }
                return;
            }
            while self.gap < self.m {
                classify(rng, self.gap as u32);
                let g = geometric_gap(rng, self.ln_q);
                self.gap = (self.gap + 1).saturating_add(g);
            }
            if self.gap != u64::MAX {
                self.gap -= self.m;
            }
        }
    }

    /// Runs one segment through the stream and the inversion stream for 30
    /// rounds, skipping part of every run of empty rounds, and requires the
    /// same class lists, empty rounds and draw counts round by round.
    fn assert_matches_inversion(
        label: &str,
        m: usize,
        (p1, p2): (f64, f64),
        seed: u64,
        params: &mut Xoshiro256,
    ) {
        let mut rng = Xoshiro256::seeded(seed);
        let mut reference_rng = rng.clone();
        let mut stream = TwoClassRoundStream::new(&mut rng, m, p1, p2);
        let mut reference = InversionStream::new(&mut reference_rng, m, p1, p2);
        let (mut r1, mut r2) = (Vec::new(), Vec::new());
        for round_no in 0..30 {
            let ahead = stream.empty_rounds_ahead();
            assert_eq!(
                ahead,
                reference.empty_rounds_ahead(),
                "{label}, round {round_no}"
            );
            if ahead > 0 && ahead != u64::MAX {
                let k = 1 + params.gen_range(ahead.min(1 << 20));
                stream.skip_rounds(k);
                reference.skip_rounds(k);
            }
            r1.clear();
            r2.clear();
            let (c1, c2) = round(&mut stream, &mut rng);
            reference.next_round(&mut reference_rng, &mut r1, &mut r2);
            assert_eq!((&c1, &c2), (&r1, &r2), "{label}, round {round_no}");
            assert_eq!(
                rng.draws(),
                reference_rng.draws(),
                "{label}, round {round_no}"
            );
        }
    }

    /// Round by round, the guided stream selects the same classes, reports
    /// the same empty rounds and consumes the same draws as the inversion
    /// stream, over random segments including one-class and degenerate ones.
    #[test]
    fn round_stream_equals_the_inversion_stream() {
        let mut params = Xoshiro256::seeded(0x57E4);
        let (lo, hi) = (1e-4f64, -f64::EPSILON.ln());
        for case in 0..1_500u64 {
            let m = 1 + params.gen_range(200) as usize;
            let total = match case % 8 {
                0 => 0.0,
                1 => 1.0,
                2 => params.next_f64() * 0.01,
                _ => 1.0 - (-(lo * (hi / lo).powf(params.next_f64()))).exp(),
            };
            let probs = match params.gen_range(4) {
                0 => (total, 0.0),
                1 => (0.0, total),
                _ => {
                    let split = params.next_f64();
                    (total * split, total * (1.0 - split))
                }
            };
            assert_matches_inversion(&format!("case {case}"), m, probs, case, &mut params);
        }
    }

    /// Every class rule against the inversion stream: the draw-free ones
    /// (one-sided classes, `frac1` rounding to exactly 1 or to `≤ 0`) must
    /// draw no class word, and the drawn coin one per actor, at totals
    /// below, at and just above 1.
    #[test]
    fn round_stream_equals_the_inversion_stream_for_every_class_rule() {
        // (p1, p2, the rule: `Some(class 1?)` if no class word is drawn).
        let cases = [
            (0.3, 0.0, Some(true)),
            (0.0, 0.3, Some(false)),
            (1.0, 0.0, Some(true)),
            (0.0, 1.0, Some(false)),
            // p1 + p2 ≥ 1: every node acts every round.
            (0.5, 0.5, None),
            (0.6, 0.4 + 5e-13, None),
            // 0.5 + 1e-17 rounds to 0.5, so frac1 is exactly 1.0.
            (0.5, 1e-17, Some(true)),
            // frac1 = p1 / total ≥ p1 / (1 + 1e-12) never rounds to 0 for
            // p1 > 0, so `frac1 ≤ 0` is a zero p1, signed or not; the
            // smallest positive p1 still draws its coin.
            (-0.0, 0.3, Some(false)),
            (1e-17, 0.5, None),
            (f64::from_bits(1), 0.5, None),
            (1.0 / 64.0, 1.0 / 64.0, None),
        ];
        let mut params = Xoshiro256::seeded(0xC1A5);
        for (p1, p2, fixed) in cases {
            let mut rng = Xoshiro256::seeded(0);
            match (TwoClassRoundStream::new(&mut rng, 8, p1, p2).coin, fixed) {
                (ClassCoin::Fixed(first), Some(want)) => assert_eq!(first, want, "{p1} + {p2}"),
                (ClassCoin::Draw(_), None) => {}
                (coin, _) => panic!("{p1} + {p2}: rule {coin:?}, want {fixed:?}"),
            }
            for (k, m) in [1usize, 7, 64, 200].into_iter().enumerate() {
                let label = format!("p1 = {p1:e}, p2 = {p2:e}, m = {m}");
                assert_matches_inversion(&label, m, (p1, p2), 0xC1A5 + k as u64, &mut params);
            }
        }
    }
}
