//! Engine telemetry invariants over the full fast-forward acceptance
//! matrix ({five paper protocols} × {span-exact adversaries}):
//!
//! * **Slot conservation** — every slot the run covers is either executed
//!   by the slot loop or skipped by the fast-forward path:
//!   `slots_stepped + slots_fast_forwarded == outcome.slots`.
//! * **Jam-budget conservation** — Eve's ledger splits exactly into the
//!   per-slot and span-batched charge paths:
//!   `jam_spent_stepped + jam_spent_spans == outcome.eve_spent`.
//! * **Histogram closure** — the idle-span length histogram accounts for
//!   every span once.
//! * **Fast-forward off ⇒ the span counters are hard zeros** and the slot
//!   loop executes every covered slot.
//! * **Determinism** — telemetry is a pure function of (combo, seed), and
//!   collecting it never perturbs the run itself.
//! * **Observer accounting** — `observer_events` equals the invocation
//!   count a mounted observer actually sees, and mounting one changes
//!   neither the outcome nor the counters.

use rcb::adversary::{
    FullBandBurst, JamSpan, PeriodicPulse, RandomSubset, Silent, SpanJammer, Sweep, UniformFraction,
};
use rcb::core::{AdvParams, MultiCast, MultiCastAdv, MultiCastC, MultiCastCore};
use rcb::sim::{
    Adversary, EngineConfig, EngineTelemetry, NodeId, Observer, Protocol, RunOutcome, Simulation,
    SlotProfile, SlotStats,
};

const PROTOS: [&str; 5] = [
    "MultiCastCore",
    "MultiCast",
    "MultiCast(C)",
    "MultiCastAdv",
    "MultiCastAdv(C)",
];
const ADVS: [&str; 7] = [
    "silent",
    "uniform-fraction",
    "full-band-burst",
    "periodic-pulse",
    "sweep",
    "random-subset",
    "span-targeted",
];

/// Same combo grid as `tests/fast_forward.rs`, but returning the telemetry
/// alongside the outcome, with an optional observer mounted.
fn run_combo(
    proto: usize,
    adv: usize,
    seed: u64,
    fast_forward: bool,
    observer: Option<&mut dyn Observer>,
) -> (RunOutcome, EngineTelemetry) {
    let cfg = EngineConfig {
        fast_forward,
        ..EngineConfig::capped(60_000)
    };
    let t = 30_000u64;
    let mut adversary: Box<dyn Adversary> = match adv {
        0 => Box::new(Silent),
        1 => Box::new(UniformFraction::new(t, 0.6, seed + 100)),
        2 => Box::new(FullBandBurst::new(t, 500)),
        3 => Box::new(PeriodicPulse::new(t, 37, 11, 0.5, seed + 101)),
        4 => Box::new(Sweep::new(t, 3, 2)),
        5 => Box::new(RandomSubset::new(t, 3, seed + 102)),
        6 => Box::new(SpanJammer::from_spans(
            t,
            (0..60)
                .map(|k| JamSpan::new(k * 1000, k * 1000 + 250, 0.8))
                .collect(),
            seed + 103,
        )),
        _ => unreachable!(),
    };
    fn go<P: Protocol>(
        mut p: P,
        a: &mut dyn Adversary,
        seed: u64,
        cfg: &EngineConfig,
        observer: Option<&mut dyn Observer>,
    ) -> (RunOutcome, EngineTelemetry) {
        let sim = Simulation::new(&mut p).adversary(a).config(*cfg);
        match observer {
            Some(obs) => sim.observer(obs).run_with_telemetry(seed),
            None => sim.run_with_telemetry(seed),
        }
    }
    let n = 16u64;
    match proto {
        0 => go(
            MultiCastCore::new(n, t),
            adversary.as_mut(),
            seed,
            &cfg,
            observer,
        ),
        1 => go(MultiCast::new(n), adversary.as_mut(), seed, &cfg, observer),
        2 => go(
            MultiCastC::new(n, 4),
            adversary.as_mut(),
            seed,
            &cfg,
            observer,
        ),
        3 => go(
            MultiCastAdv::new(n),
            adversary.as_mut(),
            seed,
            &cfg,
            observer,
        ),
        4 => go(
            MultiCastAdv::with_channel_cap(n, 4, AdvParams::default()),
            adversary.as_mut(),
            seed,
            &cfg,
            observer,
        ),
        _ => unreachable!(),
    }
}

fn check_invariants(label: &str, out: &RunOutcome, tel: &EngineTelemetry, fast_forward: bool) {
    assert_eq!(
        tel.slots_stepped + tel.slots_fast_forwarded,
        out.slots,
        "{label}: stepped + fast-forwarded must cover every slot"
    );
    assert_eq!(
        tel.jam_spent_stepped + tel.jam_spent_spans,
        out.eve_spent,
        "{label}: jam-budget split must conserve Eve's ledger"
    );
    assert_eq!(
        tel.span_len_hist.iter().sum::<u64>(),
        tel.spans,
        "{label}: histogram must account for every span exactly once"
    );
    if !fast_forward {
        assert_eq!(tel.spans, 0, "{label}: no spans without fast-forward");
        assert_eq!(tel.slots_fast_forwarded, 0, "{label}");
        assert_eq!(tel.jam_spent_spans, 0, "{label}");
        assert_eq!(tel.slots_stepped, out.slots, "{label}");
    }
    // Untimed runs must leave the wall-clock leaves as hard zeros — this is
    // what keeps default artifacts byte-deterministic.
    assert_eq!(
        tel.phases.total(),
        0,
        "{label}: phases timed without opt-in"
    );
}

/// The acceptance matrix: slot conservation, jam-budget conservation, and
/// histogram closure for every protocol × adversary × mode, plus telemetry
/// determinism across repeated identical runs.
#[test]
fn telemetry_invariants_across_protocols_and_adversaries() {
    for (pi, pname) in PROTOS.iter().enumerate() {
        for (ai, aname) in ADVS.iter().enumerate() {
            for seed in [11u64, 22] {
                for ff in [true, false] {
                    let label = format!("{pname} vs {aname} seed {seed} ff={ff}");
                    let (out, tel) = run_combo(pi, ai, seed, ff, None);
                    check_invariants(&label, &out, &tel, ff);
                    let (out2, tel2) = run_combo(pi, ai, seed, ff, None);
                    assert_eq!(out, out2, "{label}: outcome not deterministic");
                    assert_eq!(tel, tel2, "{label}: telemetry not deterministic");
                }
            }
        }
    }
}

/// Counts every Observer invocation, mirroring the engine's internal
/// accounting for `EngineTelemetry::observer_events`.
#[derive(Default)]
struct TallyObserver {
    calls: u64,
}

impl Observer for TallyObserver {
    fn on_informed(&mut self, _: NodeId, _: u64) {
        self.calls += 1;
    }
    fn on_halted(&mut self, _: NodeId, _: u64) {
        self.calls += 1;
    }
    fn on_boundary(&mut self, _: u64, _: &SlotProfile, _: u32, _: u32) {
        self.calls += 1;
    }
    fn on_slot(&mut self, _: u64, _: &SlotStats) {
        self.calls += 1;
    }
    fn on_idle_span(&mut self, _: u64, _: u64, _: u64) {
        self.calls += 1;
    }
}

/// `observer_events` equals what a mounted observer actually sees, and the
/// observer seat never perturbs the run or its counters.
#[test]
fn observer_events_match_mounted_observer_and_do_not_perturb() {
    for (pi, ai, seed) in [(1usize, 1usize, 11u64), (3, 6, 22), (0, 0, 33)] {
        let label = format!("{} vs {} seed {seed}", PROTOS[pi], ADVS[ai]);
        let (out_plain, tel_plain) = run_combo(pi, ai, seed, true, None);
        let mut tally = TallyObserver::default();
        let (out_obs, tel_obs) = run_combo(pi, ai, seed, true, Some(&mut tally));
        assert_eq!(out_plain, out_obs, "{label}: observer perturbed the run");
        assert_eq!(
            tel_plain, tel_obs,
            "{label}: observer perturbed the telemetry"
        );
        assert_eq!(
            tel_obs.observer_events, tally.calls,
            "{label}: engine count disagrees with the observer itself"
        );
        // Sanity: a capped run steps slots, so events must have fired.
        assert!(tally.calls > 0, "{label}: no events at all");
    }
}

/// The derived ratios agree with the raw counters they summarize.
#[test]
fn derived_ratios_are_consistent() {
    let (out, tel) = run_combo(1, 1, 11, true, None);
    assert_eq!(tel.slots_total(), out.slots);
    let expect_ratio = tel.slots_fast_forwarded as f64 / out.slots as f64;
    assert!((tel.ff_skip_ratio() - expect_ratio).abs() < 1e-12);
    if tel.spans > 0 {
        let expect_mean = tel.slots_fast_forwarded as f64 / tel.spans as f64;
        assert!((tel.mean_span_len() - expect_mean).abs() < 1e-9);
    }
    // RNG accounting: a real protocol run draws from both stream classes.
    assert!(tel.rng_engine_draws > 0);
    assert!(tel.rng_node_draws > 0);
}
