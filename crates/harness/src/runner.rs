//! Trial execution: build protocol + adversary from a spec, run the engine,
//! and fan trials out across CPU cores through one ordered pool
//! ([`run_ordered`]).

use crate::spec::{AdversaryKind, ProtocolKind, ScheduleSpec, TrialSpec};
use rcb_adversary::{
    FullBandBurst, GilbertElliott, HotspotJammer, JamSpan, PeriodicPulse, RandomSubset,
    ReactiveJammer, Silent, SpanJammer, Sweep, UniformFraction,
};
use rcb_core::baseline::{Decay, NaiveEpidemic, SingleChannelRcb};
use rcb_core::{
    AdvScheduleIter, MultiCast, MultiCastAdv, MultiCastC, MultiCastCore, MultiHopCast,
    MultiMessageCast,
};
use rcb_sim::{
    derive_seed, AdaptiveAdversary, Adversary, EngineConfig, EngineTelemetry, Eve, Observer,
    RunOutcome, ScheduleMarker, Simulation,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// The distilled result of one trial — everything the experiment reports
/// need, small enough to collect by the thousands.
#[derive(Clone, Debug)]
pub struct TrialResult {
    pub protocol: &'static str,
    pub adversary: &'static str,
    pub n: u64,
    pub budget: u64,
    pub seed: u64,
    /// Physical slots executed.
    pub slots: u64,
    /// All nodes halted (for halting protocols) / all informed (for
    /// baselines without termination) before the slot cap.
    pub completed: bool,
    pub all_informed: bool,
    /// Slot by which the last node was informed (if all were).
    pub all_informed_at: Option<u64>,
    /// Slot by which the last node halted (if all did).
    pub last_halt: Option<u64>,
    pub max_cost: u64,
    pub mean_cost: f64,
    pub source_cost: u64,
    pub eve_spent: u64,
    /// Nodes that halted while uninformed (must be 0).
    pub safety_violations: usize,
    /// `(epoch, phase)` at which each node became a helper
    /// (`MultiCastAdv` only; empty otherwise).
    pub helper_phases: Vec<(u32, u32)>,
    /// Nodes still crashed when the run ended (0 for unscheduled trials).
    pub crashed: u32,
    /// Reachable nodes not crashed at the end — the denominator of the
    /// survivor-relative completion verdict.
    pub survivors: u32,
    /// Survivors that knew the message when the run ended.
    pub survivors_informed: u32,
    /// Applied schedule events, in application order (empty for
    /// unscheduled trials).
    pub timeline: Vec<ScheduleMarker>,
}

impl TrialResult {
    fn from_outcome(spec: &TrialSpec, out: &RunOutcome) -> Self {
        // Survivor-relative completion: identical to the classical verdict
        // for unscheduled trials (no crashes ⇒ survivors == reachable).
        let completed = if spec.protocol.never_halts() {
            out.survivors_all_informed
        } else {
            out.survivors_all_halted
        };
        let helper_phases = out
            .nodes
            .iter()
            .filter_map(|n| {
                let i = n.extra.get("helper_epoch")?;
                let j = n.extra.get("helper_phase")?;
                Some((i as u32, j as u32))
            })
            .collect();
        TrialResult {
            protocol: spec.protocol.name(),
            adversary: spec.adversary.name(),
            n: spec.protocol.n(),
            budget: spec.adversary.budget(),
            seed: spec.seed,
            slots: out.slots,
            completed,
            all_informed: out.all_informed,
            all_informed_at: out.all_informed_at,
            last_halt: out.last_halt(),
            max_cost: out.max_cost(),
            mean_cost: out.mean_cost(),
            source_cost: out.nodes[0].cost(),
            eve_spent: out.eve_spent,
            safety_violations: out.safety_violations(),
            helper_phases,
            crashed: out.crashed,
            survivors: out.survivors,
            survivors_informed: out.survivors_informed,
            timeline: out.timeline.clone(),
        }
    }

    /// Completion time in slots: last halt for halting protocols, last
    /// informed for baselines; falls back to executed slots if incomplete.
    pub fn completion_time(&self) -> u64 {
        self.last_halt
            .or(self.all_informed_at)
            .map(|s| s + 1)
            .unwrap_or(self.slots)
    }
}

/// A built adversary: either oblivious (the paper's model) or adaptive
/// (the Section 8 extension); [`BuiltAdversary::as_eve`] mounts it into the
/// engine's unified [`Eve`] seat.
enum BuiltAdversary {
    Oblivious(Box<dyn Adversary + Send>),
    Adaptive(Box<dyn AdaptiveAdversary + Send>),
}

impl BuiltAdversary {
    fn as_eve(&mut self) -> Eve<'_> {
        match self {
            BuiltAdversary::Oblivious(a) => Eve::Oblivious(a.as_mut()),
            BuiltAdversary::Adaptive(a) => Eve::Adaptive(a.as_mut()),
        }
    }
}

/// Stream id for the primary adversary's private randomness.
const ADVERSARY_STREAM: u64 = 1_000_003;
/// Base stream id for swap-in adversaries: the `i`-th `SwapEve` replacement
/// draws from stream `SWAP_ADVERSARY_STREAM_BASE + i`.
const SWAP_ADVERSARY_STREAM_BASE: u64 = 1_000_010;

/// Build the adversary described by `kind`. The strategy's private stream is
/// derived from the trial's master seed (stream id `1_000_003`).
fn build_adversary(kind: &AdversaryKind, master_seed: u64) -> BuiltAdversary {
    build_adversary_stream(kind, master_seed, ADVERSARY_STREAM)
}

/// [`build_adversary`] with an explicit stream id, so swap-in adversaries
/// get randomness independent of the primary seat's.
fn build_adversary_stream(kind: &AdversaryKind, master_seed: u64, stream: u64) -> BuiltAdversary {
    use BuiltAdversary::{Adaptive, Oblivious};
    let seed = derive_seed(master_seed, stream);
    match kind.clone() {
        AdversaryKind::Silent => Oblivious(Box::new(Silent)),
        AdversaryKind::Uniform { t, frac } => {
            Oblivious(Box::new(UniformFraction::new(t, frac, seed)))
        }
        AdversaryKind::Burst { t, start } => Oblivious(Box::new(FullBandBurst::new(t, start))),
        AdversaryKind::Pulse {
            t,
            period,
            duty,
            frac,
        } => Oblivious(Box::new(PeriodicPulse::new(t, period, duty, frac, seed))),
        AdversaryKind::Sweep { t, width, step } => Oblivious(Box::new(Sweep::new(t, width, step))),
        AdversaryKind::RandomSubset { t, k } => Oblivious(Box::new(RandomSubset::new(t, k, seed))),
        AdversaryKind::GilbertElliott {
            t,
            p_gb,
            p_bg,
            frac,
        } => Oblivious(Box::new(GilbertElliott::new(t, p_gb, p_bg, frac, seed))),
        AdversaryKind::TargetAdvPhase {
            t,
            frac,
            phase,
            from_epoch,
            params,
        } => {
            let spans = AdvScheduleIter::new(params.validated())
                .filter(move |seg| seg.phase == phase && seg.epoch >= from_epoch)
                .map(move |seg| JamSpan {
                    start: seg.start,
                    end: seg.start + seg.len,
                    frac,
                });
            Oblivious(Box::new(SpanJammer::new(t, spans, seed)))
        }
        AdversaryKind::TargetMcIterations {
            t,
            frac,
            n,
            params,
            count,
        } => {
            let proto = MultiCast::with_params(n, params);
            let spans: Vec<JamSpan> = proto
                .iteration_spans(count)
                .into_iter()
                .map(|(start, end)| JamSpan { start, end, frac })
                .collect();
            Oblivious(Box::new(SpanJammer::from_spans(t, spans, seed)))
        }
        AdversaryKind::Reactive { t, max_channels } => {
            Adaptive(Box::new(ReactiveJammer::new(t, max_channels)))
        }
        AdversaryKind::ReactiveWindow {
            t,
            window,
            max_channels,
            threshold,
        } => Adaptive(Box::new(ReactiveJammer::with_params(
            t,
            window,
            max_channels,
            threshold,
        ))),
        AdversaryKind::Hotspot { t, k, decay } => {
            Adaptive(Box::new(HotspotJammer::new(t, k, decay, seed)))
        }
    }
}

struct Noop;
impl Observer for Noop {}

/// Build the swap-in adversaries of `spec`, in event order: the `i`-th
/// draws from stream `1_000_010 + i`.
fn build_swap_eves(spec: &ScheduleSpec, master_seed: u64) -> Vec<BuiltAdversary> {
    spec.swaps
        .iter()
        .zip(SWAP_ADVERSARY_STREAM_BASE..)
        .map(|(kind, stream)| build_adversary_stream(kind, master_seed, stream))
        .collect()
}

/// Per-trial knobs beyond the declarative [`TrialSpec`] itself. The single
/// options struct behind every trial entry point: `rcb bench` overrides
/// `engine` to time the slot-by-slot reference, `rcb profile` and
/// `rcb run --perf` turn on its phase timing, and the perfbench tracer
/// mounts an `observer` to count protocol actions and boundaries.
#[derive(Default)]
pub struct TrialOptions<'a> {
    /// Base engine configuration. The spec's slot cap and the protocol's
    /// stop rule still override the matching fields.
    pub engine: EngineConfig,
    /// Stream engine events into this observer.
    pub observer: Option<&'a mut dyn Observer>,
}

impl<'a> TrialOptions<'a> {
    /// Options with a caller-supplied base [`EngineConfig`] (used by
    /// `rcb bench` to compare the fast-forward engine against the
    /// slot-by-slot reference on identical workloads).
    pub fn with_engine(engine: EngineConfig) -> Self {
        Self {
            engine,
            observer: None,
        }
    }

    /// Options streaming engine events into `observer` (used by the
    /// perfbench tracer to count protocol actions and boundaries).
    pub fn with_observer(observer: &'a mut dyn Observer) -> Self {
        Self {
            engine: EngineConfig::default(),
            observer: Some(observer),
        }
    }
}

/// Build the [`Simulation`] described by the spec and run it — the one
/// place the harness touches the engine. The single-hop `Complete` default
/// skips topology construction (the topology-aware path is byte-identical
/// for it — see `tests/topology_equivalence.rs` — so this is an
/// optimization, not a behavioural switch).
fn simulate<P: rcb_sim::Protocol>(
    protocol: &mut P,
    spec: &TrialSpec,
    opts: &mut TrialOptions<'_>,
) -> (RunOutcome, EngineTelemetry) {
    let cfg = EngineConfig {
        max_slots: spec.max_slots,
        stop_when_all_informed: spec.protocol.never_halts(),
        ..opts.engine
    };
    let mut adversary = build_adversary(&spec.adversary, spec.seed);
    let topology = (!spec.topology.is_complete()).then(|| spec.topology.build(spec.seed));
    let mut swap_eves = build_swap_eves(&spec.schedule, spec.seed);
    let mut noop = Noop;
    // An empty schedule is byte-identical to none (see the engine's
    // `schedule` module docs), so it is mounted unconditionally.
    let mut sim = Simulation::new(protocol)
        .eve(adversary.as_eve())
        .topology(topology.as_ref())
        .schedule(&spec.schedule.events)
        .config(cfg);
    for adv in swap_eves.iter_mut() {
        sim = sim.swap_eve(adv.as_eve());
    }
    sim.observer(match opts.observer.as_deref_mut() {
        Some(obs) => obs,
        None => &mut noop,
    })
    .run_with_telemetry(spec.seed)
}

/// Run a single trial with default options.
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    run_trial_telemetry(spec, TrialOptions::default()).0
}

/// Run a single trial under explicit [`TrialOptions`] and also return the
/// engine's [`EngineTelemetry`] for the run. Collecting telemetry never
/// perturbs the trial itself: the first element of the pair is the same
/// `TrialResult` whether or not the caller reads the second.
pub fn run_trial_telemetry(
    spec: &TrialSpec,
    mut opts: TrialOptions<'_>,
) -> (TrialResult, EngineTelemetry) {
    let opts = &mut opts;
    let (out, tel) = match spec.protocol.clone() {
        ProtocolKind::Core { n, t, params } => {
            let mut p = MultiCastCore::with_params(n, t, params);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::MultiCast { n, params } => {
            let mut p = MultiCast::with_params(n, params);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::MultiCastC { n, c, params } => {
            let mut p = MultiCastC::with_params(n, c, params);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::Adv { n, params } => {
            let mut p = MultiCastAdv::with_params(n, params);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::Naive { n, act_prob } => {
            let mut p = NaiveEpidemic::with_act_prob(n, act_prob);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::NaiveConfig {
            n,
            channels,
            act_prob,
        } => {
            let mut p = NaiveEpidemic::with_config(n, channels, act_prob);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::SingleChannel { n, params } => {
            let mut p = SingleChannelRcb::with_params(n, params);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::Decay { n } => {
            let mut p = Decay::new(n);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::MultiHop { n, channels, p } => {
            let mut p = MultiHopCast::with_config(n, channels, p);
            simulate(&mut p, spec, opts)
        }
        ProtocolKind::MultiMessage { n, k, channels, p } => {
            let mut p = MultiMessageCast::with_config(n, k, channels, p);
            simulate(&mut p, spec, opts)
        }
    };
    (TrialResult::from_outcome(spec, &out), tel)
}

/// Master seed for replicate `replicate` of campaign cell `cell`: two-level
/// positional derivation — a per-cell stream seed first, then the
/// replicate's draw within that stream.
///
/// The two levels matter for the resumable campaign service: a cell's seed
/// stream depends only on `(campaign_seed, cell)`, **not** on how many
/// trials the campaign runs per cell. Raising `--trials` therefore extends
/// every cell's stream in place, so a checkpointed cell can run just the
/// missing replicates and a content-addressed store entry stays a strict
/// prefix of any larger run over the same cell.
pub fn cell_trial_seed(campaign_seed: u64, cell: u64, replicate: u64) -> u64 {
    derive_seed(derive_seed(campaign_seed, cell), replicate)
}

/// Resolve a requested worker count: 0 means "use the `RCB_THREADS`
/// environment variable if set, else one per available core". Lets CLI
/// tools (e.g. `repro --threads`) control parallelism without plumbing a
/// parameter through every experiment function.
pub fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if let Some(n) = std::env::var("RCB_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Run `job(i)` for every `i` in `0..count` on `threads` scoped workers
/// (resolved by [`resolve_threads`]) and hand each result to
/// `sink(i, result)` on the calling thread **strictly in ascending `i`**,
/// whatever order the workers finish in. Workers claim indices from an
/// atomic cursor and send results through a bounded channel (they stall
/// rather than flood the caller); results that arrive early wait in a
/// reorder window. The fixed delivery order is what keeps an
/// order-sensitive consumer, such as the campaign engine's floating-point
/// aggregation, bit-identical at any thread count.
///
/// One worker runs inline: the calling thread runs `job(0)`, `job(1)`, …
/// itself and hands each result straight to `sink`, with no spawned
/// thread, channel or reorder window, so the delivery order is the same.
///
/// `sink` returning [`ControlFlow::Break`] stops the pool: nothing more is
/// delivered, each worker finishes at most the job in hand, and the break
/// value is returned once every worker has exited. Inline, no job runs
/// after the one whose result broke.
pub fn run_ordered<T: Send, B>(
    count: u64,
    threads: usize,
    job: impl Fn(u64) -> T + Sync,
    mut sink: impl FnMut(u64, T) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let threads = resolve_threads(threads).min(count.max(1) as usize);
    if threads == 1 {
        for i in 0..count {
            sink(i, job(i))?;
        }
        return ControlFlow::Continue(());
    }
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Created inside the scope so that every return path drops the
        // receiver before the scope joins: a worker blocked on a full
        // channel then sees its send fail and exits.
        let (tx, rx) = mpsc::sync_channel::<(u64, T)>(1024);
        for _ in 0..threads {
            let (tx, next, job) = (tx.clone(), &next, &job);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count || tx.send((i, job(i))).is_err() {
                    return; // drained, or the caller stopped
                }
            });
        }
        drop(tx);
        // Slot `k` holds result `want + k` once it has arrived.
        let mut early: VecDeque<Option<T>> = VecDeque::new();
        let mut want = 0;
        for (i, result) in rx.iter() {
            let k = (i - want) as usize;
            if early.len() <= k {
                early.resize_with(k + 1, || None);
            }
            early[k] = Some(result);
            while let Some(result) = early.front_mut().and_then(Option::take) {
                early.pop_front();
                if let ControlFlow::Break(b) = sink(want, result) {
                    return ControlFlow::Break(b);
                }
                want += 1;
            }
        }
        assert_eq!(want, count, "a worker exited without delivering its result");
        ControlFlow::Continue(())
    })
}

/// Run many trials in parallel across `threads` workers (0 = `RCB_THREADS`
/// if set, else one per available core). Results come back in spec order.
///
/// ```
/// use rcb_harness::{run_trials, AdversaryKind, ProtocolKind, TrialSpec};
///
/// // A tiny sweep: MultiCast at two budgets, one seed each.
/// let specs: Vec<TrialSpec> = [10_000u64, 40_000]
///     .iter()
///     .map(|&t| TrialSpec::new(
///         ProtocolKind::MultiCast { n: 16, params: Default::default() },
///         AdversaryKind::Uniform { t, frac: 0.5 },
///         7,
///     ))
///     .collect();
/// let results = run_trials(&specs, 0);
/// assert!(results.iter().all(|r| r.completed && r.safety_violations == 0));
/// ```
pub fn run_trials(specs: &[TrialSpec], threads: usize) -> Vec<TrialResult> {
    let mut results = Vec::with_capacity(specs.len());
    let _ = run_ordered(
        specs.len() as u64,
        threads,
        |i| run_trial(&specs[i as usize]),
        |_, result| {
            results.push(result);
            ControlFlow::<()>::Continue(())
        },
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::McParams;
    use rcb_sim::WorldEvent;

    fn quick_spec(seed: u64) -> TrialSpec {
        TrialSpec::new(
            ProtocolKind::Naive {
                n: 32,
                act_prob: 1.0,
            },
            AdversaryKind::Silent,
            seed,
        )
        .with_max_slots(100_000)
    }

    #[test]
    fn single_trial_runs() {
        let r = run_trial(&quick_spec(1));
        assert!(r.completed);
        assert!(r.all_informed);
        assert_eq!(r.safety_violations, 0);
        assert_eq!(r.protocol, "NaiveEpidemic");
        assert_eq!(r.adversary, "silent");
    }

    #[test]
    fn trials_are_reproducible() {
        let a = run_trial(&quick_spec(7));
        let b = run_trial(&quick_spec(7));
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.max_cost, b.max_cost);
        let c = run_trial(&quick_spec(8));
        assert!(a.slots != c.slots || a.max_cost != c.max_cost);
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let specs: Vec<TrialSpec> = (0..12).map(quick_spec).collect();
        let serial = run_trials(&specs, 1);
        let parallel = run_trials(&specs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.seed, p.seed, "order preserved");
            assert_eq!(s.slots, p.slots, "identical results per seed");
            assert_eq!(s.max_cost, p.max_cost);
        }
    }

    /// A `Break` after `k` results stops the pool at 1 and at 4 threads:
    /// the sink saw exactly `0..k` in order, the break value comes back,
    /// and the call returns, so no worker was left blocked on the channel.
    #[test]
    fn ordered_pool_stops_at_a_break() {
        for threads in [1, 4] {
            let ran = AtomicU64::new(0);
            let mut seen = Vec::new();
            let stop = run_ordered(
                100_000,
                threads,
                |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i * 3
                },
                |i, x| {
                    assert_eq!(x, i * 3, "result delivered with its own index");
                    seen.push(i);
                    if seen.len() == 7 {
                        ControlFlow::Break(i)
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(stop, ControlFlow::Break(6), "threads {threads}");
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "threads {threads}");
            let ran = ran.into_inner();
            assert!(ran < 100_000, "the pool ran on past the break: {ran}");
        }
    }

    /// One worker runs inline: every job on the caller's thread, results
    /// in index order, and a `Break` after `k` results leaves exactly `k`
    /// jobs run.
    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran = AtomicU64::new(0);
        let mut seen = Vec::new();
        let all = run_ordered(
            50,
            1,
            |i| {
                assert_eq!(std::thread::current().id(), caller, "job {i}");
                ran.fetch_add(1, Ordering::Relaxed);
                i
            },
            |i, x| {
                assert_eq!(x, i);
                seen.push(i);
                ControlFlow::<()>::Continue(())
            },
        );
        assert_eq!(all, ControlFlow::Continue(()));
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!(ran.swap(0, Ordering::Relaxed), 50);

        for k in [1, 2, 7, 50] {
            let stop = run_ordered(
                50,
                1,
                |i| {
                    assert_eq!(std::thread::current().id(), caller, "job {i}");
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
                |i, _| {
                    if i + 1 == k {
                        ControlFlow::Break(i)
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(stop, ControlFlow::Break(k - 1));
            assert_eq!(ran.swap(0, Ordering::Relaxed), k, "break at {k}");
        }
    }

    #[test]
    fn multicast_trial_with_uniform_adversary() {
        let spec = TrialSpec::new(
            ProtocolKind::MultiCast {
                n: 32,
                params: McParams::default(),
            },
            AdversaryKind::Uniform {
                t: 10_000,
                frac: 0.5,
            },
            3,
        );
        let r = run_trial(&spec);
        assert!(r.completed, "{r:?}");
        assert_eq!(r.safety_violations, 0);
        assert!(r.eve_spent <= 10_000);
        assert!(r.completion_time() > 0);
    }

    #[test]
    fn targeted_mc_adversary_builds_spans() {
        let spec = TrialSpec::new(
            ProtocolKind::MultiCast {
                n: 32,
                params: McParams::default(),
            },
            AdversaryKind::TargetMcIterations {
                t: 50_000,
                frac: 0.9,
                n: 32,
                params: McParams::default(),
                count: 3,
            },
            4,
        );
        let r = run_trial(&spec);
        assert!(r.completed);
        assert_eq!(r.safety_violations, 0);
        assert!(r.eve_spent > 0, "the targeted jammer must actually jam");
    }

    #[test]
    fn empty_spec_list() {
        assert!(run_trials(&[], 4).is_empty());
    }

    #[test]
    fn multihop_trial_over_a_line() {
        use crate::spec::TopologyKind;
        let spec = TrialSpec::new(
            ProtocolKind::MultiHop {
                n: 16,
                channels: 4,
                p: 0.25,
            },
            AdversaryKind::Silent,
            9,
        )
        .with_topology(TopologyKind::Line)
        .with_max_slots(5_000_000);
        let r = run_trial(&spec);
        assert!(r.completed, "{r:?}");
        assert!(r.all_informed);
        assert_eq!(r.protocol, "MultiHopCast");
        assert_eq!(r.safety_violations, 0);
    }

    #[test]
    fn multimessage_trial_tracks_every_payload() {
        let spec = TrialSpec::new(
            ProtocolKind::MultiMessage {
                n: 16,
                k: 4,
                channels: 8,
                p: 0.25,
            },
            AdversaryKind::Silent,
            13,
        )
        .with_max_slots(5_000_000);
        let r = run_trial(&spec);
        assert!(r.completed, "{r:?}");
        assert!(r.all_informed);
        assert_eq!(r.protocol, "MultiMessageCast");
        assert_eq!(r.safety_violations, 0);
    }

    #[test]
    fn scheduled_crash_trial_reports_survivor_relative_completion() {
        let spec = TrialSpec::new(
            ProtocolKind::Naive {
                n: 32,
                act_prob: 1.0,
            },
            AdversaryKind::Silent,
            21,
        )
        .with_max_slots(100_000)
        .with_schedule(ScheduleSpec::new().at(
            0,
            WorldEvent::CrashNodes {
                nodes: vec![28, 29, 30, 31],
            },
        ));
        let r = run_trial(&spec);
        assert!(
            r.completed,
            "survivors completing counts as completed: {r:?}"
        );
        assert!(!r.all_informed, "crashed nodes can never learn");
        assert_eq!(r.crashed, 4);
        assert_eq!(r.survivors, 28);
        assert_eq!(r.survivors_informed, 28);
        assert_eq!(r.timeline.len(), 1);
        assert_eq!(r.timeline[0].kind, "crash");
        assert_eq!(r.safety_violations, 0);
    }

    #[test]
    fn scheduled_swap_eve_seats_an_independent_adversary() {
        let base = TrialSpec::new(
            ProtocolKind::Naive {
                n: 32,
                act_prob: 1.0,
            },
            AdversaryKind::Burst {
                t: 100_000,
                start: 0,
            },
            23,
        )
        .with_max_slots(500_000);
        let swapped = base
            .clone()
            .with_schedule(ScheduleSpec::new().swap_eve(64, AdversaryKind::Silent));
        let r = run_trial(&swapped);
        assert!(r.completed, "{r:?}");
        assert_eq!(r.timeline.len(), 1);
        assert_eq!(r.timeline[0].kind, "swap-eve");
        // The burst jammer was cut off after 64 slots; the unswapped run
        // spends far more of her budget.
        let full = run_trial(&base);
        assert!(
            r.eve_spent < full.eve_spent,
            "{} vs {}",
            r.eve_spent,
            full.eve_spent
        );
    }

    /// Swap-in Eves are seated in event order, the `i`-th on stream
    /// `1_000_010 + i`: a trial equals the run built by hand with that
    /// seating, and differs from it when the streams are exchanged or the
    /// two swaps come in the other order.
    #[test]
    fn swap_eves_take_streams_in_event_order() {
        let first = AdversaryKind::Uniform {
            t: 20_000,
            frac: 0.75,
        };
        let second = AdversaryKind::RandomSubset { t: 20_000, k: 5 };
        let spec = |a: &AdversaryKind, b: &AdversaryKind| {
            TrialSpec::new(
                ProtocolKind::MultiCast {
                    n: 16,
                    params: McParams::default(),
                },
                AdversaryKind::Silent,
                31,
            )
            .with_schedule(
                ScheduleSpec::new()
                    .swap_eve(64, a.clone())
                    .swap_eve(512, b.clone()),
            )
        };
        let forward = spec(&first, &second);
        let by_hand = |streams: [u64; 2]| {
            let mut protocol = MultiCast::with_params(16, McParams::default());
            let mut primary = build_adversary(&forward.adversary, forward.seed);
            let mut a = build_adversary_stream(&first, forward.seed, streams[0]);
            let mut b = build_adversary_stream(&second, forward.seed, streams[1]);
            let out = Simulation::new(&mut protocol)
                .eve(primary.as_eve())
                .schedule(&forward.schedule.events)
                .swap_eve(a.as_eve())
                .swap_eve(b.as_eve())
                .config(EngineConfig {
                    max_slots: forward.max_slots,
                    ..EngineConfig::default()
                })
                .run(forward.seed);
            format!("{:?}", TrialResult::from_outcome(&forward, &out))
        };
        let got = format!("{:?}", run_trial(&forward));
        assert_eq!(got, by_hand([1_000_010, 1_000_011]));
        assert_ne!(got, by_hand([1_000_011, 1_000_010]), "streams exchanged");
        let reversed = format!("{:?}", run_trial(&spec(&second, &first)));
        assert_ne!(got, reversed, "swaps in the other order");
    }

    #[test]
    fn unscheduled_and_empty_schedule_trials_agree() {
        let plain = run_trial(&quick_spec(5));
        let empty = run_trial(&quick_spec(5).with_schedule(ScheduleSpec::new()));
        assert_eq!(plain.slots, empty.slots);
        assert_eq!(plain.max_cost, empty.max_cost);
        assert_eq!(plain.survivors, empty.survivors);
        assert!(empty.timeline.is_empty());
    }

    fn fake(budget: u64, slots: u64, max_cost: u64, completed: bool) -> TrialResult {
        TrialResult {
            protocol: "test",
            adversary: "test",
            n: 16,
            budget,
            seed: 0,
            slots,
            completed,
            all_informed: completed,
            all_informed_at: Some(slots / 2),
            last_halt: if completed { Some(slots - 1) } else { None },
            max_cost,
            mean_cost: max_cost as f64 / 2.0,
            source_cost: max_cost / 2,
            eve_spent: budget,
            safety_violations: 0,
            helper_phases: Vec::new(),
            crashed: 0,
            survivors: 16,
            survivors_informed: if completed { 16 } else { 8 },
            timeline: Vec::new(),
        }
    }

    #[test]
    fn completion_time_prefers_halt() {
        let r = fake(0, 100, 1, true);
        assert_eq!(r.completion_time(), 100); // last_halt 99 + 1
        let mut r2 = fake(0, 100, 1, false);
        r2.all_informed_at = Some(40);
        assert_eq!(r2.completion_time(), 41);
        r2.all_informed_at = None;
        assert_eq!(r2.completion_time(), 100, "falls back to slots");
    }

    #[test]
    fn complete_topology_matches_topology_free_dispatch() {
        use crate::spec::TopologyKind;
        let base = TrialSpec::new(
            ProtocolKind::MultiCast {
                n: 16,
                params: McParams::default(),
            },
            AdversaryKind::Uniform {
                t: 10_000,
                frac: 0.5,
            },
            11,
        );
        let a = run_trial(&base);
        let b = run_trial(&base.clone().with_topology(TopologyKind::Complete));
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.max_cost, b.max_cost);
        assert_eq!(a.eve_spent, b.eve_spent);
    }
}
