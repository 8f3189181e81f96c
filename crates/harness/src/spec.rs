//! Declarative descriptions of protocols, adversaries, and trials.

use rcb_core::{AdvParams, CoreParams, McParams};
use rcb_sim::{WorldEvent, WorldSchedule};

/// Which protocol to run, with its parameters. Plain data: `Clone + Send`,
/// so sweeps can be built declaratively and dispatched across threads.
#[derive(Clone, Debug)]
pub enum ProtocolKind {
    /// `MultiCastCore` (knows `n` and `T`).
    Core { n: u64, t: u64, params: CoreParams },
    /// `MultiCast` (knows `n`).
    MultiCast { n: u64, params: McParams },
    /// `MultiCast(C)` on `c` channels.
    MultiCastC { n: u64, c: u64, params: McParams },
    /// `MultiCastAdv` (knows nothing). A `channel_cap` inside `params` makes
    /// it `MultiCastAdv(C)`.
    Adv { n: u64, params: AdvParams },
    /// Naive multi-channel epidemic (baseline; never halts).
    Naive { n: u64, act_prob: f64 },
    /// Naive epidemic with an explicit channel count (for the channel-count
    /// ablation E14).
    NaiveConfig {
        n: u64,
        channels: u64,
        act_prob: f64,
    },
    /// Single-channel resource-competitive baseline (SPAA'14 bounds).
    SingleChannel { n: u64, params: McParams },
    /// Classical `Decay` (baseline; never halts).
    Decay { n: u64 },
    /// Relay-capable multi-hop broadcast (informed nodes re-run the sender
    /// schedule; never halts — run until all reachable nodes are informed).
    MultiHop { n: u64, channels: u64, p: f64 },
    /// Multi-message broadcast: `k` concurrent payloads, partial holders
    /// relay a random known message (never halts — run until all reachable
    /// nodes hold all `k` messages).
    MultiMessage {
        n: u64,
        k: u32,
        channels: u64,
        p: f64,
    },
}

impl ProtocolKind {
    /// Network size of the trial.
    pub fn n(&self) -> u64 {
        match *self {
            ProtocolKind::Core { n, .. }
            | ProtocolKind::MultiCast { n, .. }
            | ProtocolKind::MultiCastC { n, .. }
            | ProtocolKind::Adv { n, .. }
            | ProtocolKind::Naive { n, .. }
            | ProtocolKind::NaiveConfig { n, .. }
            | ProtocolKind::SingleChannel { n, .. }
            | ProtocolKind::Decay { n }
            | ProtocolKind::MultiHop { n, .. }
            | ProtocolKind::MultiMessage { n, .. } => n,
        }
    }

    /// Short name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Core { .. } => "MultiCastCore",
            ProtocolKind::MultiCast { .. } => "MultiCast",
            ProtocolKind::MultiCastC { .. } => "MultiCast(C)",
            ProtocolKind::Adv { n: _, params } => {
                if params.channel_cap.is_some() {
                    "MultiCastAdv(C)"
                } else {
                    "MultiCastAdv"
                }
            }
            ProtocolKind::Naive { .. } | ProtocolKind::NaiveConfig { .. } => "NaiveEpidemic",
            ProtocolKind::SingleChannel { .. } => "SingleChannelRcb",
            ProtocolKind::Decay { .. } => "Decay",
            ProtocolKind::MultiHop { .. } => "MultiHopCast",
            ProtocolKind::MultiMessage { .. } => "MultiMessageCast",
        }
    }

    /// Full parameter rendering for `rcb describe`: the structural knobs
    /// that distinguish cells within a scenario (protocol-internal tuning
    /// parameters keep their defaults unless a variant carries them).
    pub fn detail(&self) -> String {
        match self {
            ProtocolKind::Core { n, t, .. } => format!("MultiCastCore{{n={n}, T={t}}}"),
            ProtocolKind::MultiCast { n, .. } => format!("MultiCast{{n={n}}}"),
            ProtocolKind::MultiCastC { n, c, .. } => format!("MultiCast(C){{n={n}, C={c}}}"),
            ProtocolKind::Adv { n, params } => match params.channel_cap {
                Some(c) => format!("MultiCastAdv(C){{n={n}, C={c}, alpha={}}}", params.alpha),
                None => format!("MultiCastAdv{{n={n}, alpha={}}}", params.alpha),
            },
            ProtocolKind::Naive { n, act_prob } => {
                format!("NaiveEpidemic{{n={n}, act_prob={act_prob}}}")
            }
            ProtocolKind::NaiveConfig {
                n,
                channels,
                act_prob,
            } => format!("NaiveEpidemic{{n={n}, channels={channels}, act_prob={act_prob}}}"),
            ProtocolKind::SingleChannel { n, .. } => format!("SingleChannelRcb{{n={n}}}"),
            ProtocolKind::Decay { n } => format!("Decay{{n={n}}}"),
            ProtocolKind::MultiHop { n, channels, p } => {
                format!("MultiHopCast{{n={n}, channels={channels}, p={p}}}")
            }
            ProtocolKind::MultiMessage { n, k, channels, p } => {
                format!("MultiMessageCast{{n={n}, k={k}, channels={channels}, p={p}}}")
            }
        }
    }

    /// Protocols without termination detection are run until all nodes are
    /// informed rather than until all halt.
    pub fn never_halts(&self) -> bool {
        matches!(
            self,
            ProtocolKind::Naive { .. }
                | ProtocolKind::NaiveConfig { .. }
                | ProtocolKind::Decay { .. }
                | ProtocolKind::MultiHop { .. }
                | ProtocolKind::MultiMessage { .. }
        )
    }
}

/// Which connectivity topology a trial runs over. Plain data like
/// [`ProtocolKind`]; seeds for the random generators are derived from the
/// trial's master seed (see [`TopologyKind::build`]), so a spec stays fully
/// reproducible and every trial of a cell gets an independent graph.
#[derive(Clone, Debug)]
pub enum TopologyKind {
    /// The paper's single-hop model (every pair connected). The default;
    /// dispatches to the topology-free engine path.
    Complete,
    /// The path `0 – 1 – … – (n−1)`.
    Line,
    /// Row-major grid, `cols` nodes per row.
    Grid { cols: u32 },
    /// Random geometric graph at the given radius (unit square).
    RandomGeometric { radius: f64 },
    /// Per-round edge churn over a static base topology.
    Dynamic {
        base: Box<TopologyKind>,
        p_down: f64,
    },
}

/// Reserved stream ids for topology randomness (the adversary uses
/// `1_000_003`).
const TOPOLOGY_STREAM: u64 = 1_000_004;
const CHURN_STREAM: u64 = 1_000_005;

impl TopologyKind {
    /// Short name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Complete => "complete",
            TopologyKind::Line => "line",
            TopologyKind::Grid { .. } => "grid",
            TopologyKind::RandomGeometric { .. } => "random-geometric",
            TopologyKind::Dynamic { .. } => "dynamic",
        }
    }

    /// Is this the single-hop model?
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologyKind::Complete)
    }

    /// Full parameter rendering for `rcb describe` (generator knobs
    /// included, recursively for [`Dynamic`](Self::Dynamic)).
    pub fn detail(&self) -> String {
        match self {
            TopologyKind::Complete => "complete".into(),
            TopologyKind::Line => "line".into(),
            TopologyKind::Grid { cols } => format!("grid{{cols={cols}}}"),
            TopologyKind::RandomGeometric { radius } => {
                format!("random-geometric{{radius={radius:.4}}}")
            }
            TopologyKind::Dynamic { base, p_down } => {
                format!("dynamic{{base={}, p_down={p_down}}}", base.detail())
            }
        }
    }

    /// Realize the engine-level [`rcb_sim::Topology`], deriving generator
    /// seeds from the trial's master seed.
    pub fn build(&self, master_seed: u64) -> rcb_sim::Topology {
        use rcb_sim::derive_seed;
        match self {
            TopologyKind::Complete => rcb_sim::Topology::Complete,
            TopologyKind::Line => rcb_sim::Topology::Line,
            TopologyKind::Grid { cols } => rcb_sim::Topology::Grid { cols: *cols },
            TopologyKind::RandomGeometric { radius } => rcb_sim::Topology::RandomGeometric {
                radius: *radius,
                seed: derive_seed(master_seed, TOPOLOGY_STREAM),
            },
            TopologyKind::Dynamic { base, p_down } => rcb_sim::Topology::Dynamic {
                base: Box::new(base.build(master_seed)),
                p_down: *p_down,
                seed: derive_seed(master_seed, CHURN_STREAM),
            },
        }
    }
}

/// Which adversary to run against, with its budget. The `seed` for strategy
/// randomness is derived from the trial's master seed, so a spec is fully
/// reproducible.
#[derive(Clone, Debug)]
pub enum AdversaryKind {
    /// No jamming (`T = 0`).
    Silent,
    /// Jam `frac` of the band every slot until the budget is gone.
    Uniform { t: u64, frac: f64 },
    /// Jam the full band from `start` until the budget is gone.
    Burst { t: u64, start: u64 },
    /// Duty-cycled pulses.
    Pulse {
        t: u64,
        period: u64,
        duty: u64,
        frac: f64,
    },
    /// Sweeping window.
    Sweep { t: u64, width: u64, step: u64 },
    /// Exactly `k` uniformly random distinct channels per slot.
    RandomSubset { t: u64, k: u64 },
    /// Gilbert–Elliott bursty environmental noise.
    GilbertElliott {
        t: u64,
        p_gb: f64,
        p_bg: f64,
        frac: f64,
    },
    /// Schedule-targeted: jam `frac` of the band during every step of
    /// `MultiCastAdv` phases with `j == phase`, starting at `from_epoch`.
    /// `params` must match the protocol's so that the (public) schedule
    /// arithmetic agrees.
    TargetAdvPhase {
        t: u64,
        frac: f64,
        phase: u32,
        from_epoch: u32,
        params: AdvParams,
    },
    /// Schedule-targeted: jam `frac` of the band during `MultiCast`
    /// iterations `first..first+count` (spans computed from the public
    /// schedule for network size `n`).
    TargetMcIterations {
        t: u64,
        frac: f64,
        n: u64,
        params: McParams,
        count: u32,
    },
    /// **Adaptive** (Section 8 model): jam every channel that carried a
    /// transmission in the previous slot, up to `max_channels`.
    Reactive { t: u64, max_channels: u64 },
    /// **Adaptive**: the parameterized reactive family of the
    /// adaptive-adversary follow-up work (arXiv:2001.03936) — jam channels
    /// busy within the last `window` observed slots, up to `max_channels`
    /// per slot, triggering only once the window holds at least `threshold`
    /// distinct busy channels. `window = 1, threshold = 1` is
    /// [`Reactive`](Self::Reactive).
    ReactiveWindow {
        t: u64,
        window: u64,
        max_channels: u64,
        threshold: u64,
    },
    /// **Adaptive**: decay-scored hotspot tracker jamming the `k` hottest
    /// channels each slot.
    Hotspot { t: u64, k: u64, decay: f64 },
}

impl AdversaryKind {
    /// The budget `T` this adversary is allowed to spend.
    pub fn budget(&self) -> u64 {
        match *self {
            AdversaryKind::Silent => 0,
            AdversaryKind::Uniform { t, .. }
            | AdversaryKind::Burst { t, .. }
            | AdversaryKind::Pulse { t, .. }
            | AdversaryKind::Sweep { t, .. }
            | AdversaryKind::RandomSubset { t, .. }
            | AdversaryKind::GilbertElliott { t, .. }
            | AdversaryKind::TargetAdvPhase { t, .. }
            | AdversaryKind::TargetMcIterations { t, .. }
            | AdversaryKind::Reactive { t, .. }
            | AdversaryKind::ReactiveWindow { t, .. }
            | AdversaryKind::Hotspot { t, .. } => t,
        }
    }

    /// Is this one of the adaptive (execution-observing) strategies?
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            AdversaryKind::Reactive { .. }
                | AdversaryKind::ReactiveWindow { .. }
                | AdversaryKind::Hotspot { .. }
        )
    }

    /// Short name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::Silent => "silent",
            AdversaryKind::Uniform { .. } => "uniform",
            AdversaryKind::Burst { .. } => "burst",
            AdversaryKind::Pulse { .. } => "pulse",
            AdversaryKind::Sweep { .. } => "sweep",
            AdversaryKind::RandomSubset { .. } => "random-subset",
            AdversaryKind::GilbertElliott { .. } => "gilbert-elliott",
            AdversaryKind::TargetAdvPhase { .. } => "target-adv-phase",
            AdversaryKind::TargetMcIterations { .. } => "target-mc-iter",
            AdversaryKind::Reactive { .. } => "reactive (adaptive)",
            AdversaryKind::ReactiveWindow { .. } => "reactive-window (adaptive)",
            AdversaryKind::Hotspot { .. } => "hotspot (adaptive)",
        }
    }

    /// Full parameter rendering for `rcb describe` and report headers —
    /// unlike [`name`](Self::name), every knob that changes the strategy's
    /// behaviour appears here.
    pub fn detail(&self) -> String {
        match self {
            AdversaryKind::Silent => "silent".into(),
            AdversaryKind::Uniform { t, frac } => format!("uniform{{T={t}, frac={frac}}}"),
            AdversaryKind::Burst { t, start } => format!("burst{{T={t}, start={start}}}"),
            AdversaryKind::Pulse {
                t,
                period,
                duty,
                frac,
            } => format!("pulse{{T={t}, period={period}, duty={duty}, frac={frac}}}"),
            AdversaryKind::Sweep { t, width, step } => {
                format!("sweep{{T={t}, width={width}, step={step}}}")
            }
            AdversaryKind::RandomSubset { t, k } => format!("random-subset{{T={t}, k={k}}}"),
            AdversaryKind::GilbertElliott {
                t,
                p_gb,
                p_bg,
                frac,
            } => format!("gilbert-elliott{{T={t}, p_gb={p_gb}, p_bg={p_bg}, frac={frac}}}"),
            AdversaryKind::TargetAdvPhase {
                t,
                frac,
                phase,
                from_epoch,
                ..
            } => format!(
                "target-adv-phase{{T={t}, frac={frac}, phase={phase}, from_epoch={from_epoch}}}"
            ),
            AdversaryKind::TargetMcIterations {
                t, frac, n, count, ..
            } => format!("target-mc-iter{{T={t}, frac={frac}, n={n}, count={count}}}"),
            AdversaryKind::Reactive { t, max_channels } => {
                format!("reactive{{T={t}, cap={max_channels}}}")
            }
            AdversaryKind::ReactiveWindow {
                t,
                window,
                max_channels,
                threshold,
            } => format!(
                "reactive-window{{T={t}, w={window}, cap={max_channels}, threshold={threshold}}}"
            ),
            AdversaryKind::Hotspot { t, k, decay } => {
                format!("hotspot{{T={t}, k={k}, decay={decay}}}")
            }
        }
    }
}

/// A trial's world schedule: the engine's own [`WorldSchedule`], mounted
/// as is on every trial, plus the adversary each
/// [`WorldEvent::SwapEve`] seats. The runner builds those swap-in Eves per
/// trial, in event order, on streams `1_000_010 + i`. Plain data
/// (`Clone + Send`), so campaign cells carry it across threads.
#[derive(Clone, Debug, Default)]
pub struct ScheduleSpec {
    /// The `(slot, event)` script, checked by [`WorldSchedule::try_push`].
    pub events: WorldSchedule,
    /// The adversary of each `SwapEve` event, in event order.
    pub swaps: Vec<AdversaryKind>,
}

impl ScheduleSpec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event with the adversary it seats: `Some` exactly for
    /// [`WorldEvent::SwapEve`]. Every schedule rule is
    /// [`WorldSchedule::try_push`]'s; a rejected event is not queued.
    ///
    /// # Panics
    /// Panics if `swap` is `Some` for any other event or `None` for a swap.
    pub fn try_push(
        &mut self,
        slot: u64,
        event: WorldEvent,
        swap: Option<AdversaryKind>,
    ) -> Result<(), String> {
        assert_eq!(
            matches!(event, WorldEvent::SwapEve),
            swap.is_some(),
            "a swap-in adversary goes with exactly the swap-eve events"
        );
        self.events.try_push(slot, event)?;
        self.swaps.extend(swap);
        Ok(())
    }

    /// Append a non-swap event, builder-style; panics where
    /// [`try_push`](Self::try_push) errs.
    pub fn at(mut self, slot: u64, event: WorldEvent) -> Self {
        self.try_push(slot, event, None)
            .unwrap_or_else(|e| panic!("invalid schedule entry: {e}"));
        self
    }

    /// Append a swap to `adversary`, builder-style; panics where
    /// [`try_push`](Self::try_push) errs.
    pub fn swap_eve(mut self, slot: u64, adversary: AdversaryKind) -> Self {
        self.try_push(slot, WorldEvent::SwapEve, Some(adversary))
            .unwrap_or_else(|e| panic!("invalid schedule entry: {e}"));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Slot of the first event.
    pub fn first_slot(&self) -> Option<u64> {
        self.events.first_slot()
    }

    /// Slot of the last event.
    pub fn last_slot(&self) -> Option<u64> {
        self.events.last_slot()
    }

    /// Compact rendering for `rcb describe` / `rcb list` schedule columns:
    /// `"3 events @ 1000..5000"` (or `"1 event @ 1000"`).
    pub fn summary(&self) -> String {
        match (self.first_slot(), self.last_slot()) {
            (Some(first), Some(_)) if self.len() == 1 => format!("1 event @ {first}"),
            (Some(first), Some(last)) => format!("{} events @ {first}..{last}", self.len()),
            _ => "none".into(),
        }
    }

    /// Full rendering for `rcb describe`: every event with its slot.
    pub fn detail(&self) -> String {
        let items: Vec<String> = self
            .events
            .iter()
            .map(|(slot, e)| format!("{}@{slot}", e.kind()))
            .collect();
        items.join(", ")
    }
}

/// One fully-specified trial.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    pub protocol: ProtocolKind,
    pub adversary: AdversaryKind,
    /// Connectivity topology (default: the single-hop complete graph).
    pub topology: TopologyKind,
    /// Nemesis schedule (default: empty — byte-identical to no schedule).
    pub schedule: ScheduleSpec,
    /// Master seed; node streams, engine sampling, adversary randomness,
    /// and topology randomness all derive from it.
    pub seed: u64,
    /// Engine slot cap.
    pub max_slots: u64,
}

impl TrialSpec {
    pub fn new(protocol: ProtocolKind, adversary: AdversaryKind, seed: u64) -> Self {
        Self {
            protocol,
            adversary,
            topology: TopologyKind::Complete,
            schedule: ScheduleSpec::new(),
            seed,
            max_slots: 2_000_000_000,
        }
    }

    pub fn with_max_slots(mut self, cap: u64) -> Self {
        self.max_slots = cap;
        self
    }

    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    pub fn with_schedule(mut self, schedule: ScheduleSpec) -> Self {
        self.schedule = schedule;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_n() {
        let p = ProtocolKind::MultiCast {
            n: 64,
            params: McParams::default(),
        };
        assert_eq!(p.name(), "MultiCast");
        assert_eq!(p.n(), 64);
        assert!(!p.never_halts());
        assert!(ProtocolKind::Naive {
            n: 16,
            act_prob: 1.0
        }
        .never_halts());

        let capped = ProtocolKind::Adv {
            n: 32,
            params: AdvParams {
                channel_cap: Some(8),
                ..AdvParams::default()
            },
        };
        assert_eq!(capped.name(), "MultiCastAdv(C)");
    }

    #[test]
    fn budgets() {
        assert_eq!(AdversaryKind::Silent.budget(), 0);
        assert_eq!(AdversaryKind::Uniform { t: 99, frac: 0.5 }.budget(), 99);
        assert_eq!(AdversaryKind::Burst { t: 7, start: 0 }.name(), "burst");
    }

    #[test]
    fn topology_kinds_build_deterministically() {
        assert!(TopologyKind::Complete.is_complete());
        assert!(!TopologyKind::Line.is_complete());
        assert_eq!(TopologyKind::Grid { cols: 4 }.name(), "grid");

        let kind = TopologyKind::RandomGeometric { radius: 0.5 };
        assert_eq!(kind.build(7), kind.build(7), "same master seed, same graph");
        assert_ne!(kind.build(7), kind.build(8), "per-trial graphs differ");

        let churned = TopologyKind::Dynamic {
            base: Box::new(TopologyKind::RandomGeometric { radius: 0.5 }),
            p_down: 0.3,
        };
        let rcb_sim::Topology::Dynamic { base, p_down, seed } = churned.build(7) else {
            panic!("dynamic kind must build a dynamic topology");
        };
        assert_eq!(p_down, 0.3);
        // The churn stream and the base generator's stream are distinct.
        let rcb_sim::Topology::RandomGeometric {
            seed: base_seed, ..
        } = *base
        else {
            panic!("base must survive the build");
        };
        assert_ne!(seed, base_seed);
    }

    #[test]
    fn multihop_protocol_kind() {
        let p = ProtocolKind::MultiHop {
            n: 32,
            channels: 16,
            p: 0.25,
        };
        assert_eq!(p.name(), "MultiHopCast");
        assert_eq!(p.n(), 32);
        assert!(p.never_halts(), "no termination detection yet");
    }

    #[test]
    fn multimessage_protocol_kind() {
        let p = ProtocolKind::MultiMessage {
            n: 32,
            k: 8,
            channels: 16,
            p: 0.25,
        };
        assert_eq!(p.name(), "MultiMessageCast");
        assert_eq!(p.n(), 32);
        assert!(p.never_halts(), "no termination detection");
        assert_eq!(
            p.detail(),
            "MultiMessageCast{n=32, k=8, channels=16, p=0.25}"
        );
    }

    #[test]
    fn trial_spec_defaults_to_single_hop() {
        let spec = TrialSpec::new(ProtocolKind::Decay { n: 16 }, AdversaryKind::Silent, 1);
        assert!(spec.topology.is_complete());
        assert!(spec.schedule.is_empty());
        let spec = spec.with_topology(TopologyKind::Line);
        assert_eq!(spec.topology.name(), "line");
    }

    #[test]
    fn schedule_spec_summaries() {
        let empty = ScheduleSpec::new();
        assert_eq!(empty.summary(), "none");
        assert_eq!(empty.first_slot(), None);

        let one = ScheduleSpec::new().at(1000, WorldEvent::Heal);
        assert_eq!(one.summary(), "1 event @ 1000");
        assert_eq!(one.detail(), "heal@1000");

        let many = ScheduleSpec::new()
            .at(100, WorldEvent::CrashNodes { nodes: vec![1, 2] })
            .at(500, WorldEvent::RecoverNodes { nodes: vec![1, 2] })
            .swap_eve(900, AdversaryKind::Uniform { t: 10, frac: 0.5 });
        assert_eq!(many.summary(), "3 events @ 100..900");
        assert_eq!(many.detail(), "crash@100, recover@500, swap-eve@900");
        assert_eq!(many.last_slot(), Some(900));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn schedule_spec_rejects_out_of_order_events() {
        let _ = ScheduleSpec::new()
            .at(500, WorldEvent::Heal)
            .at(100, WorldEvent::Heal);
    }
}
