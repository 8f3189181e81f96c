//! The simulation engine: executes a [`Protocol`] against an [`Eve`]
//! adversary through the [`Simulation`] builder.
//!
//! # One entry point
//!
//! Every run — oblivious or adaptive adversary, single-hop or over a
//! connectivity topology, with or without an observer — goes through the
//! same builder and the same core loop:
//!
//! ```text
//! Simulation::new(&mut protocol)
//!     .eve(Eve::Oblivious(&mut adversary))   // or .adversary(..) / .adaptive(..)
//!     .topology(&topology)                   // optional; None = single-hop
//!     .config(cfg)                           // optional; EngineConfig::default()
//!     .observer(&mut observer)               // optional; no-op otherwise
//!     .run(master_seed)
//! ```
//!
//! There is exactly one simulation loop; the axes that used to be separate
//! `run*` entry points (adversary model × topology × observation) are now
//! configuration of that loop. [`Eve`] unifies the [`Adversary`] /
//! [`AdaptiveAdversary`] split behind one span-dispatching interface, so
//! both models share the idle fast-forward below.
//!
//! # Slot loop
//!
//! The engine advances segment by segment (a segment is an iteration of
//! `MultiCastCore`/`MultiCast` or one step of an `(i, j)`-phase of
//! `MultiCastAdv`). Within a segment every slot proceeds as:
//!
//! 1. **Actors** (sampled once per *round*; rounds are single slots except
//!    in round-simulated protocols such as `MultiCast(C)`): the acting
//!    subset of the active nodes is drawn exactly — each node independently
//!    lands in coin class 1 w.p. `p1`, class 2 w.p. `p2` — using
//!    geometric-skip sampling (see [`crate::sampler`]). In a segment where
//!    at least half of the gaps are below 64, the segment's stream answers
//!    most gap draws from a 4 KiB gap guide instead of `ln`, with exactly
//!    the gaps and RNG consumption the inversion gives, so the guide moves
//!    no output bit (the exactness argument is in [`crate::sampler`]).
//!    The sampler ([`TwoClassRoundStream::next_round_into`]) is one
//!    out-of-line call per round that writes the round's actors into two
//!    `n`-length class buffers allocated once per run, and returns the two
//!    cursors; the loop walks `class1[..n1]`, then `class2[..n2]`. Each
//!    selected node chooses its concrete action and channel (the
//!    protocols' per-actor callbacks are `#[inline]`, so they inline into
//!    this monomorphized loop), and the action executes as soon as it is
//!    chosen: the node is charged one unit of energy and
//!    registered as a listener or broadcaster of the slot. Only a
//!    round-simulated protocol (`round_len > 1`) buffers the actions it aims
//!    at a later sub-slot of the round; they execute, and are charged, when
//!    that sub-slot is stepped, so a slot cap that falls mid-round charges
//!    only the sub-slots that ran. The loop tracks the sub-slot with a
//!    counter rather than `(slot − seg_start) % round_len`: it steps with
//!    each stepped slot, resets at segment starts and stays 0 across
//!    fast-forward spans, which are whole rounds (except the span at the
//!    cap, which ends the run).
//! 2. **Jamming**, after every selection of the slot: the adversary is asked
//!    which channels she jams (slot index and channel count; an adaptive
//!    Eve also sees the previous slot's band); the engine charges her budget
//!    and truncates the request if she cannot afford it.
//! 3. **Resolution**: per channel — silence / message / noise per the model
//!    of Section 3 of the paper; listeners receive feedback in selection
//!    order. There is no resolve pass: each broadcast is tallied on the
//!    [`ChannelBoard`] as it executes in step 1, so a single-hop listener's
//!    feedback is one O(1) board lookup, and nothing is sorted unless an
//!    adaptive Eve reads the band.
//! 4. **Boundaries**: at a segment's end every active node runs its
//!    end-of-segment checks and may halt.
//!
//! # Idle-round fast-forward
//!
//! In late iterations/epochs the action probability decays geometrically, so
//! almost every round samples **zero actors** — the paper's protocols spend
//! most of their wall-clock in silence. The engine therefore treats a
//! segment's actor sampling as one geometric-skip process carried across
//! rounds ([`TwoClassRoundStream`]): an empty round consumes no randomness,
//! and the length of a run of consecutive empty rounds is known from the
//! carried skip in O(1). When a round comes up empty (and
//! [`EngineConfig::fast_forward`] is on), the engine jumps over the whole
//! run of empty rounds at once:
//!
//! * Eve's budget is charged **exactly** via the span-batched
//!   [`Adversary::jam_span`] API — by contract equivalent to per-slot `jam`
//!   calls under the engine's budget rule (the default implementation *is*
//!   that loop; structured jammers supply closed forms).
//! * No channel board, feedback, or per-slot observer work happens;
//!   observers get a single [`Observer::on_idle_span`] event.
//!
//! The fast-forward is sound for **adaptive** adversaries too: a span is
//! skipped only when provably no node acts in it, so the band is silent and
//! Eve observes nothing she could react to. [`AdaptiveAdversary::jam_span`]
//! receives the observation of the last *executed* slot for the span's
//! first slot and the silent observation for the rest, which is exactly the
//! observation stream the per-slot path would deliver; after the span the
//! engine records the silent band as the previous-slot observation.
//!
//! For adversaries whose `jam_span` is exact (everything in `rcb-adversary`
//! except the Markov-state `GilbertElliott`), a fast-forwarded run produces a
//! [`RunOutcome`] byte-identical to the slot-by-slot path
//! (`fast_forward: false`), including RNG stream states — enforced by the
//! `fast_forward` and `adaptive_fast_forward` integration test matrices.
//! [`Sampling::DensePerNode`] always takes the slot-by-slot path.
//!
//! # Multi-hop topologies
//!
//! Mounting a [`Topology`] with [`Simulation::topology`] threads it through
//! the run: the delivery step only lets a listener hear broadcasters
//! **adjacent** to it in the current round ([`TopologyView::connected`]),
//! informed nodes act as relay sources, and "everyone informed" means every
//! node *reachable* from the source. [`Topology::Complete`] reproduces the
//! single-hop model byte-for-byte — same RNG draws, same traces, same
//! fast-forward spans as a topology-free run (enforced by
//! `tests/topology_equivalence.rs`): the per-listener adjacency resolution
//! degenerates to the channel-board semantics, and topology construction
//! draws only from the topology's own seeds.
//!
//! # Multi-message broadcast
//!
//! A protocol may carry `k > 1` concurrent payloads
//! ([`Protocol::num_messages`], payload-multiplexed via
//! [`crate::Payload::Msg`]). The engine then tracks, per message, how many
//! nodes know it and the slot by which every reachable node knew it
//! ([`RunOutcome::messages`]); nodes report their knowledge as a bitmask
//! ([`crate::ProtocolNode::informed_mask`]). For `k = 1` the per-message
//! record is synthesized from the run-level counters, so the single-message
//! hot path is unchanged.
//!
//! # Determinism
//!
//! A run is a pure function of `(protocol, adversary, topology,
//! master_seed)`: node streams and the engine's sampling stream are derived
//! from the master seed with [`derive_seed`], the adversary carries its own
//! seeded stream, and topologies carry theirs (dynamic edge churn is
//! counter-based, so skipped rounds never materialize an edge set).

use crate::adaptive::{AdaptiveAdversary, BandObservation};
use crate::channel::{ChannelBoard, Feedback, Payload};
use crate::jamset::JamSet;
use crate::metrics::{MessageOutcome, NodeExtra, NodeOutcome, RunOutcome, SlotStats};
use crate::protocol::{
    Action, Adversary, BoundaryDecision, Coin, NodeId, Protocol, ProtocolNode, SlotProfile,
    SpanCharge,
};
use crate::rng::{derive_seed, Xoshiro256};
use crate::sampler::TwoClassRoundStream;
use crate::schedule::{
    realize_partition, LinkLoss, ScheduleMarker, WorldEvent, WorldSchedule, LINK_LOSS_STREAM,
};
use crate::telemetry::EngineTelemetry;
use crate::topology::{edge_id, Topology, TopologyView};
use crate::trace::Observer;
use std::time::Instant;

/// How the engine samples the per-slot acting subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Sampling {
    /// Geometric-skip subset sampling from a dedicated engine stream
    /// (`O(#actors)` per slot), carried across the rounds of a segment so
    /// empty rounds consume no randomness (see
    /// [`TwoClassRoundStream`]). The default, and the only mode eligible
    /// for the idle fast-forward.
    #[default]
    Sparse,
    /// Reference mode: every active node flips its own coin from its own
    /// stream each round (`O(n)` per slot), exactly like the paper's
    /// pseudocode. Used by tests to cross-validate the sparse path.
    DensePerNode,
}

/// Engine limits and switches.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Hard cap on executed slots; the run stops there regardless of
    /// protocol state (prevents runaway configurations).
    pub max_slots: u64,
    /// Stop as soon as every node is informed (useful for protocols without
    /// termination detection, e.g. the naive epidemic baseline).
    pub stop_when_all_informed: bool,
    /// Actor sampling mode.
    pub sampling: Sampling,
    /// Fast-forward runs of idle rounds (see the module docs). On by
    /// default; turn off to force the slot-by-slot reference path, e.g. for
    /// cross-validation or per-slot observer traces. Only effective with
    /// [`Sampling::Sparse`]; covers both oblivious and adaptive adversaries
    /// (a skipped span is provably silent, so an adaptive Eve observes
    /// nothing in it).
    pub fast_forward: bool,
    /// Collect per-phase wall-clock into
    /// [`EngineTelemetry::phases`](crate::EngineTelemetry): setup, slot
    /// loop, fast-forward, finalize. Off by default — with it off the
    /// telemetry is a pure function of the run inputs and artifacts built
    /// from it stay byte-identical across hosts and repeats. The clock is
    /// read strictly outside the RNG/decision path either way, so the
    /// *outcome* is never affected.
    pub time_phases: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_slots: 200_000_000,
            stop_when_all_informed: false,
            sampling: Sampling::Sparse,
            fast_forward: true,
            time_phases: false,
        }
    }
}

impl EngineConfig {
    /// Config with a custom slot cap.
    pub fn capped(max_slots: u64) -> Self {
        Self {
            max_slots,
            ..Self::default()
        }
    }
}

struct NoopObserver;
impl Observer for NoopObserver {}

/// Forwards every event to the wrapped observer while counting invocations
/// for [`EngineTelemetry::observer_events`]. The count is therefore the
/// same whether or not a real observer is mounted.
struct CountingObserver<'a> {
    inner: &'a mut dyn Observer,
    events: u64,
}

impl Observer for CountingObserver<'_> {
    fn on_informed(&mut self, node: NodeId, slot: u64) {
        self.events += 1;
        self.inner.on_informed(node, slot);
    }

    fn on_halted(&mut self, node: NodeId, slot: u64) {
        self.events += 1;
        self.inner.on_halted(node, slot);
    }

    fn on_boundary(&mut self, slot: u64, profile: &SlotProfile, active: u32, informed: u32) {
        self.events += 1;
        self.inner.on_boundary(slot, profile, active, informed);
    }

    fn on_slot(&mut self, slot: u64, stats: &SlotStats) {
        self.events += 1;
        self.inner.on_slot(slot, stats);
    }

    fn on_idle_span(&mut self, slot: u64, len: u64, jammed: u64) {
        self.events += 1;
        self.inner.on_idle_span(slot, len, jammed);
    }
}

/// The physical slot being stepped, plus the per-node energy ledger its
/// actions are charged to. An action enters through
/// [`execute`](Self::execute) as soon as it is due: when `on_selected`
/// returns for sub-slot 0, or when a round-simulated protocol's buffered
/// action reaches its later sub-slot.
struct SlotExec {
    board: ChannelBoard,
    /// `(node, physical channel)` of every listener, in selection order.
    listeners: Vec<(u32, u64)>,
    /// Broadcasters with their node ids, for topology-aware delivery.
    bcasters: Vec<(u32, u64, Payload)>,
    stats: SlotStats,
    listen_cost: Vec<u64>,
    bcast_cost: Vec<u64>,
    /// The board is read for single-hop listener outcomes and for band
    /// observations; a topology run with an oblivious Eve never reads it.
    use_board: bool,
    keep_bcasters: bool,
}

impl SlotExec {
    fn begin(&mut self) {
        self.board.clear();
        self.listeners.clear();
        self.bcasters.clear();
        self.stats = SlotStats::default();
    }

    /// Charge `nid` one unit of energy for `action` (on a physical
    /// channel) and register it with this slot. Forced inline: as a call,
    /// it and the protocols' `on_selected` drop out of `run_core`, which
    /// slows the topology cells that never touch the board.
    #[inline(always)]
    fn execute(&mut self, nid: u32, action: Action) {
        match action {
            Action::Idle => {}
            Action::Listen { ch } => {
                self.listen_cost[nid as usize] += 1;
                self.stats.listens += 1;
                self.listeners.push((nid, ch));
            }
            Action::Broadcast { ch, payload } => {
                self.bcast_cost[nid as usize] += 1;
                self.stats.broadcasts += 1;
                if self.use_board {
                    self.board.add_broadcast(ch, payload);
                }
                if self.keep_bcasters {
                    self.bcasters.push((nid, ch, payload));
                }
            }
        }
    }
}

/// The adversary seat of a [`Simulation`]: nobody, the paper's oblivious
/// model, or the Section 8 adaptive extension.
///
/// `Eve` absorbs the old `Adversary` / `AdaptiveAdversary` dispatch split
/// behind one span-dispatching interface: the engine talks to whichever
/// model is mounted through the same [`jam`](Eve::jam) /
/// [`jam_span`](Eve::jam_span) calls, so both share the slot loop *and* the
/// idle fast-forward (a skipped span is provably silent, so an adaptive Eve
/// observes nothing in it — see the module docs for the soundness
/// argument).
///
/// ```
/// use rcb_sim::{BandObservation, Eve, JamSet, NoAdversary};
///
/// // Both adversary models fit the same seat.
/// let mut quiet = NoAdversary;
/// let mut eve = Eve::Oblivious(&mut quiet);
/// assert_eq!(eve.budget(), 0);
/// assert_eq!(eve.jam(0, 8, &BandObservation::default()), JamSet::Empty);
/// // Oblivious strategies never read the band, so the engine can skip
/// // collecting observations entirely.
/// assert!(!eve.observes());
/// assert_eq!(Eve::Silent.budget(), 0);
/// ```
#[derive(Default)]
pub enum Eve<'a> {
    /// No jamming at all (a zero-budget Eve). The default seat.
    #[default]
    Silent,
    /// The paper's model: Eve sees only the slot index and channel count.
    Oblivious(&'a mut dyn Adversary),
    /// The Section 8 extension: Eve additionally observes, each slot, which
    /// channels carried transmissions in the previous slot.
    Adaptive(&'a mut dyn AdaptiveAdversary),
}

impl Eve<'_> {
    /// Eve's total energy budget `T`.
    pub fn budget(&self) -> u64 {
        match self {
            Eve::Silent => 0,
            Eve::Oblivious(a) => a.budget(),
            Eve::Adaptive(a) => a.budget(),
        }
    }

    /// The jam set for `slot`. `prev` is the previous slot's band
    /// observation; it reaches only an adaptive Eve.
    #[inline]
    pub fn jam(&mut self, slot: u64, channels: u64, prev: &BandObservation) -> JamSet {
        match self {
            Eve::Silent => JamSet::Empty,
            Eve::Oblivious(a) => a.jam(slot, channels),
            Eve::Adaptive(a) => a.jam(slot, channels, prev),
        }
    }

    /// Span-batched budget charge over an idle span. `prev` is the band
    /// observation of the slot before the span; it reaches only an adaptive
    /// Eve (and only her first span slot — the rest of the span is provably
    /// silent, so she observes nothing further).
    pub fn jam_span(
        &mut self,
        start: u64,
        len: u64,
        channels: u64,
        budget: u64,
        prev: &BandObservation,
    ) -> SpanCharge {
        match self {
            Eve::Silent => SpanCharge::default(),
            Eve::Oblivious(a) => a.jam_span(start, len, channels, budget),
            Eve::Adaptive(a) => a.jam_span(start, len, channels, budget, prev),
        }
    }

    /// Whether the engine must collect per-slot band observations.
    pub fn observes(&self) -> bool {
        match self {
            Eve::Silent | Eve::Oblivious(_) => false,
            Eve::Adaptive(a) => a.needs_observations(),
        }
    }
}

/// Builder for one engine run — the crate's single simulation entry point.
///
/// Mount what the run needs (adversary seat, topology, config, observer)
/// and call [`run`](Simulation::run). Unset axes take their defaults: a
/// [`Eve::Silent`] seat, single-hop delivery, [`EngineConfig::default`],
/// and no observer.
///
/// ```
/// use rcb_sim::{
///     Action, BoundaryDecision, Coin, EngineConfig, Eve, Feedback, NoAdversary,
///     Payload, Protocol, ProtocolNode, Simulation, SlotProfile, Topology, Xoshiro256,
/// };
///
/// // A minimal relay protocol: informed nodes broadcast, uninformed nodes
/// // listen, all on a random channel; nobody ever halts.
/// struct Relay { n: u32 }
/// struct Node { informed: bool }
///
/// impl Protocol for Relay {
///     type Node = Node;
///     fn num_nodes(&self) -> u32 { self.n }
///     fn segment(&mut self, _start: u64) -> SlotProfile {
///         SlotProfile {
///             p1: 0.5, p2: 0.5, channels: 2, virt_channels: 2, round_len: 1,
///             seg_len: 1 << 40, seg_major: 0, seg_minor: 0, step: 0,
///         }
///     }
///     fn make_node(&self, _id: u32, is_source: bool) -> Node {
///         Node { informed: is_source }
///     }
/// }
///
/// impl ProtocolNode for Node {
///     fn on_selected(&mut self, p: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
///         let ch = rng.gen_range(p.virt_channels);
///         match coin {
///             Coin::One if !self.informed => Action::Listen { ch },
///             Coin::Two if self.informed => Action::Broadcast { ch, payload: Payload::Data },
///             _ => Action::Idle,
///         }
///     }
///     fn on_feedback(&mut self, _p: &SlotProfile, fb: Feedback) {
///         if fb == Feedback::Message(Payload::Data) { self.informed = true; }
///     }
///     fn on_boundary(&mut self, _p: &SlotProfile) -> BoundaryDecision {
///         BoundaryDecision::Continue
///     }
///     fn is_informed(&self) -> bool { self.informed }
/// }
///
/// // On the 8-node line the message travels hop by hop; completion means
/// // the source's whole reachable component (here: everyone) is informed.
/// let cfg = EngineConfig { stop_when_all_informed: true, ..EngineConfig::capped(1_000_000) };
/// let out = Simulation::new(&mut Relay { n: 8 })
///     .topology(&Topology::Line)
///     .config(cfg)
///     .run(7);
/// assert!(out.all_informed);
/// assert_eq!(out.reachable, 8);
///
/// // The same run spelled with an explicit (zero-budget) adversary seat is
/// // byte-identical: NoAdversary and Eve::Silent never draw randomness.
/// let out2 = Simulation::new(&mut Relay { n: 8 })
///     .eve(Eve::Oblivious(&mut NoAdversary))
///     .topology(&Topology::Line)
///     .config(cfg)
///     .run(7);
/// assert_eq!(out, out2);
/// ```
pub struct Simulation<'a, P: Protocol> {
    protocol: &'a mut P,
    eve: Eve<'a>,
    swap_eves: Vec<Eve<'a>>,
    topology: Option<&'a Topology>,
    schedule: Option<&'a WorldSchedule>,
    config: EngineConfig,
    observer: Option<&'a mut dyn Observer>,
}

impl<'a, P: Protocol> Simulation<'a, P> {
    /// Start a builder for a run of `protocol`.
    pub fn new(protocol: &'a mut P) -> Self {
        Self {
            protocol,
            eve: Eve::Silent,
            swap_eves: Vec::new(),
            topology: None,
            schedule: None,
            config: EngineConfig::default(),
            observer: None,
        }
    }

    /// Mount an adversary seat (any [`Eve`] variant).
    pub fn eve(mut self, eve: Eve<'a>) -> Self {
        self.eve = eve;
        self
    }

    /// Mount an oblivious adversary — sugar for
    /// `.eve(Eve::Oblivious(adversary))`.
    pub fn adversary(self, adversary: &'a mut dyn Adversary) -> Self {
        self.eve(Eve::Oblivious(adversary))
    }

    /// Mount an adaptive (band-observing) adversary — sugar for
    /// `.eve(Eve::Adaptive(adversary))`.
    pub fn adaptive(self, adversary: &'a mut dyn AdaptiveAdversary) -> Self {
        self.eve(Eve::Adaptive(adversary))
    }

    /// Run over a connectivity [`Topology`]. Accepts `&Topology`,
    /// `Some(&Topology)`, or `None` (the single-hop default, handy when a
    /// caller threads an `Option` through). [`Topology::Complete`] is
    /// byte-identical to not mounting a topology at all.
    pub fn topology(mut self, topology: impl Into<Option<&'a Topology>>) -> Self {
        self.topology = topology.into();
        self
    }

    /// Mount a declarative [`WorldSchedule`] — the nemesis layer of
    /// time-indexed fault events (adversary swaps, partitions, crashes,
    /// lossy links). Events are applied at round starts; a mounted-but-empty
    /// schedule is byte-identical to no schedule at all (see the
    /// [`crate::schedule`] module docs).
    pub fn schedule(mut self, schedule: &'a WorldSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Queue an adversary seat for the schedule's next
    /// [`WorldEvent::SwapEve`] event. Call once per `SwapEve`, in event
    /// order; the incoming Eve starts with her own full budget. A `SwapEve`
    /// with an exhausted queue is a no-op.
    pub fn swap_eve(mut self, eve: Eve<'a>) -> Self {
        self.swap_eves.push(eve);
        self
    }

    /// Replace the default [`EngineConfig`].
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Stream engine events into `observer`.
    pub fn observer(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Execute the run with the given master seed. A run is a pure function
    /// of `(protocol, eve, topology, config, master_seed)` — see the module
    /// docs' determinism section.
    pub fn run(self, master_seed: u64) -> RunOutcome {
        self.run_with_telemetry(master_seed).0
    }

    /// Like [`run`](Self::run), but also return the run's
    /// [`EngineTelemetry`] — slots stepped vs. fast-forwarded, span
    /// statistics, RNG draws, jam-budget split, observer events, and (with
    /// [`EngineConfig::time_phases`]) per-phase wall-clock. Collecting it
    /// never perturbs the run: `run` and `run_with_telemetry` produce
    /// byte-identical [`RunOutcome`]s for the same inputs.
    pub fn run_with_telemetry(self, master_seed: u64) -> (RunOutcome, EngineTelemetry) {
        let Self {
            protocol,
            eve,
            swap_eves,
            topology,
            schedule,
            config,
            observer,
        } = self;
        let mut noop = NoopObserver;
        run_core(
            protocol,
            eve,
            swap_eves,
            topology,
            schedule,
            master_seed,
            &config,
            observer.unwrap_or(&mut noop),
        )
    }
}

/// The single simulation loop behind [`Simulation::run`].
#[allow(clippy::too_many_arguments)]
fn run_core<'e, P: Protocol>(
    protocol: &mut P,
    mut eve: Eve<'e>,
    swap_eves: Vec<Eve<'e>>,
    topology: Option<&Topology>,
    schedule: Option<&WorldSchedule>,
    master_seed: u64,
    cfg: &EngineConfig,
    observer: &mut dyn Observer,
) -> (RunOutcome, EngineTelemetry) {
    let n = protocol.num_nodes();
    assert!(n >= 2, "broadcast needs at least a source and one receiver");

    let mut tel = EngineTelemetry::default();
    // Observer events are counted through a forwarding wrapper so the tally
    // is identical with and without a mounted observer.
    let mut observer = CountingObserver {
        inner: observer,
        events: 0,
    };
    // Wall-clock is read only under `time_phases`, and only between phases
    // or around whole spans — never inside the per-slot hot section.
    let t_setup = cfg.time_phases.then(Instant::now);

    // World schedule (nemesis layer). An empty slice behaves exactly like
    // no schedule: every guard below degenerates to the unscheduled engine.
    let sched: &[(u64, WorldEvent)] = schedule.map_or(&[], WorldSchedule::events);
    let mut next_event_idx: usize = 0;
    let swaps_observe = swap_eves.iter().any(Eve::observes);
    let mut swap_queue = swap_eves.into_iter();
    let mut timeline: Vec<ScheduleMarker> = Vec::new();
    let mut partition: Option<Vec<u32>> = None;
    // The link-loss overlay hashes (seed, round, edge) statelessly;
    // derive_seed draws nothing, so unscheduled runs are unaffected.
    let mut link_loss = LinkLoss::new(derive_seed(master_seed, LINK_LOSS_STREAM));

    // Realized connectivity; construction draws only from the topology's
    // own seeds, so the node/engine RNG streams below are untouched.
    // Partition / link-loss events gate delivery per listener, so a
    // single-hop run with such events gets a synthesized Complete view
    // (byte-identical delivery — see tests/topology_equivalence.rs).
    let needs_view = !sched.is_empty() && sched.iter().any(|(_, e)| e.affects_connectivity());
    let complete = Topology::Complete;
    let topo = topology
        .or(if needs_view { Some(&complete) } else { None })
        .map(|t| TopologyView::build(t, n));
    // "Everyone" means every node the source can reach at all. Compared
    // with >= rather than == defensively: a protocol's boundary inference
    // could in principle mark an unreachable node informed.
    let informed_target: u32 = topo.as_ref().map_or(n, TopologyView::reachable_count);

    // Stream 0 is the engine's sampling stream; node i uses stream i + 1.
    let mut engine_rng = Xoshiro256::seeded(derive_seed(master_seed, 0));
    let mut node_rngs: Vec<Xoshiro256> = (0..n)
        .map(|i| Xoshiro256::seeded(derive_seed(master_seed, i as u64 + 1)))
        .collect();

    let mut nodes: Vec<P::Node> = (0..n).map(|i| protocol.make_node(i, i == 0)).collect();
    let mut active: Vec<u32> = (0..n).collect();

    let mut informed_at: Vec<Option<u64>> = vec![None; n as usize];
    informed_at[0] = Some(0); // the source knows m from the start
    let mut halted_at: Vec<Option<u64>> = vec![None; n as usize];
    let mut halted_informed: Vec<bool> = vec![false; n as usize];
    let mut informed_count: u32 = 1;

    // Crash bookkeeping (nemesis layer): crashed nodes keep their state but
    // leave the actor pool and the live completion accounting.
    let mut crashed: Vec<bool> = vec![false; n as usize];
    let mut crashed_count: u32 = 0;
    let mut crashed_reachable: u32 = 0;
    let mut crashed_informed: u32 = 0;
    // Slot from which the current crashed_count has been in effect, for the
    // crashed-node-slot telemetry integral.
    let mut crash_from: u64 = 0;

    // Per-message tracking (multi-message protocols only). The k = 1 hot
    // path skips all of it and synthesizes its single MessageOutcome from
    // the run-level counters at the end.
    let k_msgs = protocol.num_messages();
    assert!(
        (1..=64).contains(&k_msgs),
        "num_messages must be in 1..=64, got {k_msgs}"
    );
    let multi = k_msgs > 1;
    let msg_all: u64 = if k_msgs == 64 {
        u64::MAX
    } else {
        (1u64 << k_msgs) - 1
    };
    let tracked = if multi { k_msgs as usize } else { 0 };
    let mut msg_mask: Vec<u64> = Vec::new();
    let mut msg_informed_count: Vec<u32> = vec![0; tracked];
    let mut msg_informed_at: Vec<Option<u64>> = vec![None; tracked];
    let mut msg_halted_knowing: Vec<u32> = vec![0; tracked];
    if multi {
        msg_mask = nodes
            .iter()
            .map(|nd| nd.informed_mask() & msg_all)
            .collect();
        for &mask in &msg_mask {
            let mut bits = mask;
            while bits != 0 {
                msg_informed_count[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        for j in 0..tracked {
            if msg_informed_count[j] >= informed_target {
                msg_informed_at[j] = Some(0);
            }
        }
    }

    let mut eve_remaining = eve.budget();
    let mut eve_spent: u64 = 0;

    let mut totals = SlotStats::default();

    // Scratch buffers reused across slots. A round's two actor classes are
    // `class1[..n1]` and `class2[..n2]` at the cursors the sampler returns;
    // a round has at most `n` actors, so the buffers never grow.
    let mut class1: Vec<u32> = vec![0; n as usize];
    let mut class2: Vec<u32> = vec![0; n as usize];
    // Actions a round-simulated protocol aims at a later sub-slot of the
    // current round, indexed by sub-slot (entry 0 stays empty: sub-slot 0
    // actions execute as they are selected).
    let mut round_buf: Vec<Vec<(u32, Action)>> = vec![Vec::new()];
    // Band observations for adaptive adversaries (previous slot / scratch);
    // maintained only when the adversary actually reads them.
    let observes = eve.observes() || swaps_observe;
    let mut prev_obs = BandObservation::default();
    let mut next_obs = BandObservation::default();
    let mut exec = SlotExec {
        board: ChannelBoard::new(),
        listeners: Vec::new(),
        bcasters: Vec::new(),
        stats: SlotStats::default(),
        listen_cost: vec![0; n as usize],
        bcast_cost: vec![0; n as usize],
        use_board: topo.is_none() || observes,
        keep_bcasters: topo.is_some(),
    };

    let fast_forward = cfg.fast_forward && cfg.sampling == Sampling::Sparse;

    let mut slot: u64 = 0;
    let mut prof = checked_profile(protocol.segment(0), n);
    // Sub-slot of `slot` within its round, `(slot - seg_start) % round_len`
    // without the division: it steps with each stepped slot, resets at
    // segment starts and stays 0 across spans, which are whole rounds
    // (except the span at the cap, which ends the run).
    let mut sub: u64 = 0;
    let mut seg_start: u64 = 0;
    let mut seg_end: u64 = prof.seg_len; // profiles have seg_len >= 1
    let sparse = cfg.sampling == Sampling::Sparse;
    // The segment's actor-sampling stream (sparse mode only).
    let mut stream =
        sparse.then(|| TwoClassRoundStream::new(&mut engine_rng, active.len(), prof.p1, prof.p2));
    // Heuristic fast-forward gate: per segment, engage the span machinery
    // only when idle rounds are likely enough (and the run long enough) for
    // the bookkeeping to pay for itself. Outcomes are byte-identical either
    // way (the ff=true/ff=false equivalence the fast_forward tests pin);
    // only telemetry's stepped/span split moves.
    let mut ff_active = fast_forward && ff_worth_it(&prof, active.len(), cfg.max_slots);
    if fast_forward && !ff_active {
        tel.ff_gated_segments += 1;
    }

    if let Some(t) = t_setup {
        tel.phases.setup = t.elapsed().as_nanos() as u64;
    }
    let t_loop = cfg.time_phases.then(Instant::now);
    let mut ff_nanos: u64 = 0;

    while slot < cfg.max_slots {
        let round_len = prof.round_len as u64;
        debug_assert_eq!(
            sub,
            (slot - seg_start) % round_len,
            "sub-slot counter drifted"
        );
        let mut fast_forwarded = false;

        // --- 0. Apply pending schedule events at round starts ----------------
        // An event scheduled at slot s takes effect at the first round start
        // >= s; fast-forward spans are clipped below so that round start is
        // always a span boundary.
        if sub == 0 && next_event_idx < sched.len() && sched[next_event_idx].0 <= slot {
            let mut active_changed = false;
            while next_event_idx < sched.len() && sched[next_event_idx].0 <= slot {
                let (scheduled_at, event) = &sched[next_event_idx];
                next_event_idx += 1;
                tel.schedule_events += 1;
                tel.crashed_node_slots += u64::from(crashed_count) * (slot - crash_from);
                crash_from = slot;
                match event {
                    WorldEvent::SwapEve => {
                        // An exhausted swap queue makes this a recorded no-op.
                        if let Some(next_eve) = swap_queue.next() {
                            eve = next_eve;
                            eve_remaining = eve.budget();
                        }
                    }
                    WorldEvent::Partition { groups } => {
                        partition = Some(realize_partition(groups, n));
                    }
                    WorldEvent::Heal => partition = None,
                    WorldEvent::CrashNodes { nodes: list } => {
                        for &nid in list {
                            let i = nid as usize;
                            if nid >= n || crashed[i] || halted_at[i].is_some() {
                                continue;
                            }
                            crashed[i] = true;
                            crashed_count += 1;
                            if topo.as_ref().is_none_or(|v| v.is_reachable(nid)) {
                                crashed_reachable += 1;
                            }
                            if informed_at[i].is_some() {
                                crashed_informed += 1;
                            }
                            active_changed = true;
                        }
                    }
                    WorldEvent::RecoverNodes { nodes: list } => {
                        for &nid in list {
                            let i = nid as usize;
                            if nid >= n || !crashed[i] {
                                continue;
                            }
                            crashed[i] = false;
                            crashed_count -= 1;
                            if topo.as_ref().is_none_or(|v| v.is_reachable(nid)) {
                                crashed_reachable -= 1;
                            }
                            if informed_at[i].is_some() {
                                crashed_informed -= 1;
                            }
                            active_changed = true;
                        }
                    }
                    WorldEvent::SetLinkLoss { p } => link_loss.set_p(*p),
                }
                timeline.push(ScheduleMarker {
                    scheduled_at: *scheduled_at,
                    applied_at: slot,
                    kind: event.kind(),
                });
            }
            if active_changed {
                active.clear();
                active.extend(
                    (0..n).filter(|&i| halted_at[i as usize].is_none() && !crashed[i as usize]),
                );
                if sparse {
                    // The actor pool changed size mid-segment: restart the
                    // sampling stream over the new pool. No stream at all
                    // while every node is down (dead air).
                    stream = (!active.is_empty()).then(|| {
                        TwoClassRoundStream::new(&mut engine_rng, active.len(), prof.p1, prof.p2)
                    });
                    // Dead air is always worth skipping: with no stream the
                    // fast-forward branch is the only way past crashed-out
                    // stretches, so the gate never blocks it.
                    ff_active = fast_forward
                        && (active.is_empty()
                            || ff_worth_it(&prof, active.len(), cfg.max_slots - slot));
                    if fast_forward && !ff_active {
                        tel.ff_gated_segments += 1;
                    }
                }
            }
        }

        // With everyone halted the run is over unless crashed nodes remain
        // that a pending RecoverNodes event could still re-admit. Events
        // past this point are never applied and leave no timeline marker.
        if active.is_empty() && (crashed_count == 0 || next_event_idx >= sched.len()) {
            break;
        }
        if cfg.stop_when_all_informed {
            // While crashes are in play and no events remain, completion is
            // survivor-relative: crashed nodes can neither learn nor be
            // waited on. Pending events keep the strict criterion, since a
            // later RecoverNodes may re-admit crashed nodes.
            let done = if crashed_count == 0 || next_event_idx < sched.len() {
                informed_count >= informed_target
            } else {
                informed_count.saturating_sub(crashed_informed)
                    >= informed_target.saturating_sub(crashed_reachable)
            };
            if done {
                break;
            }
        }

        // --- 1. Idle fast-forward at round start -----------------------------
        if sub == 0 && ff_active {
            let empty_rounds = match stream.as_mut() {
                Some(s) => s.empty_rounds_ahead(),
                // Dead air: every node is crashed, every round is empty.
                None => u64::MAX,
            };
            if empty_rounds > 0 {
                let t_span = cfg.time_phases.then(Instant::now);
                // The run of empty rounds ahead, clipped to the segment
                // (profiles change at boundaries) and to the slot cap.
                let rounds_left = (seg_end - slot) / round_len;
                let mut whole_rounds = empty_rounds.min(rounds_left);
                if next_event_idx < sched.len() {
                    // Never skip past a pending event: clip the span so
                    // the event's round start stays a span boundary.
                    let gap = sched[next_event_idx].0.saturating_sub(slot).max(1);
                    whole_rounds = whole_rounds.min(gap.div_ceil(round_len));
                }
                let mut span = whole_rounds * round_len;
                let avail = cfg.max_slots - slot;
                if span > avail {
                    span = avail; // ends the run; a partial round is fine
                    whole_rounds = span / round_len;
                }
                let spent = if eve_remaining > 0 {
                    let charge = eve.jam_span(slot, span, prof.channels, eve_remaining, &prev_obs);
                    debug_assert!(charge.spent <= eve_remaining, "jam_span overspent");
                    // Clamp in release too: a buggy closed-form override
                    // must bankrupt Eve, not underflow her into riches.
                    let spent = charge.spent.min(eve_remaining);
                    eve_remaining -= spent;
                    eve_spent += spent;
                    totals.jammed += spent;
                    spent
                } else {
                    0
                };
                // The span's slots are silent, so after it the previous
                // slot's observation is the empty band — exactly what the
                // per-slot path would have recorded for every span slot.
                if observes {
                    prev_obs.clear();
                    prev_obs.channels = prof.channels;
                }
                if let Some(s) = stream.as_mut() {
                    s.skip_rounds(whole_rounds);
                }
                tel.record_span(span, spent);
                observer.on_idle_span(slot, span, spent);
                slot += span;
                fast_forwarded = true;
                if let Some(t) = t_span {
                    ff_nanos += t.elapsed().as_nanos() as u64;
                }
            }
        }
        // ==== TELEMETRY HOT SECTION: BEGIN =================================
        // Per-slot execution path. No wall-clock reads allowed in this
        // range (CI greps it for clock calls); timing stays at phase
        // granularity so throughput is never spent on the clock.
        if !fast_forwarded {
            // --- 2. Actors: sample at round start, execute on select --------
            exec.begin();
            if sub == 0 {
                if round_len > 1 {
                    for buf in &mut round_buf {
                        buf.clear();
                    }
                    if round_buf.len() < round_len as usize {
                        round_buf.resize_with(round_len as usize, Vec::new);
                    }
                }
                let (n1, n2) = match cfg.sampling {
                    // The stream is absent only while every node is
                    // crashed; dead-air slots sample no actors.
                    Sampling::Sparse => match stream.as_mut() {
                        Some(s) => s.next_round_into(&mut engine_rng, &mut class1, &mut class2),
                        None => (0, 0),
                    },
                    Sampling::DensePerNode => {
                        let (mut n1, mut n2) = (0, 0);
                        for (idx, &nid) in active.iter().enumerate() {
                            let u = node_rngs[nid as usize].next_f64();
                            if u < prof.p1 {
                                class1[n1] = idx as u32;
                                n1 += 1;
                            } else if u < prof.p1 + prof.p2 {
                                class2[n2] = idx as u32;
                                n2 += 1;
                            }
                        }
                        (n1, n2)
                    }
                };
                for (list, coin) in [(&class1[..n1], Coin::One), (&class2[..n2], Coin::Two)] {
                    for &idx in list.iter() {
                        let nid = active[idx as usize];
                        let action = nodes[nid as usize].on_selected(
                            &prof,
                            coin,
                            &mut node_rngs[nid as usize],
                        );
                        let (Action::Listen { ch } | Action::Broadcast { ch, .. }) = action else {
                            continue;
                        };
                        debug_assert!(
                            ch < prof.virt_channels,
                            "node picked channel {ch} of {}",
                            prof.virt_channels
                        );
                        if round_len == 1 {
                            exec.execute(nid, action);
                            continue;
                        }
                        // Round-simulated protocol: virtual channel `ch` is
                        // physical channel `ch % channels` of sub-slot
                        // `ch / channels`; only later sub-slots wait.
                        let target = (ch / prof.channels) as usize;
                        let phys = ch % prof.channels;
                        let mapped = match action {
                            Action::Broadcast { payload, .. } => {
                                Action::Broadcast { ch: phys, payload }
                            }
                            _ => Action::Listen { ch: phys },
                        };
                        if target == 0 {
                            exec.execute(nid, mapped);
                        } else {
                            round_buf[target].push((nid, mapped));
                        }
                    }
                }
            } else {
                for &(nid, action) in &round_buf[sub as usize] {
                    exec.execute(nid, action);
                }
            }

            // --- 3. Jamming --------------------------------------------------
            // `take` is both her spend and the size of the (possibly
            // truncated) jam set, so it is never recounted.
            let (jam, take) = if eve_remaining == 0 {
                (JamSet::Empty, 0)
            } else {
                let request = eve.jam(slot, prof.channels, &prev_obs);
                let want = request.count(prof.channels);
                let take = want.min(eve_remaining);
                eve_remaining -= take;
                eve_spent += take;
                tel.jam_spent_stepped += take;
                let jam = if take < want {
                    request.truncate(take, prof.channels)
                } else {
                    request
                };
                (jam.normalize(prof.channels), take)
            };
            exec.stats.jammed = take;

            // --- 4. Resolution: feedback to this slot's listeners -----------
            // Dynamic topologies churn per round; key edges by the round's
            // starting slot.
            let round_key = slot - sub;
            for &(nid, ch) in &exec.listeners {
                let jammed = jam.contains(ch, prof.channels);
                let fb = match &topo {
                    // Topology-aware delivery: only adjacent broadcasters
                    // count. For `Topology::Complete` every broadcaster is
                    // adjacent, which reproduces the board semantics below
                    // exactly (same silence/message/noise per listener).
                    Some(view) => {
                        if jammed {
                            Feedback::Noise
                        } else {
                            let mut heard = 0u32;
                            let mut payload = Payload::Data;
                            for &(bid, bch, pl) in &exec.bcasters {
                                if bch != ch || !view.connected(bid, nid, round_key) {
                                    continue;
                                }
                                // Nemesis overlays gate delivery on top of
                                // the base topology: cross-group edges are
                                // cut while a partition is live, and lossy
                                // links drop per (round, edge).
                                if let Some(p) = &partition {
                                    if p[bid as usize] != p[nid as usize] {
                                        continue;
                                    }
                                }
                                if link_loss.active()
                                    && link_loss.is_lost(round_key, edge_id(n, bid, nid))
                                {
                                    continue;
                                }
                                heard += 1;
                                payload = pl;
                                if heard == 2 {
                                    break;
                                }
                            }
                            match heard {
                                0 => Feedback::Silence,
                                1 => Feedback::Message(payload),
                                _ => Feedback::Noise,
                            }
                        }
                    }
                    None => exec.board.outcome(ch, jammed),
                };
                match fb {
                    Feedback::Silence => exec.stats.heard_silence += 1,
                    Feedback::Message(_) => exec.stats.heard_message += 1,
                    Feedback::Noise => exec.stats.heard_noise += 1,
                }
                let node = &mut nodes[nid as usize];
                let was_informed = node.is_informed();
                node.on_feedback(&prof, fb);
                if !was_informed && node.is_informed() {
                    informed_at[nid as usize] = Some(slot);
                    informed_count += 1;
                    observer.on_informed(nid, slot);
                }
                if multi {
                    credit_mask_gains(
                        nodes[nid as usize].informed_mask() & msg_all,
                        nid,
                        slot,
                        informed_target,
                        &mut msg_mask,
                        &mut msg_informed_count,
                        &mut msg_informed_at,
                    );
                }
            }
            totals.broadcasts += exec.stats.broadcasts;
            totals.listens += exec.stats.listens;
            totals.heard_silence += exec.stats.heard_silence;
            totals.heard_message += exec.stats.heard_message;
            totals.heard_noise += exec.stats.heard_noise;
            totals.jammed += exec.stats.jammed;
            observer.on_slot(slot, &exec.stats);

            // Record the band activity for the adaptive adversary's next
            // call — skipped entirely for strategies that never read it.
            if observes {
                next_obs.clear();
                next_obs.channels = prof.channels;
                exec.board.busy_channels(&mut next_obs.busy);
                std::mem::swap(&mut prev_obs, &mut next_obs);
            }

            tel.slots_stepped += 1;
            slot += 1;
            sub += 1;
            if sub == round_len {
                sub = 0;
            }
        }

        // --- 5. Segment boundary ---------------------------------------------
        if slot == seg_end {
            let mut any_halt = false;
            for &nid in &active {
                let node = &mut nodes[nid as usize];
                let was_informed = node.is_informed();
                let decision = node.on_boundary(&prof);
                let now_informed = node.is_informed();
                if !was_informed && now_informed {
                    // Deferred status change (MultiCastAdv step-two check).
                    informed_at[nid as usize] = Some(slot - 1);
                    informed_count += 1;
                    observer.on_informed(nid, slot - 1);
                }
                if multi {
                    credit_mask_gains(
                        nodes[nid as usize].informed_mask() & msg_all,
                        nid,
                        slot - 1,
                        informed_target,
                        &mut msg_mask,
                        &mut msg_informed_count,
                        &mut msg_informed_at,
                    );
                }
                if decision == BoundaryDecision::Halt {
                    halted_at[nid as usize] = Some(slot - 1);
                    halted_informed[nid as usize] = now_informed;
                    any_halt = true;
                    observer.on_halted(nid, slot - 1);
                    if multi {
                        let mut bits = msg_mask[nid as usize];
                        while bits != 0 {
                            msg_halted_knowing[bits.trailing_zeros() as usize] += 1;
                            bits &= bits - 1;
                        }
                    }
                }
            }
            if any_halt {
                active.retain(|&nid| halted_at[nid as usize].is_none());
            }
            observer.on_boundary(slot, &prof, active.len() as u32, informed_count);
            // Pending schedule events keep the segment clock running even
            // when every node is down — a RecoverNodes may still re-admit.
            if (!active.is_empty() || next_event_idx < sched.len()) && slot < cfg.max_slots {
                prof = checked_profile(protocol.segment(slot), n);
                seg_start = slot;
                sub = 0;
                seg_end = slot.saturating_add(prof.seg_len);
                if sparse {
                    // Fresh stream per segment: probabilities and the active
                    // set are constant within a segment, not across them.
                    // No stream while every node is down (dead air).
                    stream = (!active.is_empty()).then(|| {
                        TwoClassRoundStream::new(&mut engine_rng, active.len(), prof.p1, prof.p2)
                    });
                    ff_active = fast_forward
                        && (active.is_empty()
                            || ff_worth_it(&prof, active.len(), cfg.max_slots - slot));
                    if fast_forward && !ff_active {
                        tel.ff_gated_segments += 1;
                    }
                }
            }
        }
        // ==== TELEMETRY HOT SECTION: END ===================================
    }

    // Flush the crashed-node-slot integral up to the final slot.
    tel.crashed_node_slots += u64::from(crashed_count) * (slot - crash_from);

    if let Some(t) = t_loop {
        let loop_nanos = t.elapsed().as_nanos() as u64;
        tel.phases.fast_forward = ff_nanos;
        tel.phases.slot_loop = loop_nanos.saturating_sub(ff_nanos);
    }
    let t_finalize = cfg.time_phases.then(Instant::now);
    tel.rng_engine_draws = engine_rng.draws();
    tel.rng_node_draws = node_rngs.iter().map(Xoshiro256::draws).sum();
    tel.observer_events = observer.events;

    let nodes_out: Vec<NodeOutcome> = (0..n as usize)
        .map(|i| NodeOutcome {
            id: i as u32,
            informed_at: informed_at[i],
            halted_at: halted_at[i],
            listen_cost: exec.listen_cost[i],
            broadcast_cost: exec.bcast_cost[i],
            halted_informed: halted_informed[i],
            extra: node_extra(&nodes[i]),
        })
        .collect();

    let all_informed = informed_count >= informed_target;
    let all_informed_at = if all_informed {
        informed_at.iter().map(|x| x.unwrap_or(0)).max()
    } else {
        None
    };
    let messages: Vec<MessageOutcome> = if multi {
        (0..tracked)
            .map(|j| MessageOutcome {
                msg: j as u32,
                informed_count: msg_informed_count[j],
                all_informed_at: msg_informed_at[j],
                halted_knowing: msg_halted_knowing[j],
            })
            .collect()
    } else {
        // Single-message runs mirror the run-level counters.
        vec![MessageOutcome {
            msg: 0,
            informed_count,
            all_informed_at,
            halted_knowing: halted_informed.iter().filter(|&&b| b).count() as u32,
        }]
    };
    let survivors = informed_target.saturating_sub(crashed_reachable);
    let survivors_informed = informed_count.saturating_sub(crashed_informed);
    let outcome = RunOutcome {
        slots: slot,
        // A run with standing crashes has not "all halted" in the classical
        // sense; the survivor-relative verdict lives in the fields below.
        all_halted: active.is_empty() && crashed_count == 0,
        all_informed,
        all_informed_at,
        reachable: informed_target,
        eve_spent,
        totals,
        messages,
        nodes: nodes_out,
        timeline,
        crashed: crashed_count,
        survivors,
        survivors_informed,
        survivors_all_informed: survivors_informed >= survivors,
        survivors_all_halted: active.is_empty(),
    };
    if let Some(t) = t_finalize {
        tel.phases.finalize = t.elapsed().as_nanos() as u64;
    }
    (outcome, tel)
}

fn node_extra<N: ProtocolNode>(node: &N) -> NodeExtra {
    node.extra()
}

/// Fold a node's newly-learned message bits into the per-message counters
/// (multi-message runs only).
#[allow(clippy::too_many_arguments)]
fn credit_mask_gains(
    new_mask: u64,
    nid: u32,
    slot: u64,
    informed_target: u32,
    msg_mask: &mut [u64],
    msg_informed_count: &mut [u32],
    msg_informed_at: &mut [Option<u64>],
) {
    let mut gained = new_mask & !msg_mask[nid as usize];
    if gained == 0 {
        return;
    }
    msg_mask[nid as usize] |= gained;
    while gained != 0 {
        let j = gained.trailing_zeros() as usize;
        msg_informed_count[j] += 1;
        if msg_informed_count[j] >= informed_target && msg_informed_at[j].is_none() {
            msg_informed_at[j] = Some(slot);
        }
        gained &= gained - 1;
    }
}

/// Minimum run length (in slots) for the fast-forward machinery to be worth
/// engaging at all: shorter runs cannot amortize the span bookkeeping.
const FF_MIN_RUN_SLOTS: u64 = 256;

/// Minimum probability of an idle round for fast-forward to pay. At
/// `q = (1 - p1 - p2)^actors` below this, fewer than ~1 round in 64 is
/// empty, so `empty_rounds_ahead` almost never finds a span and the branch
/// is pure overhead. Kept far below the sparse-regime values the paper's
/// protocols run at (e.g. `q ≈ 0.72` at `p1 = p2 = 0.02, n = 8`), so real
/// sweep cells always keep their spans.
const FF_MIN_EMPTY_PROB: f64 = 1.0 / 64.0;

/// Minimum *expected slots skipped per round start*, `q/(1-q) * round_len`,
/// for the span machinery to beat the plain loop. Each realized span costs
/// one budget span-charge plus span telemetry — roughly two stepped empty
/// slots' worth of work — so segments whose mean idle run is a fraction of
/// a slot (e.g. `q ≈ 0.17`: 37k spans of mean 1.2 slots on the
/// gilbert-elliott `n = 64` cell) lose a few percent to bookkeeping. The
/// threshold keeps the measured winners (`q ≈ 0.37`, mean span 1.6, +4–15%)
/// and gates the measured losers.
const FF_MIN_EXPECTED_SKIP_SLOTS: f64 = 0.3;

/// Heuristic fast-forward gate (see the constants above). `true` means the
/// segment's round-start path should look for idle spans to skip; `false`
/// falls back to the plain slot loop. Pure function of the segment profile,
/// the actor-pool size, and the slots left before the cap — no RNG, so
/// gating a segment never perturbs the run's byte stream.
pub(crate) fn ff_worth_it(prof: &SlotProfile, actors: usize, slots_left: u64) -> bool {
    if slots_left < FF_MIN_RUN_SLOTS {
        return false;
    }
    let total = prof.p1 + prof.p2;
    if total >= 1.0 {
        return false; // every round has an actor; no idle span can exist
    }
    if total <= 0.0 {
        return true; // every round is empty; fast-forward is the whole run
    }
    let q = (1.0 - total).powi(actors.max(1) as i32);
    q >= FF_MIN_EMPTY_PROB && q / (1.0 - q) * prof.round_len as f64 >= FF_MIN_EXPECTED_SKIP_SLOTS
}

/// Validate the protocol's segment contract once per segment.
pub(crate) fn checked_profile(prof: SlotProfile, _n: u32) -> SlotProfile {
    assert!(prof.seg_len >= 1, "segment must contain at least one slot");
    assert!(prof.round_len >= 1, "round_len must be at least 1");
    assert!(
        prof.seg_len.is_multiple_of(prof.round_len as u64),
        "segment length {} must be a multiple of round length {}",
        prof.seg_len,
        prof.round_len
    );
    assert!(prof.channels >= 1, "at least one channel required");
    assert!(
        prof.p1 >= 0.0 && prof.p2 >= 0.0 && prof.p1 + prof.p2 <= 1.0 + 1e-12,
        "invalid action probabilities p1={} p2={}",
        prof.p1,
        prof.p2
    );
    if prof.round_len == 1 {
        assert_eq!(
            prof.virt_channels, prof.channels,
            "without round simulation, virtual channels must equal physical"
        );
    } else {
        assert_eq!(
            prof.virt_channels,
            prof.channels * prof.round_len as u64,
            "round simulation requires virt_channels == channels * round_len"
        );
    }
    prof
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Payload;
    use crate::protocol::NoAdversary;
    use crate::trace::{RecordingObserver, TraceEvent};

    /// A minimal test protocol: a single segment schedule where the source
    /// broadcasts with p2 and everyone else listens with p1 on `channels`
    /// channels; nodes halt at a boundary once informed.
    struct Toy {
        n: u32,
        channels: u64,
        seg_len: u64,
    }

    struct ToyNode {
        informed: bool,
        is_source: bool,
        heard_noise: u64,
    }

    impl Protocol for Toy {
        type Node = ToyNode;

        fn num_nodes(&self) -> u32 {
            self.n
        }

        fn segment(&mut self, _start: u64) -> SlotProfile {
            SlotProfile {
                p1: 0.5,
                p2: 0.5,
                channels: self.channels,
                virt_channels: self.channels,
                round_len: 1,
                seg_len: self.seg_len,
                seg_major: 0,
                seg_minor: 0,
                step: 0,
            }
        }

        fn make_node(&self, _id: u32, is_source: bool) -> ToyNode {
            ToyNode {
                informed: is_source,
                is_source,
                heard_noise: 0,
            }
        }
    }

    impl ProtocolNode for ToyNode {
        fn on_selected(&mut self, prof: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
            let ch = rng.gen_range(prof.virt_channels);
            match coin {
                Coin::One if !self.is_source => Action::Listen { ch },
                Coin::Two if self.informed => Action::Broadcast {
                    ch,
                    payload: Payload::Data,
                },
                _ => Action::Idle,
            }
        }

        fn on_feedback(&mut self, _prof: &SlotProfile, fb: Feedback) {
            match fb {
                Feedback::Message(Payload::Data) => self.informed = true,
                Feedback::Noise => self.heard_noise += 1,
                _ => {}
            }
        }

        fn on_boundary(&mut self, _prof: &SlotProfile) -> BoundaryDecision {
            if self.informed {
                BoundaryDecision::Halt
            } else {
                BoundaryDecision::Continue
            }
        }

        fn is_informed(&self) -> bool {
            self.informed
        }
    }

    fn toy(n: u32) -> Toy {
        Toy {
            n,
            channels: (n as u64 / 2).max(1),
            seg_len: 64,
        }
    }

    #[test]
    fn toy_broadcast_completes_without_adversary() {
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(100_000))
            .run(1);
        assert!(out.all_informed, "everyone should learn m: {out:?}");
        assert!(out.all_halted);
        assert_eq!(out.safety_violations(), 0);
        assert_eq!(out.eve_spent, 0);
        // Single-message protocols carry exactly one mirrored entry.
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].informed_count, 16);
        assert_eq!(out.messages[0].all_informed_at, out.all_informed_at);
        assert_eq!(out.messages[0].halted_knowing, 16);
    }

    /// The explicit adversary seats and the default are interchangeable
    /// when Eve never spends: NoAdversary (oblivious), its adaptive
    /// adapter, and Eve::Silent must be byte-identical.
    #[test]
    fn eve_seats_are_byte_identical_for_a_silent_adversary() {
        use crate::adaptive::ObliviousAsAdaptive;
        let base = {
            let mut proto = toy(16);
            Simulation::new(&mut proto)
                .config(EngineConfig::capped(100_000))
                .run(1)
        };
        let oblivious = {
            let mut proto = toy(16);
            Simulation::new(&mut proto)
                .adversary(&mut NoAdversary)
                .config(EngineConfig::capped(100_000))
                .run(1)
        };
        let adaptive = {
            let mut proto = toy(16);
            let mut inner = NoAdversary;
            Simulation::new(&mut proto)
                .adaptive(&mut ObliviousAsAdaptive(&mut inner))
                .config(EngineConfig::capped(100_000))
                .run(1)
        };
        assert_eq!(base, oblivious);
        assert_eq!(base, adaptive);
    }

    #[test]
    fn energy_ledger_matches_totals() {
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(100_000))
            .run(2);
        let listens: u64 = out.nodes.iter().map(|n| n.listen_cost).sum();
        let bcasts: u64 = out.nodes.iter().map(|n| n.broadcast_cost).sum();
        assert_eq!(listens, out.totals.listens);
        assert_eq!(bcasts, out.totals.broadcasts);
        let heard = out.totals.heard_silence + out.totals.heard_message + out.totals.heard_noise;
        assert_eq!(
            heard, out.totals.listens,
            "every listen yields exactly one feedback"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let collect = |seed: u64| {
            let mut proto = toy(32);
            let out = Simulation::new(&mut proto)
                .config(EngineConfig::capped(100_000))
                .run(seed);
            (out.slots, out.max_cost(), out.eve_spent, out.totals)
        };
        assert_eq!(collect(7), collect(7));
        // Different seeds should (almost surely) differ somewhere.
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn source_is_informed_from_slot_zero() {
        let mut proto = toy(8);
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(100_000))
            .run(3);
        assert_eq!(out.nodes[0].informed_at, Some(0));
    }

    /// A full-band jammer with a huge budget must stop the toy protocol
    /// entirely: everyone hears only noise.
    struct JamAll {
        t: u64,
    }
    impl Adversary for JamAll {
        fn jam(&mut self, _slot: u64, _channels: u64) -> JamSet {
            JamSet::All
        }
        fn budget(&self) -> u64 {
            self.t
        }
    }

    #[test]
    fn full_jam_blocks_progress_and_is_charged() {
        let mut proto = toy(16);
        let cap = 1000;
        let out = Simulation::new(&mut proto)
            .adversary(&mut JamAll { t: u64::MAX })
            .config(EngineConfig::capped(cap))
            .run(4);
        assert!(
            !out.all_informed,
            "jamming every channel must block broadcast"
        );
        assert_eq!(out.slots, cap);
        assert_eq!(out.eve_spent, cap * 8, "8 channels jammed per slot");
        assert_eq!(out.totals.heard_message, 0);
        assert_eq!(out.totals.heard_silence, 0);
    }

    #[test]
    fn eve_budget_is_enforced() {
        let mut proto = toy(16);
        let budget = 50;
        let out = Simulation::new(&mut proto)
            .adversary(&mut JamAll { t: budget })
            .config(EngineConfig::capped(100_000))
            .run(5);
        assert!(out.eve_spent <= budget);
        // Once she is bankrupt the toy protocol finishes.
        assert!(out.all_informed);
    }

    #[test]
    fn stop_when_all_informed_halts_early() {
        let mut proto = Toy {
            n: 8,
            channels: 4,
            seg_len: u32::MAX as u64,
        };
        let cfg = EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(1_000_000)
        };
        let out = Simulation::new(&mut proto).config(cfg).run(6);
        assert!(out.all_informed);
        assert!(out.slots < 1_000_000, "should stop well before the cap");
        assert!(!out.all_halted, "nodes were still active when we stopped");
    }

    #[test]
    fn observer_sees_informed_and_halt_events() {
        let mut proto = toy(8);
        let mut obs = RecordingObserver::new();
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(100_000))
            .observer(&mut obs)
            .run(9);
        assert_eq!(
            obs.informed_slots().len(),
            7,
            "7 non-source nodes get informed"
        );
        assert_eq!(obs.halted_slots().len(), 8);
        assert!(out.all_halted);
        // Growth curve is monotone in both coordinates.
        for w in obs.growth.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn dense_and_sparse_sampling_agree_statistically() {
        let mean_slots = |sampling: Sampling| {
            let trials = 40;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut proto = toy(32);
                let cfg = EngineConfig {
                    sampling,
                    ..EngineConfig::capped(100_000)
                };
                let out = Simulation::new(&mut proto).config(cfg).run(1000 + seed);
                assert!(out.all_halted);
                total += out.slots;
            }
            total as f64 / trials as f64
        };
        let sparse = mean_slots(Sampling::Sparse);
        let dense = mean_slots(Sampling::DensePerNode);
        let rel = (sparse - dense).abs() / dense;
        assert!(
            rel < 0.25,
            "sparse {sparse} vs dense {dense} diverge by {rel:.2}"
        );
    }

    /// A sparse toy: acts with tiny probability so most rounds are empty and
    /// the fast path engages.
    struct SparseToy {
        n: u32,
        seg_len: u64,
    }
    impl Protocol for SparseToy {
        type Node = ToyNode;
        fn num_nodes(&self) -> u32 {
            self.n
        }
        fn segment(&mut self, _start: u64) -> SlotProfile {
            SlotProfile {
                p1: 0.01,
                p2: 0.01,
                channels: 4,
                virt_channels: 4,
                round_len: 1,
                seg_len: self.seg_len,
                seg_major: 0,
                seg_minor: 0,
                step: 0,
            }
        }
        fn make_node(&self, _id: u32, is_source: bool) -> ToyNode {
            ToyNode {
                informed: is_source,
                is_source,
                heard_noise: 0,
            }
        }
    }

    /// Fast-forward on vs off must agree byte-for-byte for any adversary
    /// whose `jam_span` is exact — here the default per-slot loop of a
    /// stateful custom jammer, the strongest case.
    #[test]
    fn fast_forward_matches_slot_by_slot_reference() {
        struct EveryThird {
            calls: u64,
        }
        impl Adversary for EveryThird {
            fn jam(&mut self, slot: u64, _channels: u64) -> JamSet {
                self.calls += 1;
                if slot.is_multiple_of(3) {
                    JamSet::Prefix(2)
                } else {
                    JamSet::Empty
                }
            }
            fn budget(&self) -> u64 {
                5_000
            }
        }
        for seed in [1u64, 2, 3, 4] {
            let run_mode = |fast_forward: bool| {
                let mut proto = SparseToy {
                    n: 16,
                    seg_len: 256,
                };
                let cfg = EngineConfig {
                    fast_forward,
                    ..EngineConfig::capped(50_000)
                };
                Simulation::new(&mut proto)
                    .adversary(&mut EveryThird { calls: 0 })
                    .config(cfg)
                    .run(seed)
            };
            let fast = run_mode(true);
            let slow = run_mode(false);
            // Byte-identical outcomes — whether or not the toy completed
            // within the cap — including Eve's exact spend.
            assert_eq!(fast, slow, "seed {seed}");
            assert!(fast.eve_spent > 0, "the jammer must have been charged");
        }
    }

    #[test]
    fn fast_forward_emits_idle_span_events() {
        struct SpanCounter {
            spans: u64,
            span_slots: u64,
            slots: u64,
        }
        impl Observer for SpanCounter {
            fn on_slot(&mut self, _slot: u64, _stats: &SlotStats) {
                self.slots += 1;
            }
            fn on_idle_span(&mut self, _slot: u64, len: u64, _jammed: u64) {
                self.spans += 1;
                self.span_slots += len;
            }
        }
        let mut proto = SparseToy {
            n: 16,
            seg_len: 256,
        };
        let mut obs = SpanCounter {
            spans: 0,
            span_slots: 0,
            slots: 0,
        };
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(50_000))
            .observer(&mut obs)
            .run(5);
        assert!(obs.spans > 0, "sparse toy must fast-forward");
        assert_eq!(
            obs.slots + obs.span_slots,
            out.slots,
            "executed + skipped slots must cover the run"
        );
        assert!(
            obs.span_slots > out.slots / 2,
            "most slots should be skipped: {} of {}",
            obs.span_slots,
            out.slots
        );
    }

    #[test]
    #[should_panic(expected = "at least a source and one receiver")]
    fn rejects_single_node_network() {
        let mut proto = toy(1);
        Simulation::new(&mut proto).run(0);
    }

    /// A relay toy for multi-hop runs: like [`Toy`] but nodes never halt
    /// (informed nodes keep re-broadcasting), so the message can propagate
    /// hop by hop; run with `stop_when_all_informed`.
    struct RelayToy {
        n: u32,
        channels: u64,
    }
    impl Protocol for RelayToy {
        type Node = RelayNode;
        fn num_nodes(&self) -> u32 {
            self.n
        }
        fn segment(&mut self, _s: u64) -> SlotProfile {
            SlotProfile {
                p1: 0.5,
                p2: 0.5,
                channels: self.channels,
                virt_channels: self.channels,
                round_len: 1,
                seg_len: 1 << 40,
                seg_major: 0,
                seg_minor: 0,
                step: 0,
            }
        }
        fn make_node(&self, _id: u32, is_source: bool) -> RelayNode {
            RelayNode {
                informed: is_source,
            }
        }
    }
    struct RelayNode {
        informed: bool,
    }
    impl ProtocolNode for RelayNode {
        fn on_selected(&mut self, prof: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
            let ch = rng.gen_range(prof.virt_channels);
            match coin {
                Coin::One if !self.informed => Action::Listen { ch },
                Coin::Two if self.informed => Action::Broadcast {
                    ch,
                    payload: Payload::Data,
                },
                _ => Action::Idle,
            }
        }
        fn on_feedback(&mut self, _p: &SlotProfile, fb: Feedback) {
            if fb == Feedback::Message(Payload::Data) {
                self.informed = true;
            }
        }
        fn on_boundary(&mut self, _p: &SlotProfile) -> BoundaryDecision {
            BoundaryDecision::Continue
        }
        fn is_informed(&self) -> bool {
            self.informed
        }
    }

    fn informed_cfg() -> EngineConfig {
        EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(2_000_000)
        }
    }

    #[test]
    fn complete_topology_is_byte_identical_to_single_hop() {
        use crate::topology::Topology;
        for seed in [1u64, 2, 3] {
            let single = {
                let mut proto = toy(16);
                Simulation::new(&mut proto)
                    .config(EngineConfig::capped(100_000))
                    .run(seed)
            };
            let topo = {
                let mut proto = toy(16);
                Simulation::new(&mut proto)
                    .topology(&Topology::Complete)
                    .config(EngineConfig::capped(100_000))
                    .run(seed)
            };
            assert_eq!(single, topo, "seed {seed}");
        }
    }

    #[test]
    fn line_topology_propagates_hop_by_hop() {
        use crate::topology::Topology;
        let mut proto = RelayToy { n: 8, channels: 2 };
        let mut obs = RecordingObserver::new();
        let out = Simulation::new(&mut proto)
            .topology(&Topology::Line)
            .config(informed_cfg())
            .observer(&mut obs)
            .run(7);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.reachable, 8);
        // On a line, node k can only be informed after node k-1 (its only
        // path to the source passes through it).
        let mut informed_slot = [u64::MAX; 8];
        informed_slot[0] = 0;
        for e in &obs.events {
            if let TraceEvent::Informed { node, slot } = e {
                informed_slot[*node as usize] = *slot;
            }
        }
        for k in 2..8 {
            assert!(
                informed_slot[k] >= informed_slot[k - 1],
                "node {k} informed before its upstream neighbor"
            );
        }
        // Strictly multi-hop: the farthest node cannot learn m in slot 0.
        assert!(informed_slot[7] > informed_slot[1]);
    }

    #[test]
    fn disconnected_topology_completes_on_the_reachable_component() {
        use crate::topology::{Topology, TopologyView};
        // A near-zero radius isolates most nodes from the source.
        let topo = Topology::RandomGeometric {
            radius: 0.05,
            seed: 13,
        };
        let view = TopologyView::build(&topo, 16);
        assert!(view.reachable_count() < 16, "radius chosen to disconnect");
        let mut proto = RelayToy { n: 16, channels: 4 };
        let out = Simulation::new(&mut proto)
            .topology(&topo)
            .config(informed_cfg())
            .run(5);
        assert!(
            out.all_informed,
            "reachable component must complete: {out:?}"
        );
        assert_eq!(out.reachable, view.reachable_count());
        assert_eq!(out.informed_count() as u32, view.reachable_count());
        for node in &out.nodes {
            assert_eq!(
                node.informed_at.is_some(),
                view.is_reachable(node.id),
                "informed set must be exactly the reachable component"
            );
        }
    }

    #[test]
    fn dynamic_churn_still_delivers() {
        use crate::topology::Topology;
        let topo = Topology::Dynamic {
            base: Box::new(Topology::Line),
            p_down: 0.5,
            seed: 21,
        };
        let mut proto = RelayToy { n: 8, channels: 2 };
        let out = Simulation::new(&mut proto)
            .topology(&topo)
            .config(informed_cfg())
            .run(9);
        assert!(
            out.all_informed,
            "churned line must still complete: {out:?}"
        );
        assert_eq!(out.reachable, 8, "reachability is judged on the base graph");
    }

    /// Round simulation: virtual channels map to (sub-slot, physical channel).
    struct RoundToy;
    struct RoundNode {
        informed: bool,
        got: Vec<Feedback>,
    }

    impl Protocol for RoundToy {
        type Node = RoundNode;
        fn num_nodes(&self) -> u32 {
            2
        }
        fn segment(&mut self, _s: u64) -> SlotProfile {
            SlotProfile {
                p1: 1.0,
                p2: 0.0,
                channels: 2,
                virt_channels: 8,
                round_len: 4,
                seg_len: 400,
                seg_major: 0,
                seg_minor: 0,
                step: 0,
            }
        }
        fn make_node(&self, _id: u32, is_source: bool) -> RoundNode {
            RoundNode {
                informed: is_source,
                got: Vec::new(),
            }
        }
    }

    impl ProtocolNode for RoundNode {
        fn on_selected(&mut self, prof: &SlotProfile, _c: Coin, rng: &mut Xoshiro256) -> Action {
            let ch = rng.gen_range(prof.virt_channels);
            if self.informed {
                Action::Broadcast {
                    ch,
                    payload: Payload::Data,
                }
            } else {
                Action::Listen { ch }
            }
        }
        fn on_feedback(&mut self, _p: &SlotProfile, fb: Feedback) {
            self.got.push(fb);
            if fb == Feedback::Message(Payload::Data) {
                self.informed = true;
            }
        }
        fn on_boundary(&mut self, _p: &SlotProfile) -> BoundaryDecision {
            if self.informed {
                BoundaryDecision::Halt
            } else {
                BoundaryDecision::Continue
            }
        }
        fn is_informed(&self) -> bool {
            self.informed
        }
    }

    /// A k = 3 multi-message toy: the source holds all three payloads and
    /// broadcasts a uniformly random one; everyone else listens until it
    /// holds all three. Exercises the engine's per-message tracking.
    struct MsgToy {
        n: u32,
    }
    struct MsgNode {
        mask: u64,
        is_source: bool,
    }
    impl Protocol for MsgToy {
        type Node = MsgNode;
        fn num_nodes(&self) -> u32 {
            self.n
        }
        fn segment(&mut self, _s: u64) -> SlotProfile {
            SlotProfile {
                p1: 0.5,
                p2: 0.5,
                channels: 2,
                virt_channels: 2,
                round_len: 1,
                seg_len: 1 << 40,
                seg_major: 0,
                seg_minor: 0,
                step: 0,
            }
        }
        fn make_node(&self, _id: u32, is_source: bool) -> MsgNode {
            MsgNode {
                mask: if is_source { 0b111 } else { 0 },
                is_source,
            }
        }
        fn num_messages(&self) -> u32 {
            3
        }
    }
    impl ProtocolNode for MsgNode {
        fn on_selected(&mut self, prof: &SlotProfile, coin: Coin, rng: &mut Xoshiro256) -> Action {
            let ch = rng.gen_range(prof.virt_channels);
            match coin {
                Coin::One if self.mask != 0b111 => Action::Listen { ch },
                Coin::Two if self.is_source => Action::Broadcast {
                    ch,
                    payload: Payload::Msg(rng.gen_range(3) as u16),
                },
                _ => Action::Idle,
            }
        }
        fn on_feedback(&mut self, _p: &SlotProfile, fb: Feedback) {
            if let Feedback::Message(Payload::Msg(j)) = fb {
                self.mask |= 1 << j;
            }
        }
        fn on_boundary(&mut self, _p: &SlotProfile) -> BoundaryDecision {
            BoundaryDecision::Continue
        }
        fn is_informed(&self) -> bool {
            self.mask == 0b111
        }
        fn informed_mask(&self) -> u64 {
            self.mask
        }
    }

    #[test]
    fn multi_message_tracking_records_per_message_completion() {
        let mut proto = MsgToy { n: 8 };
        let cfg = EngineConfig {
            stop_when_all_informed: true,
            ..EngineConfig::capped(1_000_000)
        };
        let out = Simulation::new(&mut proto).config(cfg).run(13);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.messages.len(), 3);
        for (j, m) in out.messages.iter().enumerate() {
            assert_eq!(m.msg, j as u32);
            assert_eq!(m.informed_count, 8, "message {j} must reach everyone");
            assert!(m.all_informed_at.is_some());
            assert_eq!(m.halted_knowing, 0, "nobody ever halts");
        }
        // The run completes exactly when the last message completes.
        let last = out
            .messages
            .iter()
            .map(|m| m.all_informed_at.unwrap())
            .max();
        assert_eq!(last, out.all_informed_at);
        // A node's informed_at is when it learned its *last* message.
        assert!(out.nodes.iter().all(|n| n.informed_at.is_some()));
    }

    #[test]
    fn round_simulation_delivers_messages() {
        // With 8 virtual channels over 2 physical channels and 4-slot rounds,
        // source and listener meet when they pick the same virtual channel
        // (prob 1/8 per round) — should happen quickly.
        let mut proto = RoundToy;
        let out = Simulation::new(&mut proto)
            .config(EngineConfig::capped(100_000))
            .run(11);
        assert!(
            out.all_informed,
            "round-mapped rendezvous must succeed: {out:?}"
        );
        // Each node acts at most once per round (energy ≤ rounds executed).
        let rounds = out.slots.div_ceil(4);
        for n in &out.nodes {
            assert!(
                n.cost() <= rounds,
                "cost {} exceeds rounds {rounds}",
                n.cost()
            );
        }
    }

    /// The sub-slot counter where it could drift from `(slot − seg_start) %
    /// round_len`: a sparse round-simulated relay (4-slot rounds, 100-round
    /// segments, so fast-forward engages; nodes never halt, so the run
    /// lasts until the cap) under schedule events that fall
    /// mid-round, a crash and a recovery that restart the sampling stream
    /// mid-segment, and a slot cap that ends the run mid-round. The
    /// counter's `debug_assert` checks every iteration of the debug build;
    /// fast-forward on and off must agree on the outcome, the trace and
    /// every telemetry counter the stepped/span split does not move.
    #[test]
    fn sub_slot_counter_survives_events_crashes_and_a_mid_round_cap() {
        struct SparseRounds;
        impl Protocol for SparseRounds {
            type Node = RelayNode;
            fn num_nodes(&self) -> u32 {
                16
            }
            fn segment(&mut self, _s: u64) -> SlotProfile {
                SlotProfile {
                    p1: 0.01,
                    p2: 0.01,
                    channels: 2,
                    virt_channels: 8,
                    round_len: 4,
                    seg_len: 400,
                    seg_major: 0,
                    seg_minor: 0,
                    step: 0,
                }
            }
            fn make_node(&self, _id: u32, is_source: bool) -> RelayNode {
                RelayNode {
                    informed: is_source,
                }
            }
        }
        struct EveryThird;
        impl Adversary for EveryThird {
            fn jam(&mut self, slot: u64, _channels: u64) -> JamSet {
                if slot.is_multiple_of(3) {
                    JamSet::Prefix(1)
                } else {
                    JamSet::Empty
                }
            }
            fn budget(&self) -> u64 {
                1_500
            }
        }
        let half: Vec<u32> = (0..8).collect();
        let sched = WorldSchedule::new()
            .at(
                702,
                WorldEvent::Partition {
                    groups: vec![half.clone(), (8..16).collect()],
                },
            )
            .at(
                1501,
                WorldEvent::CrashNodes {
                    nodes: half.clone(),
                },
            )
            .at(2603, WorldEvent::RecoverNodes { nodes: half })
            .at(3999, WorldEvent::Heal)
            .at(4405, WorldEvent::SetLinkLoss { p: 0.5 });
        // 6001 is one slot into a round.
        let cap = 6_001;
        for seed in 1..=6u64 {
            let run_mode = |fast_forward: bool| {
                let mut obs = RecordingObserver::new();
                let cfg = EngineConfig {
                    fast_forward,
                    ..EngineConfig::capped(cap)
                };
                let (out, tel) = Simulation::new(&mut SparseRounds)
                    .adversary(&mut EveryThird)
                    .schedule(&sched)
                    .config(cfg)
                    .observer(&mut obs)
                    .run_with_telemetry(seed);
                (out, tel, obs.events, obs.growth)
            };
            let (fast, fast_tel, fast_events, fast_growth) = run_mode(true);
            let (slow, slow_tel, slow_events, slow_growth) = run_mode(false);
            assert_eq!(fast, slow, "seed {seed}");
            assert_eq!(fast_events, slow_events, "seed {seed}");
            assert_eq!(fast_growth, slow_growth, "seed {seed}");
            let counters = |t: &EngineTelemetry| {
                (
                    t.slots_total(),
                    t.rng_engine_draws,
                    t.rng_node_draws,
                    t.jam_spent_stepped + t.jam_spent_spans,
                    t.schedule_events,
                    t.crashed_node_slots,
                )
            };
            assert_eq!(counters(&fast_tel), counters(&slow_tel), "seed {seed}");
            assert!(
                fast_tel.spans > 0,
                "seed {seed}: fast-forward never engaged"
            );
            assert_eq!(slow_tel.spans, 0);
            assert_eq!(fast.slots, cap, "seed {seed}: the cap ends the run");
            let applied: Vec<u64> = fast.timeline.iter().map(|m| m.applied_at).collect();
            assert_eq!(applied, [704, 1504, 2604, 4000, 4408], "seed {seed}");
        }
    }

    // ---- nemesis layer (WorldSchedule) ------------------------------------

    use crate::schedule::{WorldEvent, WorldSchedule};

    // Late-landing events need live broadcasters: [`RelayToy`] never halts,
    // so runs pair it with `stop_when_all_informed` (see `informed_cfg`).

    #[test]
    fn empty_schedule_is_byte_identical_to_unscheduled() {
        for seed in [1u64, 7, 42] {
            let plain = {
                let mut proto = toy(16);
                Simulation::new(&mut proto)
                    .config(EngineConfig::capped(100_000))
                    .run_with_telemetry(seed)
            };
            let empty = WorldSchedule::new();
            let scheduled = {
                let mut proto = toy(16);
                Simulation::new(&mut proto)
                    .schedule(&empty)
                    .config(EngineConfig::capped(100_000))
                    .run_with_telemetry(seed)
            };
            assert_eq!(plain.0, scheduled.0, "outcome drift at seed {seed}");
            assert_eq!(plain.1, scheduled.1, "telemetry drift at seed {seed}");
        }
    }

    #[test]
    fn crashed_nodes_degrade_gracefully() {
        let sched = WorldSchedule::new().at(
            0,
            WorldEvent::CrashNodes {
                nodes: vec![12, 13, 14, 15],
            },
        );
        let mut proto = toy(16);
        let (out, tel) = Simulation::new(&mut proto)
            .schedule(&sched)
            .config(EngineConfig::capped(100_000))
            .run_with_telemetry(9);
        assert_eq!(out.crashed, 4);
        assert_eq!(out.survivors, 12);
        assert!(!out.all_informed, "crashed nodes can never learn");
        assert!(
            out.survivors_all_informed,
            "every survivor should learn: {out:?}"
        );
        assert!(out.survivors_all_halted);
        assert!(!out.all_halted, "standing crashes veto the classic verdict");
        assert_eq!(out.safety_violations(), 0);
        for nid in 12..16 {
            assert_eq!(out.nodes[nid].informed_at, None);
            assert_eq!(out.nodes[nid].halted_at, None);
        }
        assert_eq!(out.timeline.len(), 1);
        assert_eq!(out.timeline[0].kind, "crash");
        assert_eq!(out.timeline[0].applied_at, 0);
        assert_eq!(tel.schedule_events, 1);
        assert_eq!(tel.crashed_node_slots, 4 * out.slots);
        assert_eq!(tel.slots_total(), out.slots);
    }

    #[test]
    fn crash_all_then_recover_rides_out_dead_air() {
        // Every node (source included) is down from slot 0 to 640; the run
        // must coast through the dead air without panicking and still
        // complete after the recovery.
        let sched = WorldSchedule::new()
            .at(
                0,
                WorldEvent::CrashNodes {
                    nodes: (0..16).collect(),
                },
            )
            .at(
                640,
                WorldEvent::RecoverNodes {
                    nodes: (0..16).collect(),
                },
            );
        let mut proto = toy(16);
        let (out, tel) = Simulation::new(&mut proto)
            .schedule(&sched)
            .config(EngineConfig::capped(100_000))
            .run_with_telemetry(3);
        assert!(out.all_informed, "{out:?}");
        assert!(out.all_halted);
        assert_eq!(out.crashed, 0);
        assert_eq!(out.survivors, 16);
        assert_eq!(out.timeline.len(), 2);
        assert_eq!(out.timeline[0].kind, "crash");
        assert_eq!(out.timeline[1].kind, "recover");
        assert_eq!(out.timeline[1].applied_at, 640);
        assert_eq!(tel.schedule_events, 2);
        assert_eq!(tel.crashed_node_slots, 16 * 640);
        assert_eq!(tel.slots_total(), out.slots);
    }

    #[test]
    fn partition_blocks_cross_group_delivery() {
        let sched = WorldSchedule::new().at(
            0,
            WorldEvent::Partition {
                groups: vec![(0..8).collect(), (8..16).collect()],
            },
        );
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .schedule(&sched)
            .config(EngineConfig::capped(20_000))
            .run(5);
        assert!(!out.all_informed);
        for nid in 8..16 {
            assert_eq!(
                out.nodes[nid].informed_at, None,
                "node {nid} is cut off from the source's group"
            );
        }
        assert!(
            out.nodes[1..8].iter().all(|n| n.informed_at.is_some()),
            "the source's own group still completes: {out:?}"
        );
    }

    #[test]
    fn heal_restores_cross_group_delivery() {
        let sched = WorldSchedule::new()
            .at(
                0,
                WorldEvent::Partition {
                    groups: vec![(0..8).collect(), (8..16).collect()],
                },
            )
            .at(2048, WorldEvent::Heal);
        let mut proto = RelayToy { n: 16, channels: 4 };
        let out = Simulation::new(&mut proto)
            .schedule(&sched)
            .config(informed_cfg())
            .run(5);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.timeline.len(), 2);
        assert_eq!(out.timeline[1].kind, "heal");
        // The far side could only start learning after the heal landed.
        let earliest_far = (8..16).filter_map(|i| out.nodes[i].informed_at).min();
        assert!(earliest_far.is_some_and(|s| s >= 2048), "{earliest_far:?}");
    }

    #[test]
    fn swap_eve_replaces_the_adversary_and_resets_her_budget() {
        // A bottomless full-band jammer blocks all progress until the swap
        // at slot 1024 seats a silent Eve; the run then completes. Her spend
        // is exactly 4 channels × 1024 slots, span-charges included.
        let sched = WorldSchedule::new().at(1024, WorldEvent::SwapEve);
        let mut proto = RelayToy { n: 16, channels: 4 };
        let mut jam = JamAll { t: u64::MAX };
        let out = Simulation::new(&mut proto)
            .adversary(&mut jam)
            .schedule(&sched)
            .swap_eve(Eve::Silent)
            .config(informed_cfg())
            .run(4);
        assert!(out.all_informed, "{out:?}");
        assert_eq!(out.eve_spent, 1024 * 4);
        assert!(out.all_informed_at.is_some_and(|s| s >= 1024));
        assert_eq!(out.timeline.len(), 1);
        assert_eq!(out.timeline[0].kind, "swap-eve");
        assert_eq!(out.timeline[0].applied_at, 1024);
    }

    #[test]
    fn swap_eve_with_empty_queue_is_a_recorded_noop() {
        // An applied swap with no queued Eve changes nothing but the
        // timeline; an event past the run's natural end is never applied.
        let plain = {
            let mut proto = toy(16);
            Simulation::new(&mut proto)
                .config(EngineConfig::capped(100_000))
                .run(1)
        };
        let early = WorldSchedule::new().at(16, WorldEvent::SwapEve);
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .schedule(&early)
            .config(EngineConfig::capped(100_000))
            .run(1);
        assert_eq!(out.slots, plain.slots);
        assert_eq!(out.nodes, plain.nodes);
        assert_eq!(out.totals, plain.totals);
        assert_eq!(out.timeline.len(), 1);

        // The toy run all-halts around slot 64; with no crashed nodes a
        // pending slot-100k event cannot change anything, so the run ends
        // on schedule and leaves no marker.
        let late = WorldSchedule::new().at(100_000, WorldEvent::SwapEve);
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .schedule(&late)
            .config(EngineConfig::capped(200_000))
            .run(1);
        assert_eq!(out.slots, plain.slots);
        assert_eq!(out.nodes, plain.nodes);
        assert!(out.timeline.is_empty(), "unreached events leave no marker");
    }

    #[test]
    fn full_link_loss_isolates_every_node() {
        let sched = WorldSchedule::new().at(0, WorldEvent::SetLinkLoss { p: 1.0 });
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .schedule(&sched)
            .config(EngineConfig::capped(5_000))
            .run(6);
        assert_eq!(out.totals.heard_message, 0, "p = 1.0 drops every link");
        assert_eq!(out.informed_count(), 1, "only the source knows m");
        assert!(!out.all_informed);
    }

    #[test]
    fn partial_link_loss_slows_but_does_not_stop_broadcast() {
        let lossy = WorldSchedule::new().at(0, WorldEvent::SetLinkLoss { p: 0.5 });
        let mut proto = toy(16);
        let out = Simulation::new(&mut proto)
            .schedule(&lossy)
            .config(EngineConfig::capped(200_000))
            .run(6);
        assert!(
            out.all_informed,
            "a 50% lossy ether still completes: {out:?}"
        );
    }
}
