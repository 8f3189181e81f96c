//! # rcb-sim — slot-synchronous multi-channel radio network simulator
//!
//! This crate is the substrate for reproducing *Fast and Resource Competitive
//! Broadcast in Multi-channel Radio Networks* (Chen & Zheng, SPAA 2019). It
//! implements exactly the communication model of Section 3 of the paper:
//!
//! * Time is divided into discrete slots; all nodes start at slot 0.
//! * In each slot a node accesses one channel and either **broadcasts**,
//!   **listens**, or stays **idle**. Broadcast and listen cost one unit of
//!   energy per slot; idling is free.
//! * Per channel per slot: zero broadcasters and no jamming → listeners hear
//!   **silence**; exactly one broadcaster and no jamming → listeners receive
//!   the **message**; two or more broadcasters, or jamming by the adversary
//!   (or both) → listeners hear **noise**. Collisions and jamming are
//!   indistinguishable, and broadcasters get no feedback.
//! * The adversary (*Eve*) may jam any set of channels each slot at one unit
//!   of energy per channel-slot, up to a total budget `T`. She is
//!   **oblivious**: the [`Adversary`] trait only ever receives the slot index
//!   and the (publicly known) channel count for that slot — never any
//!   execution state. The Section 8 extension is [`AdaptiveAdversary`]
//!   ([`adaptive`]): Eve additionally observes, each slot, which channels
//!   carried transmissions in the previous slot.
//!
//! ## Engine design
//!
//! Every protocol in the paper has the property that, within a slot, all
//! active nodes share the same action probabilities (listen w.p. `p₁`,
//! broadcast-candidate w.p. `p₂`), with only the *interpretation* of a drawn
//! coin differing by node status. The [`engine`] exploits this: it samples the
//! acting subset exactly (geometric-skip Bernoulli thinning, `O(#actors)` per
//! slot rather than `O(n)`), asks only the selected nodes for their concrete
//! action, and resolves channel outcomes from a sparse broadcast board. Runs
//! of provably empty rounds are **fast-forwarded** in O(1) with Eve's budget
//! charged exactly through the span-batched `jam_span` APIs — byte-identical
//! to slot-by-slot execution for both oblivious and adaptive adversaries
//! (see the [`engine`] module docs for the soundness argument). See
//! [`protocol`] for the trait contract and [`sampler`] for the exactness
//! argument and tests.
//!
//! Every run goes through one builder, [`Simulation`]: mount an [`Eve`]
//! adversary seat (oblivious or adaptive), optionally a [`Topology`], an
//! [`EngineConfig`], and an [`Observer`], then `.run(seed)`.
//!
//! The [`topology`] module generalizes the model to **multi-hop** networks:
//! a connectivity graph gates who hears whom, informed nodes relay, and
//! completion means the source's whole reachable component is informed.
//! [`Topology::Complete`] reproduces the single-hop model byte-for-byte.
//!
//! The [`schedule`] module adds the **nemesis layer**: a declarative
//! [`WorldSchedule`] of time-indexed fault events (adversary swaps,
//! partitions, crashes, lossy links) applied at round starts so idle-round
//! fast-forwarding stays sound, with survivor-relative completion verdicts
//! in [`RunOutcome`]. An empty schedule is byte-identical to no schedule.

pub mod adaptive;
pub mod channel;
pub mod engine;
pub mod jamset;
pub mod metrics;
pub mod protocol;
pub mod rng;
pub mod sampler;
pub mod schedule;
pub mod telemetry;
pub mod topology;
pub mod trace;

pub use adaptive::{AdaptiveAdversary, BandObservation, ObliviousAsAdaptive};
pub use channel::{ChannelBoard, Feedback, Payload};
pub use engine::{EngineConfig, Eve, Sampling, Simulation};
pub use jamset::JamSet;
pub use metrics::{MessageOutcome, NodeExtra, NodeOutcome, RunOutcome, SlotStats};
pub use protocol::{
    Action, Adversary, BoundaryDecision, Coin, NoAdversary, NodeId, Protocol, ProtocolNode,
    SlotProfile, SpanCharge,
};
pub use rng::{derive_seed, SplitMix64, Xoshiro256};
pub use sampler::{bernoulli_subset, geometric_gap, TwoClassRoundStream};
pub use schedule::{ScheduleMarker, WorldEvent, WorldSchedule, LINK_LOSS_STREAM};
pub use telemetry::{EngineTelemetry, PhaseNanos, SPAN_HIST_BUCKETS};
pub use topology::{Topology, TopologyView};
pub use trace::{Observer, RecordingObserver, TraceEvent};
