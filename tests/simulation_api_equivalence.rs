//! Migration-equivalence gate for the unified `Simulation` API.
//!
//! The eight legacy engine entry points (`run`, `run_with_observer`,
//! `run_topo`, `run_topo_with_observer`, `run_adaptive`,
//! `run_adaptive_with_observer`, `run_topo_adaptive`,
//! `run_topo_adaptive_with_observer`) were collapsed into the
//! `Simulation` builder. This suite proves the collapse changed **nothing
//! observable**: for every cell of the
//! `{oblivious, adaptive} × {no-topology, Complete, Line, Grid} × 3-seed`
//! matrix (× two protocols — a relaying multi-hop one and a halting
//! single-hop one), the builder must reproduce, *byte for byte*, the
//! `RunOutcome` and the full event trace (informed/halted/boundary events
//! plus the growth curve) that the legacy entry point produced.
//!
//! The `GOLDEN` table below was generated by running exactly this matrix
//! through the legacy free functions at the last pre-refactor commit
//! (PR 4, `52d1882`), hashing `(slots, all_halted, all_informed,
//! all_informed_at, reachable, eve_spent, totals, nodes, events, growth)`
//! with 64-bit FNV-1a over the `Debug` rendering. Only fields that existed
//! before the refactor are hashed, so the hash is insensitive to additive
//! API growth (e.g. `RunOutcome::messages`) but pins every legacy
//! observable, including RNG-stream-sensitive per-node energy ledgers.
//!
//! Runs as a CI gate in the bench-smoke job alongside
//! `topology_equivalence` and `adaptive_fast_forward`.

use rcb::adversary::{FullBandBurst, ReactiveJammer, UniformFraction};
use rcb::core::{McParams, MultiCast, MultiCastAdv, MultiCastC, MultiHopCast};
use rcb::sim::{
    derive_seed, EngineConfig, Eve, Protocol, RecordingObserver, RunOutcome, Simulation, Topology,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Hash exactly the observables the legacy entry points produced (the
/// pre-refactor `RunOutcome` fields + the full recorded trace). Do NOT add
/// post-refactor fields here — the goldens pin the legacy surface.
fn trace_hash(out: &RunOutcome, obs: &RecordingObserver) -> u64 {
    let s = format!(
        "{:?}",
        (
            out.slots,
            out.all_halted,
            out.all_informed,
            out.all_informed_at,
            out.reachable,
            out.eve_spent,
            &out.totals,
            &out.nodes,
            &obs.events,
            &obs.growth,
        )
    );
    fnv1a(s.as_bytes())
}

/// A golden key: (protocol, adversary model, topology, seed).
type Cell = (&'static str, &'static str, &'static str, u64);

/// Pre-refactor golden trace hashes, generated from the legacy entry
/// points (see the module docs).
const GOLDEN: [(Cell, u64); 48] = [
    (("multihop", "oblivious", "none", 1), 0x7fc1e3a479921ecd),
    (("multihop", "oblivious", "none", 2), 0xe3646d9226110a26),
    (("multihop", "oblivious", "none", 3), 0xf17a9290fdb33eec),
    (("multihop", "oblivious", "complete", 1), 0x7fc1e3a479921ecd),
    (("multihop", "oblivious", "complete", 2), 0xe3646d9226110a26),
    (("multihop", "oblivious", "complete", 3), 0xf17a9290fdb33eec),
    (("multihop", "oblivious", "line", 1), 0xf38c925bb98e6813),
    (("multihop", "oblivious", "line", 2), 0x83c5c81ed2bc820c),
    (("multihop", "oblivious", "line", 3), 0xb5ba3a91c49bfb9e),
    (("multihop", "oblivious", "grid", 1), 0x5b7eec939b887564),
    (("multihop", "oblivious", "grid", 2), 0xa3a9be69bbfbaf97),
    (("multihop", "oblivious", "grid", 3), 0xdc68e8e5e8198c31),
    (("multihop", "adaptive", "none", 1), 0xc2d03750cf9c99e1),
    (("multihop", "adaptive", "none", 2), 0x4f6a3e2fe376b557),
    (("multihop", "adaptive", "none", 3), 0x5f70217011f1f3b0),
    (("multihop", "adaptive", "complete", 1), 0xc2d03750cf9c99e1),
    (("multihop", "adaptive", "complete", 2), 0x4f6a3e2fe376b557),
    (("multihop", "adaptive", "complete", 3), 0x5f70217011f1f3b0),
    (("multihop", "adaptive", "line", 1), 0x3937a967b2b53ef9),
    (("multihop", "adaptive", "line", 2), 0x6389c22a63de537e),
    (("multihop", "adaptive", "line", 3), 0x83e24dc01263ab3c),
    (("multihop", "adaptive", "grid", 1), 0x31183f051c91709d),
    (("multihop", "adaptive", "grid", 2), 0xc428874cdcef7950),
    (("multihop", "adaptive", "grid", 3), 0xef271e399b661984),
    (("multicast", "oblivious", "none", 1), 0xd5259f0370766904),
    (("multicast", "oblivious", "none", 2), 0x3d21e02beffc635f),
    (("multicast", "oblivious", "none", 3), 0xaacee90c6ea0fbab),
    (
        ("multicast", "oblivious", "complete", 1),
        0xd5259f0370766904,
    ),
    (
        ("multicast", "oblivious", "complete", 2),
        0x3d21e02beffc635f,
    ),
    (
        ("multicast", "oblivious", "complete", 3),
        0xaacee90c6ea0fbab,
    ),
    (("multicast", "oblivious", "line", 1), 0x6e83bc3474847f0e),
    (("multicast", "oblivious", "line", 2), 0xba43f3177c403620),
    (("multicast", "oblivious", "line", 3), 0xdbdf9dc6036c5398),
    (("multicast", "oblivious", "grid", 1), 0x8a19e80850ec79ad),
    (("multicast", "oblivious", "grid", 2), 0xfa41cca62fdccde4),
    (("multicast", "oblivious", "grid", 3), 0xd267e7b939e7afc1),
    (("multicast", "adaptive", "none", 1), 0x8957bb71f34e7dc9),
    (("multicast", "adaptive", "none", 2), 0xcf40732ec1b1f674),
    (("multicast", "adaptive", "none", 3), 0xd8f92e06c5df1e74),
    (("multicast", "adaptive", "complete", 1), 0x8957bb71f34e7dc9),
    (("multicast", "adaptive", "complete", 2), 0xcf40732ec1b1f674),
    (("multicast", "adaptive", "complete", 3), 0xd8f92e06c5df1e74),
    (("multicast", "adaptive", "line", 1), 0x0626afda71d62c3d),
    (("multicast", "adaptive", "line", 2), 0x29627159f57284e1),
    (("multicast", "adaptive", "line", 3), 0xeb1cbe3f3436995a),
    (("multicast", "adaptive", "grid", 1), 0x05183d2677a8bfb5),
    (("multicast", "adaptive", "grid", 2), 0xa76a00c72f791b68),
    (("multicast", "adaptive", "grid", 3), 0x043ae0d7aa0c8adc),
];

fn topo_of(name: &str) -> Option<Topology> {
    match name {
        "none" => None,
        "complete" => Some(Topology::Complete),
        "line" => Some(Topology::Line),
        "grid" => Some(Topology::Grid { cols: 4 }),
        other => panic!("unknown topology {other}"),
    }
}

/// The matrix cell's run, spelled with the `Simulation` builder exactly as
/// a migrated caller would spell it.
fn run_cell(
    proto_name: &str,
    eve_name: &str,
    topo: Option<&Topology>,
    seed: u64,
    observer: Option<&mut RecordingObserver>,
) -> RunOutcome {
    let cfg = EngineConfig {
        stop_when_all_informed: proto_name == "multihop",
        ..EngineConfig::capped(300_000)
    };
    // Same derivations the pre-refactor generator used.
    let adv_seed = derive_seed(seed, 1_000_003);
    let mut uniform;
    let mut reactive;
    let eve = match eve_name {
        "oblivious" => {
            uniform = UniformFraction::new(6_000, 0.5, adv_seed);
            Eve::Oblivious(&mut uniform)
        }
        "adaptive" => {
            reactive = ReactiveJammer::with_params(6_000, 4, 2, 1);
            Eve::Adaptive(&mut reactive)
        }
        other => panic!("unknown adversary model {other}"),
    };
    fn go<'a, P: Protocol>(
        p: &'a mut P,
        eve: Eve<'a>,
        topo: Option<&'a Topology>,
        cfg: EngineConfig,
        observer: Option<&'a mut RecordingObserver>,
        seed: u64,
    ) -> RunOutcome {
        let sim = Simulation::new(p).eve(eve).topology(topo).config(cfg);
        match observer {
            Some(obs) => sim.observer(obs).run(seed),
            None => sim.run(seed),
        }
    }
    let mut mh;
    let mut mc;
    match proto_name {
        "multihop" => {
            mh = MultiHopCast::with_config(16, 4, 0.25);
            go(&mut mh, eve, topo, cfg, observer, seed)
        }
        "multicast" => {
            mc = MultiCast::with_params(16, McParams::default());
            go(&mut mc, eve, topo, cfg, observer, seed)
        }
        other => panic!("unknown protocol {other}"),
    }
}

/// `Simulation::run` must be byte-identical to every legacy entry point:
/// every cell of the adversary × topology × seed matrix reproduces the
/// pre-refactor golden hash of its outcome + full event trace.
#[test]
fn simulation_builder_reproduces_every_legacy_entry_point() {
    for ((proto, eve, topo_name, seed), want) in GOLDEN {
        let topo = topo_of(topo_name);
        let mut obs = RecordingObserver::new();
        let out = run_cell(proto, eve, topo.as_ref(), seed, Some(&mut obs));
        let got = trace_hash(&out, &obs);
        assert_eq!(
            got, want,
            "trace drift vs legacy engine: {proto} / {eve} / {topo_name} / seed {seed} \
             (got 0x{got:016x}, want 0x{want:016x})"
        );
    }
}

/// The no-observer spelling (the legacy `run` / `run_topo` /
/// `run_adaptive` / `run_topo_adaptive` family) must produce the same
/// `RunOutcome` as the observed spelling — observers are pure taps.
#[test]
fn observer_is_a_pure_tap() {
    for (proto, eve) in [
        ("multihop", "oblivious"),
        ("multihop", "adaptive"),
        ("multicast", "oblivious"),
        ("multicast", "adaptive"),
    ] {
        for topo_name in ["none", "complete", "line", "grid"] {
            let topo = topo_of(topo_name);
            for seed in 1..=3u64 {
                let mut obs = RecordingObserver::new();
                let observed = run_cell(proto, eve, topo.as_ref(), seed, Some(&mut obs));
                let bare = run_cell(proto, eve, topo.as_ref(), seed, None);
                assert_eq!(
                    observed, bare,
                    "observer changed the run: {proto} / {eve} / {topo_name} / seed {seed}"
                );
            }
        }
    }
}

/// `Topology::Complete` mounted on the builder must stay byte-identical to
/// the topology-free spelling — the invariant the golden table shows
/// (identical hashes for "none" and "complete" rows), asserted directly.
#[test]
fn complete_topology_equals_no_topology() {
    for (proto, eve) in [("multihop", "adaptive"), ("multicast", "oblivious")] {
        for seed in 1..=3u64 {
            let none = run_cell(proto, eve, None, seed, None);
            let complete = run_cell(proto, eve, Some(&Topology::Complete), seed, None);
            assert_eq!(none, complete, "{proto} / {eve} / seed {seed}");
        }
    }
}

/// A slot-loop golden key: (cell, seed).
type LoopCell = (&'static str, u64);

/// Golden trace hashes for the cells the legacy table above leaves out:
/// `MultiCastAdv` n=16 (the late-epoch per-slot loop) and the
/// round-simulated `MultiCast(C)` (`round_len > 1`, whose actions aim at
/// later sub-slots of a round), including a slot cap that falls mid-round.
/// Recorded with the same `trace_hash` before the engine executed actions
/// as they are selected; the fast-forward equivalence suites cannot catch
/// a change that both engine paths share, these can.
const SLOT_LOOP_GOLDEN: [(LoopCell, u64); 15] = [
    (("adv-uniform", 1), 0xef102d960ae57362),
    (("adv-uniform", 2), 0x0efe7dc3bf64399b),
    (("adv-uniform", 3), 0x9d4e95aec04ab471),
    (("adv-burst", 1), 0xe8caffdc30de8b69),
    (("adv-burst", 2), 0xbd20dc718122fd01),
    (("adv-burst", 3), 0x3188bae7a2f14c85),
    (("adv-reactive", 1), 0x0c3b3f45643c85b4),
    (("adv-reactive", 2), 0x77ac6fc9f83d416b),
    (("adv-reactive", 3), 0x90225f6a8b3e8ac9),
    (("multicast-c", 1), 0x4682317a57e1f336),
    (("multicast-c", 2), 0x08a4698e6178c970),
    (("multicast-c", 3), 0xc59b7f43a7adee14),
    (("multicast-c-mid-round-cap", 1), 0xf12fa8eff87f841a),
    (("multicast-c-mid-round-cap", 2), 0x6c52d6e41abcbb58),
    (("multicast-c-mid-round-cap", 3), 0xf6d3bfb6a92c81d1),
];

fn run_loop_cell(cell: &str, seed: u64, obs: &mut RecordingObserver) -> RunOutcome {
    let adv_seed = derive_seed(seed, 1_000_003);
    let mut uniform = UniformFraction::new(50_000, 0.9, adv_seed);
    let mut burst = FullBandBurst::new(200_000, 0);
    let mut reactive = ReactiveJammer::with_params(50_000, 4, 2, 1);
    let mut adv = MultiCastAdv::new(16);
    // 8 channels over 16 virtual ones: rounds of two physical slots.
    let mut limited = MultiCastC::new(32, 8);
    // MultiCastAdv n=16 runs for millions of slots before it halts; the
    // cap keeps the cells cheap in debug builds while still stepping well
    // into the per-slot loop.
    let cfg = EngineConfig::capped(250_000);
    match cell {
        "adv-uniform" => Simulation::new(&mut adv)
            .adversary(&mut uniform)
            .config(cfg)
            .observer(obs)
            .run(seed),
        "adv-burst" => Simulation::new(&mut adv)
            .adversary(&mut burst)
            .config(cfg)
            .observer(obs)
            .run(seed),
        "adv-reactive" => Simulation::new(&mut adv)
            .eve(Eve::Adaptive(&mut reactive))
            .config(cfg)
            .observer(obs)
            .run(seed),
        "multicast-c" => Simulation::new(&mut limited)
            .adversary(&mut uniform)
            .config(cfg)
            .observer(obs)
            .run(seed),
        "multicast-c-mid-round-cap" => {
            assert!(limited.round_len() > 1);
            Simulation::new(&mut limited)
                .adversary(&mut uniform)
                .config(EngineConfig::capped(40_001))
                .observer(obs)
                .run(seed)
        }
        other => panic!("unknown slot-loop cell {other}"),
    }
}

/// `MultiCastAdv` and `MultiCast(C)` runs reproduce their recorded outcome
/// and event trace byte for byte.
#[test]
fn slot_loop_cells_reproduce_their_goldens() {
    let mut drift = Vec::new();
    for ((cell, seed), want) in SLOT_LOOP_GOLDEN {
        let mut obs = RecordingObserver::new();
        let out = run_loop_cell(cell, seed, &mut obs);
        let got = trace_hash(&out, &obs);
        if got != want {
            drift.push(format!(
                "{cell} / seed {seed}: got 0x{got:016x}, want 0x{want:016x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "slot-loop trace drift:\n{}",
        drift.join("\n")
    );
}
