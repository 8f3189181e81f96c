//! Work-stealing shard scheduler equivalence: a campaign driven by N
//! independent workers over a shared state directory
//! ([`rcb::campaign::shard_work`]) and folded by
//! [`rcb::campaign::shard_merge`] must reproduce the single-process
//! artifact **byte for byte** — at any worker count and under mid-cell
//! worker death with lease stealing.
//!
//! Contract, in three tiers:
//!
//! * **Any fleet size.** 1, 2 and 4 workers all merge to the bytes of a
//!   plain `run_campaign` of the same spec/config. The
//!   workers race each other for cells through atomic lease claims; who
//!   wins which cell must be invisible in the artifact.
//! * **Kill one worker mid-cell.** A worker hard-killed between
//!   checkpoints (`max_trials` leaves its lease in place, exactly like
//!   `kill -9`) hands its cell to the fleet via staleness: another worker
//!   steals the lease, resumes from the watermark, and the merged bytes
//!   are unchanged. Merge sweeps all scheduler residue (leases, tmp
//!   files).
//! * **Warm fleet.** A second plan over the same campaign backed by the
//!   same store completes with **zero** simulated trials — the shard
//!   path and the store compose.
//!
//! The lease primitives themselves (double-claim impossibility,
//! single-winner steal, heartbeat fencing, plan codec) are unit-tested in
//! `crates/campaign/src/shard.rs`; this file covers the multi-worker
//! end-to-end contract.

use rcb::campaign::{
    run_campaign, shard_merge, shard_status, shard_work, write_plan, CampaignConfig, CampaignSpec,
    CellSpec, CellState, PlanOptions, WorkerOptions, WorkerOutcome,
};
use rcb::harness::{AdversaryKind, ProtocolKind};
use std::path::{Path, PathBuf};

/// Process-unique scratch directory; removed by each test on success so
/// reruns start clean (a leftover dir from a failed run is harmless —
/// the name is pid-scoped and recreated fresh).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcb-shard-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three deliberately heterogeneous cells (epoch protocol vs naive,
/// jammed vs silent, different slot caps) so stolen checkpoints carry
/// non-trivial sketches, histograms, and telemetry.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "shard-itest".into(),
        description: "shard scheduler fixture".into(),
        cells: vec![
            CellSpec::new(
                ProtocolKind::Naive {
                    n: 16,
                    act_prob: 1.0,
                },
                AdversaryKind::Silent,
            )
            .with_max_slots(50_000),
            CellSpec::new(
                ProtocolKind::MultiCast {
                    n: 16,
                    params: Default::default(),
                },
                AdversaryKind::Uniform { t: 500, frac: 0.5 },
            )
            .with_max_slots(500_000),
            CellSpec::new(
                ProtocolKind::Naive {
                    n: 32,
                    act_prob: 0.5,
                },
                AdversaryKind::Silent,
            )
            .with_max_slots(50_000),
        ],
    }
}

fn cfg(trials: u64) -> CampaignConfig {
    CampaignConfig {
        seed: 2019,
        trials_per_cell: trials,
        threads: 1,
        ..Default::default()
    }
}

fn worker(id: &str) -> WorkerOptions {
    WorkerOptions {
        worker_id: id.into(),
        threads: 1,
        ..Default::default()
    }
}

/// Run `n` workers concurrently until the plan is complete; returns each
/// worker's outcome.
fn run_fleet(spec: &CampaignSpec, state_dir: &Path, n: usize) -> Vec<WorkerOutcome> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                scope.spawn(move || {
                    shard_work(spec, state_dir, &worker(&format!("w{i}"))).expect("worker")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

fn assert_no_scheduler_residue(state_dir: &Path) {
    for entry in std::fs::read_dir(state_dir).expect("state dir") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.starts_with("lease-") && !name.ends_with(".tmp"),
            "scheduler residue after merge: {name}"
        );
    }
}

/// The headline matrix: 1, 2 and 4 workers, every fleet size merging to
/// the single-process bytes.
#[test]
fn merge_is_byte_identical_across_worker_and_batch_matrix() {
    let spec = spec();
    let cfg = cfg(5);
    let reference = run_campaign(&spec, &cfg).to_json();
    for &workers in &[1usize, 2, 4] {
        let dir = scratch(&format!("matrix-w{workers}"));
        write_plan(&spec, &cfg, &dir, &PlanOptions::default()).expect("plan");
        let outcomes = run_fleet(&spec, &dir, workers);
        let completed: u64 = outcomes
            .iter()
            .map(|o| match o {
                WorkerOutcome::Finished {
                    cells_completed, ..
                } => *cells_completed,
                WorkerOutcome::Killed { .. } => panic!("no kill switch in this test"),
            })
            .sum();
        assert_eq!(
            completed, 3,
            "every cell completed exactly once across the fleet (workers={workers})"
        );
        let merged = shard_merge(&spec, &dir).expect("merge");
        assert_eq!(
            merged.report.to_json(),
            reference,
            "merge bytes diverged at workers={workers}"
        );
        assert_no_scheduler_residue(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill-one-worker-mid-cell: the dead worker's lease goes stale, the
/// fleet steals it, resumes the cell from its checkpoint watermark, and
/// the merged artifact is still byte-identical.
#[test]
fn killed_worker_is_stolen_from_and_merge_bytes_are_unchanged() {
    let spec = spec();
    let cfg = cfg(5);
    let reference = run_campaign(&spec, &cfg).to_json();
    let dir = scratch("kill");
    write_plan(
        &spec,
        &cfg,
        &dir,
        &PlanOptions {
            stale_after_ms: 60, // quick staleness so the test stays fast
            ..Default::default()
        },
    )
    .expect("plan");

    // One worker dies mid-cell: 3 of the cell's 5 trials ingested,
    // lease left in place exactly as a hard kill would.
    let dead = shard_work(
        &spec,
        &dir,
        &WorkerOptions {
            max_trials: Some(3),
            ..worker("doomed")
        },
    )
    .expect("killed worker");
    let WorkerOutcome::Killed { trials_simulated } = dead else {
        panic!("kill switch did not fire: {dead:?}")
    };
    assert_eq!(trials_simulated, 3);
    let status =
        shard_status(&dir, &rcb::campaign::load_plan(&dir).expect("plan")).expect("status");
    let victim: Vec<_> = status
        .iter()
        .filter(|s| s.owner.as_deref() == Some("doomed"))
        .collect();
    assert_eq!(victim.len(), 1, "the dead worker's lease is still held");
    assert!(
        victim[0].watermark > 0,
        "mid-cell: progress was checkpointed"
    );
    assert!(victim[0].watermark < 5, "mid-cell: the cell is unfinished");

    // The fleet steals the stale lease and finishes everything.
    let outcomes = run_fleet(&spec, &dir, 2);
    let stolen: u64 = outcomes
        .iter()
        .map(|o| match o {
            WorkerOutcome::Finished { cells_stolen, .. } => *cells_stolen,
            WorkerOutcome::Killed { .. } => panic!("fleet workers have no kill switch"),
        })
        .sum();
    assert_eq!(stolen, 1, "exactly one steal: the dead worker's cell");

    let merged = shard_merge(&spec, &dir).expect("merge");
    assert_eq!(
        merged.report.to_json(),
        reference,
        "steal-and-resume changed bytes"
    );
    assert_no_scheduler_residue(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Status transitions: available → claimed (fresh lease) → done, and a
/// stale lease reads as stealable.
#[test]
fn status_tracks_the_lease_lifecycle() {
    let spec = spec();
    let cfg = cfg(2);
    let dir = scratch("status");
    let plan = write_plan(
        &spec,
        &cfg,
        &dir,
        &PlanOptions {
            stale_after_ms: 50,
            ..Default::default()
        },
    )
    .expect("plan");

    let fresh = shard_status(&dir, &plan).expect("status");
    assert!(fresh.iter().all(|s| s.state == CellState::Available));
    assert!(fresh.iter().all(|s| s.watermark == 0 && s.owner.is_none()));

    // Kill a worker on its first cell, then watch the lease go stale.
    shard_work(
        &spec,
        &dir,
        &WorkerOptions {
            max_trials: Some(1),
            ..worker("brief")
        },
    )
    .expect("killed worker");
    let held = shard_status(&dir, &plan).expect("status");
    let claimed: Vec<_> = held
        .iter()
        .filter(|s| s.state == CellState::Claimed || s.state == CellState::Stealable)
        .collect();
    assert_eq!(claimed.len(), 1);
    assert_eq!(claimed[0].owner.as_deref(), Some("brief"));
    std::thread::sleep(std::time::Duration::from_millis(80));
    let stale = shard_status(&dir, &plan).expect("status");
    assert!(
        stale.iter().any(|s| s.state == CellState::Stealable),
        "the dead worker's lease must read stealable after stale_after_ms"
    );

    run_fleet(&spec, &dir, 1);
    let done = shard_status(&dir, &plan).expect("status");
    assert!(done.iter().all(|s| s.state == CellState::Done));
    assert!(done.iter().all(|s| s.watermark == 2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store composition: a fleet that completed once populates the store; a
/// fresh plan over the same campaign completes with zero simulation.
#[test]
fn second_fleet_is_fully_warm_through_the_store() {
    let spec = spec();
    let cfg = cfg(3);
    let store_dir = scratch("warm-store");
    let opts = PlanOptions {
        store_dir: Some(store_dir.clone()),
        ..Default::default()
    };

    let cold_dir = scratch("warm-cold");
    write_plan(&spec, &cfg, &cold_dir, &opts).expect("plan");
    run_fleet(&spec, &cold_dir, 2);
    let cold = shard_merge(&spec, &cold_dir).expect("merge");

    let warm_dir = scratch("warm-warm");
    write_plan(&spec, &cfg, &warm_dir, &opts).expect("plan");
    let outcomes = run_fleet(&spec, &warm_dir, 2);
    let (simulated, hits): (u64, u64) = outcomes
        .iter()
        .map(|o| match o {
            WorkerOutcome::Finished {
                trials_simulated,
                store_hits,
                ..
            } => (*trials_simulated, *store_hits),
            WorkerOutcome::Killed { .. } => panic!("no kill switch in this test"),
        })
        .fold((0, 0), |(s, h), (ds, dh)| (s + ds, h + dh));
    assert_eq!(simulated, 0, "warm fleet must simulate nothing");
    assert_eq!(hits, 3, "every cell served from the store");
    let warm = shard_merge(&spec, &warm_dir).expect("merge");
    assert_eq!(warm.report.to_json(), cold.report.to_json());

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
}
