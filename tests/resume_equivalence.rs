//! Kill-anywhere resume equivalence: the campaign service
//! ([`rcb::campaign::run_campaign_service`]) must reproduce the
//! uninterrupted artifact **byte for byte** no matter where a run is
//! killed, how many times it is killed, or how many threads drain the
//! trial queue.
//!
//! Contract, in three tiers:
//!
//! * **Kill anywhere, resume once.** For every kill point `k` in
//!   `1..total` the sequence "run until `k` trials are simulated, exit,
//!   resume" yields an artifact byte-identical to the uninterrupted
//!   run — at 1 and 4 threads, with the resume leg running under the
//!   *other* thread count (checkpoints must not encode scheduling).
//! * **Kill repeatedly.** A chain of kills (resume legs themselves
//!   killed) converges to the same bytes; checkpoints written by a
//!   resumed run are as good as first-generation ones.
//! * **Grow incrementally.** Raising `--trials` on a completed state
//!   directory simulates only the new replicates per cell and produces
//!   the same bytes as a fresh run at the larger trial count — the
//!   two-level [`rcb::harness::cell_trial_seed`] derivation makes each
//!   cell's seed stream independent of the trial budget.
//!
//! Plus the failure-path satellites: a truncated or bit-flipped
//! checkpoint must surface a [`rcb::campaign::ServiceError`] with
//! `file: message` context (never a panic, never a silent recompute),
//! and the store-backed warm path must do zero simulation work.

use rcb::campaign::{
    checkpoint_path, run_campaign, run_campaign_service, CampaignConfig, CampaignSpec, CellSpec,
    ServiceConfig, ServiceRun,
};
use rcb::harness::{AdversaryKind, ProtocolKind};
use std::path::PathBuf;

/// Process-unique scratch directory; removed by each test on success so
/// reruns start clean (a leftover dir from a failed run is harmless —
/// the name is pid-scoped and recreated fresh).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcb-resume-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three deliberately heterogeneous cells (epoch protocol vs naive,
/// jammed vs silent, different slot caps) so checkpoints carry
/// non-trivial sketches, histograms, and telemetry in every cell.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "resume-itest".into(),
        description: "resume equivalence fixture".into(),
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

fn cfg(trials: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 2019,
        trials_per_cell: trials,
        threads,
        ..Default::default()
    }
}

fn service(state_dir: &std::path::Path, resume: bool, kill: Option<u64>) -> ServiceConfig {
    ServiceConfig {
        state_dir: Some(state_dir.to_path_buf()),
        resume,
        checkpoint_every: 2,
        kill_after_trials: kill,
        ..Default::default()
    }
}

fn complete_json(run: Result<ServiceRun, rcb::campaign::ServiceError>) -> String {
    match run.expect("service run failed") {
        ServiceRun::Complete { report, .. } => report.to_json(),
        ServiceRun::Killed { simulated_trials } => {
            panic!("unexpected kill after {simulated_trials} trials")
        }
    }
}

/// The headline matrix: every kill point × {1,4} threads, with the
/// resume leg on the thread count the killed leg did not use.
#[test]
fn kill_anywhere_resume_is_byte_identical() {
    let spec = spec();
    let trials = 4u64;
    let total = spec.cells.len() as u64 * trials;
    let reference = run_campaign(&spec, &cfg(trials, 1)).to_json();

    for &threads in &[1usize, 4] {
        // The uninterrupted service run at this thread count must already
        // match the plain-engine reference.
        assert_eq!(
            reference,
            complete_json(run_campaign_service(
                &spec,
                &cfg(trials, threads),
                &ServiceConfig::default(),
            )),
            "threads={threads}: uninterrupted service run diverged"
        );

        for kill in 1..total {
            let dir = scratch(&format!("kill-{threads}-{kill}"));
            let killed = run_campaign_service(
                &spec,
                &cfg(trials, threads),
                &service(&dir, false, Some(kill)),
            )
            .expect("killed leg failed");
            match killed {
                ServiceRun::Killed { simulated_trials } => assert!(
                    simulated_trials >= kill,
                    "kill hook fired early: {simulated_trials} < {kill}"
                ),
                ServiceRun::Complete { .. } => panic!("kill at {kill} of {total} did not fire"),
            }

            // Resume under the *other* thread count: checkpoints must
            // not bake in any scheduling detail.
            let other = if threads == 1 { 4 } else { 1 };
            let resumed = complete_json(run_campaign_service(
                &spec,
                &cfg(trials, other),
                &service(&dir, true, None),
            ));
            assert_eq!(
                reference, resumed,
                "threads={threads}->{other} kill={kill}: resumed artifact diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A resumed run that is itself killed leaves checkpoints a second
/// resume completes from — multi-generation checkpoints are
/// indistinguishable from first-generation ones.
#[test]
fn chained_kills_converge_to_the_same_bytes() {
    let spec = spec();
    let trials = 4u64;
    let reference = run_campaign(&spec, &cfg(trials, 2)).to_json();
    let dir = scratch("chain");

    // `kill_after_trials` counts trials simulated *in that leg*, and a
    // kill can lose up to `checkpoint_every - 1` trials per cell past
    // the last boundary — keep each leg's kill below the work remaining.
    for (leg, kill) in [(0u32, Some(3)), (1, Some(4)), (2, Some(2))] {
        let run = run_campaign_service(&spec, &cfg(trials, 2), &service(&dir, leg > 0, kill))
            .expect("chained leg failed");
        assert!(
            matches!(run, ServiceRun::Killed { .. }),
            "leg {leg} should have been killed"
        );
    }
    let final_json = complete_json(run_campaign_service(
        &spec,
        &cfg(trials, 2),
        &service(&dir, true, None),
    ));
    assert_eq!(
        reference, final_json,
        "triple-killed run diverged on final resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Growing `--trials` on a checkpointed state directory runs only the
/// new replicates and matches a fresh run at the larger count.
#[test]
fn incremental_trials_extend_checkpoints_in_place() {
    let spec = spec();
    let dir = scratch("grow");
    let cells = spec.cells.len() as u64;

    // Complete a 3-trial campaign with checkpointing on.
    let first = run_campaign_service(&spec, &cfg(3, 2), &service(&dir, false, None))
        .expect("seed run failed");
    assert!(matches!(first, ServiceRun::Complete { .. }));

    // Grow to 5 trials: exactly 2 more per cell are simulated.
    let grown = run_campaign_service(&spec, &cfg(5, 2), &service(&dir, true, None))
        .expect("grow run failed");
    let ServiceRun::Complete {
        report,
        resumed_trials,
        simulated_trials,
        ..
    } = grown
    else {
        panic!("grow run was killed")
    };
    assert_eq!(resumed_trials, cells * 3);
    assert_eq!(simulated_trials, cells * 2);
    assert_eq!(
        report.to_json(),
        run_campaign(&spec, &cfg(5, 1)).to_json(),
        "incrementally grown artifact diverged from a fresh 5-trial run"
    );

    // Shrinking is refused with checkpoint-file context, not silently
    // truncated.
    let err = run_campaign_service(&spec, &cfg(2, 2), &service(&dir, true, None))
        .expect_err("shrinking trials must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("never shrink") && msg.contains("cell-0000.ckpt.json"),
        "unexpected shrink error: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt checkpoints are detected (checksum), reported with
/// `file: message` context, and never panic or silently recompute.
#[test]
fn corrupt_and_truncated_checkpoints_are_rejected_with_context() {
    let spec = spec();
    let dir = scratch("corrupt");
    run_campaign_service(&spec, &cfg(3, 2), &service(&dir, false, None)).expect("seed run failed");
    let path = checkpoint_path(&dir, 0);
    let pristine = std::fs::read_to_string(&path).expect("checkpoint exists");

    // Truncation: not even valid JSON.
    std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
    let err = run_campaign_service(&spec, &cfg(3, 2), &service(&dir, true, None))
        .expect_err("truncated checkpoint must fail");
    assert!(
        err.to_string().starts_with(&path.display().to_string()),
        "error lacks file context: {err}"
    );

    // Bit flip inside the serialized state: valid JSON, bad checksum.
    let tampered = pristine.replace("\"trials_done\": 3", "\"trials_done\": 2");
    assert_ne!(tampered, pristine, "fixture no longer matches the format");
    std::fs::write(&path, tampered).unwrap();
    let err = run_campaign_service(&spec, &cfg(3, 2), &service(&dir, true, None))
        .expect_err("tampered checkpoint must fail");
    let msg = err.to_string();
    assert!(
        msg.starts_with(&path.display().to_string()),
        "error lacks file context: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm store hits restore every cell bit-identically with zero
/// simulation work; a seed change is a clean miss.
#[test]
fn warm_store_does_zero_simulation_work() {
    let spec = spec();
    let store = scratch("store");
    let svc = ServiceConfig {
        store_dir: Some(store.clone()),
        ..Default::default()
    };
    let cold = run_campaign_service(&spec, &cfg(3, 2), &svc).expect("cold run failed");
    let ServiceRun::Complete {
        report: cold_report,
        simulated_trials: cold_sim,
        store_hits: cold_hits,
        ..
    } = cold
    else {
        panic!("cold run was killed")
    };
    assert_eq!(cold_hits, 0);
    assert_eq!(cold_sim, spec.cells.len() as u64 * 3);

    let warm = run_campaign_service(&spec, &cfg(3, 4), &svc).expect("warm run failed");
    let ServiceRun::Complete {
        report: warm_report,
        simulated_trials: warm_sim,
        store_hits: warm_hits,
        ..
    } = warm
    else {
        panic!("warm run was killed")
    };
    assert_eq!(warm_hits, spec.cells.len() as u64);
    assert_eq!(warm_sim, 0, "warm store re-run must simulate nothing");
    assert_eq!(
        cold_report.to_json(),
        warm_report.to_json(),
        "store round-trip is not bit-identical"
    );

    // Any seed change misses the store entirely.
    let mut other = cfg(3, 2);
    other.seed = 2020;
    let miss = run_campaign_service(&spec, &other, &svc).expect("miss run failed");
    let ServiceRun::Complete {
        store_hits: miss_hits,
        simulated_trials: miss_sim,
        ..
    } = miss
    else {
        panic!("miss run was killed")
    };
    assert_eq!(miss_hits, 0, "a different seed must not hit the store");
    assert_eq!(miss_sim, spec.cells.len() as u64 * 3);
    let _ = std::fs::remove_dir_all(&store);
}
