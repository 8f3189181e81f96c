//! Cross-cutting guarantees of the campaign subsystem, exercised through
//! the public API exactly as the `rcb` binary uses it:
//!
//! 1. the JSON artifact is byte-identical across thread counts,
//! 2. streaming aggregation agrees with exact batch statistics,
//! 3. every registered scenario can actually run end to end,
//! 4. telemetry collection (`--perf`) and trace export (`--trace-out`)
//!    never change a deterministic leaf of the artifact.

use rcb_campaign::{
    diff, find, jsonin, registry, run_campaign, run_campaign_traced, CampaignConfig, CampaignSpec,
    CellSpec, DEFAULT_IGNORES,
};
use rcb_harness::{cell_trial_seed, run_trial, AdversaryKind, ProtocolKind, TrialSpec};

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        name: "itest".into(),
        description: "integration test campaign".into(),
        cells: vec![
            CellSpec::new(
                ProtocolKind::Naive {
                    n: 32,
                    act_prob: 1.0,
                },
                AdversaryKind::Silent,
            )
            .with_max_slots(100_000),
            CellSpec::new(
                ProtocolKind::MultiCast {
                    n: 16,
                    params: Default::default(),
                },
                AdversaryKind::Uniform {
                    t: 2_000,
                    frac: 0.5,
                },
            )
            .with_max_slots(1_000_000),
        ],
    }
}

/// Same seed ⇒ byte-identical artifact at 1, 2, and 5 threads (the
/// headline determinism guarantee of the engine).
#[test]
fn artifact_is_byte_identical_across_thread_counts() {
    let spec = small_spec();
    let json_at = |threads: usize| {
        run_campaign(
            &spec,
            &CampaignConfig {
                seed: 1234,
                trials_per_cell: 12,
                threads,
                ..Default::default()
            },
        )
        .to_json()
    };
    let reference = json_at(1);
    assert!(reference.contains("\"schema_version\": 5"));
    assert_eq!(reference, json_at(2));
    assert_eq!(reference, json_at(5));
}

/// Turning wall-clock telemetry on (`rcb run --perf`) may only change the
/// host-dependent leaves `rcb diff` ignores by default — every
/// deterministic leaf, including the perf counters, must stay bit-equal.
#[test]
fn telemetry_changes_only_default_ignored_leaves() {
    let spec = small_spec();
    let json_with = |telemetry: bool| {
        run_campaign(
            &spec,
            &CampaignConfig {
                seed: 99,
                trials_per_cell: 4,
                threads: 2,
                telemetry,
                ..Default::default()
            },
        )
        .to_json()
    };
    let (off, on) = (json_with(false), json_with(true));
    let ignores: Vec<String> = DEFAULT_IGNORES.iter().map(|k| k.to_string()).collect();
    let a = jsonin::parse(&off).unwrap();
    let b = jsonin::parse(&on).unwrap();
    let out = diff(&a, &b, &ignores).expect("artifacts comparable");
    assert!(
        out.rows.is_empty(),
        "telemetry must not move deterministic leaves: {:?}",
        out.rows.iter().map(|r| &r.path).collect::<Vec<_>>()
    );
    assert!(out.ignored > 0, "wall leaves were actually present");
    // And with timing off, the artifact is bit-identical to the default —
    // the wall leaves are hard zeros, not small timings.
    assert_eq!(
        off,
        run_campaign(
            &spec,
            &CampaignConfig {
                seed: 99,
                trials_per_cell: 4,
                threads: 5,
                ..Default::default()
            },
        )
        .to_json()
    );
}

/// The traced sequential path (`rcb run --trace-out`) produces exactly the
/// parallel engine's artifact, and the trace itself is deterministic and
/// schema-tagged.
#[test]
fn traced_run_matches_parallel_run_and_trace_is_deterministic() {
    let spec = small_spec();
    let cfg = CampaignConfig {
        seed: 31,
        trials_per_cell: 3,
        threads: 4,
        ..Default::default()
    };
    let parallel = run_campaign(&spec, &cfg).to_json();
    let mut trace_a: Vec<u8> = Vec::new();
    let traced = run_campaign_traced(&spec, &cfg, &mut trace_a)
        .expect("vec sink cannot fail")
        .to_json();
    assert_eq!(parallel, traced, "observers cannot influence a run");

    let mut trace_b: Vec<u8> = Vec::new();
    run_campaign_traced(&spec, &cfg, &mut trace_b).unwrap();
    assert_eq!(trace_a, trace_b, "trace files are byte-deterministic");

    let text = String::from_utf8(trace_a).unwrap();
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"kind\":\"rcb-trace\""));
    assert!(header.contains("\"schema_version\":1"));
    // Every line parses as JSON; trial_start/trial_end pair up per trial.
    let mut starts = 0u64;
    let mut ends = 0u64;
    for line in text.lines() {
        let parsed = jsonin::parse(line).expect("every trace line is JSON");
        drop(parsed);
        if line.contains("\"event\":\"trial_start\"") {
            starts += 1;
        }
        if line.contains("\"event\":\"trial_end\"") {
            ends += 1;
        }
    }
    let total = spec.cells.len() as u64 * cfg.trials_per_cell;
    assert_eq!(starts, total);
    assert_eq!(ends, total);
}

/// The streaming aggregates in the report equal exact batch statistics
/// computed from the same trials run individually through the harness.
#[test]
fn streaming_aggregation_matches_exact_batch() {
    let spec = small_spec();
    let seed = 777u64;
    let trials = 9u64;
    let report = run_campaign(
        &spec,
        &CampaignConfig {
            seed,
            trials_per_cell: trials,
            threads: 3,
            ..Default::default()
        },
    );

    for (ci, cell_spec) in spec.cells.iter().enumerate() {
        // Re-run the exact trials the engine derives for this cell.
        let results: Vec<_> = (0..trials)
            .map(|t| {
                run_trial(
                    &TrialSpec::new(
                        cell_spec.protocol.clone(),
                        cell_spec.adversary.clone(),
                        cell_trial_seed(seed, ci as u64, t),
                    )
                    .with_max_slots(cell_spec.max_slots),
                )
            })
            .collect();
        let times: Vec<f64> = results.iter().map(|r| r.completion_time() as f64).collect();
        let exact_mean = times.iter().sum::<f64>() / times.len() as f64;
        let exact_min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let exact_max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        let cell = &report.cells[ci];
        assert_eq!(cell.trials, trials);
        assert_eq!(cell.completion_slots.count, trials);
        assert!(
            (cell.completion_slots.mean - exact_mean).abs() < 1e-9,
            "cell {ci}: streaming mean {} vs exact {exact_mean}",
            cell.completion_slots.mean
        );
        assert_eq!(cell.completion_slots.min, exact_min, "cell {ci} min");
        assert_eq!(cell.completion_slots.max, exact_max, "cell {ci} max");
        // Sketch quantiles carry a 1% relative-error guarantee.
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact_p50 = sorted[(0.5 * (sorted.len() - 1) as f64).round() as usize];
        let rel = (cell.completion_slots.p50 - exact_p50).abs() / exact_p50;
        assert!(rel <= 0.0101, "cell {ci}: p50 rel error {rel}");
        // Exact counters must match too.
        let exact_completed = results.iter().filter(|r| r.completed).count() as u64;
        assert_eq!(cell.completed, exact_completed);
        assert_eq!(cell.safety_violations, 0);
    }
}

/// Every catalog entry expands and survives a 2-trial micro-campaign
/// end-to-end (the same path `rcb run <scenario> --trials 2` takes), with
/// a slot cap so a regression cannot hang CI.
#[test]
fn every_registered_scenario_runs() {
    assert!(registry().len() >= 8);
    for s in registry() {
        let spec = s.spec();
        let report = run_campaign(
            &spec,
            &CampaignConfig {
                seed: 5,
                trials_per_cell: 2,
                threads: 0,
                max_slots: Some(2_000_000),
                ..Default::default()
            },
        );
        assert_eq!(report.cells.len(), spec.cells.len(), "{}", s.name);
        for cell in &report.cells {
            assert_eq!(cell.trials, 2, "{}: cell ran wrong trial count", s.name);
            assert_eq!(
                cell.safety_violations, 0,
                "{}: safety violation in {} vs {}",
                s.name, cell.protocol, cell.adversary
            );
        }
        let json = report.to_json();
        assert!(json.contains(&format!("\"campaign\": \"{}\"", s.name)));
    }
}

/// `find` resolves exactly the registered names.
#[test]
fn catalog_lookup() {
    for s in registry() {
        assert!(find(s.name).is_some());
    }
    assert!(find("bogus").is_none());
}
