//! `rcb run --spec crates/campaign/scenarios/nemesis.toml` must reproduce
//! the built-in `nemesis` scenario byte for byte: the catalog entry is that
//! file, embedded at build time, so loading it from disk the way `--spec`
//! does gives the same campaign — name, description, timelines, survivor
//! metrics, telemetry counters, every deterministic leaf.

use rcb_campaign::{find, load_spec, run_campaign, CampaignConfig};

#[test]
fn example_spec_reproduces_the_builtin_nemesis_cells_leaf_for_leaf() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/nemesis.toml");
    let from_file = load_spec(path).expect("catalog spec parses");
    let builtin = find("nemesis").expect("nemesis is registered").spec();
    assert_eq!(from_file.name, builtin.name);
    assert_eq!(from_file.description, builtin.description);
    assert_eq!(
        from_file.cells.len(),
        builtin.cells.len(),
        "the file is the whole catalog entry"
    );

    let cfg = CampaignConfig {
        seed: 42,
        trials_per_cell: 2,
        threads: 2,
        max_slots: Some(200_000),
        ..Default::default()
    };
    let a = run_campaign(&from_file, &cfg);
    let b = run_campaign(&builtin, &cfg);
    for (i, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
        assert_eq!(ca, cb, "cell {i} diverged between spec file and catalog");
    }
    let json = a.to_json();
    assert_eq!(json, b.to_json(), "whole artifacts differ");

    // The schedules actually materialized: every cell carries a schedule
    // block and the artifact exposes the v4 markers CI greps for.
    assert!(a.cells.iter().all(|c| c.schedule.is_some()));
    assert!(json.contains("\"schema_version\": 5"));
    assert!(json.contains("\"timeline\""));
    assert!(json.contains("\"survivors\""));
}
