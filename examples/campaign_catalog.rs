//! Campaign catalog: drive a registered scenario end-to-end from code.
//!
//! The scenario registry (`rcb::campaign`) is the declarative face of the
//! Monte-Carlo machinery: pick a named scenario, choose a seed and a trial
//! count, and the campaign engine fans the trials out across cores,
//! aggregates them streamingly, and hands back a schema-versioned report —
//! the same artifact `rcb run <scenario>` writes as `BENCH_<scenario>.json`.
//!
//! ```text
//! cargo run --release --example campaign_catalog
//! ```

use rcb::campaign::{find, registry, run_campaign, CampaignConfig};

fn main() {
    println!("rcb scenario catalog ({} entries):\n", registry().len());
    for s in registry() {
        println!("  {:<18} {}", s.name, s.summary);
    }

    // Run the baseline race: naive epidemic vs Decay vs MultiCast vs the
    // single-channel comparator, all jam-free.
    let scenario = find("epidemic-race").expect("registered");
    let spec = scenario.spec();
    println!(
        "\nrunning `{}` — {} cells x 20 trials …\n",
        spec.name,
        spec.cells.len()
    );

    let report = run_campaign(
        &spec,
        &CampaignConfig {
            seed: 42,
            trials_per_cell: 20,
            threads: 0, // one worker per core
            ..Default::default()
        },
    );

    println!("{}", report.to_table());

    // The report is plain data — downstream tooling reads the JSON artifact.
    let json = report.to_json();
    println!(
        "artifact: {} bytes of schema-versioned JSON (rcb run {} --out BENCH_{}.json)",
        json.len(),
        spec.name,
        spec.name
    );

    // Determinism: the same seed reproduces the same artifact bit-for-bit,
    // regardless of thread count — rerun with threads: 1 and compare.
    let serial = run_campaign(
        &spec,
        &CampaignConfig {
            seed: 42,
            trials_per_cell: 20,
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(
        json,
        serial.to_json(),
        "campaigns are thread-count invariant"
    );
    println!("verified: parallel and serial runs produced byte-identical artifacts");

    // The newest catalog entry: multi-message broadcast. The k ladder shows
    // completion time growing with the payload count, the last cells show
    // the same protocol jammed and relayed across a grid — all through the
    // same unified Simulation core.
    let scenario = find("multi-message").expect("registered");
    let spec = scenario.spec();
    println!(
        "\nrunning `{}` — {} cells x 5 trials …\n",
        spec.name,
        spec.cells.len()
    );
    let report = run_campaign(
        &spec,
        &CampaignConfig {
            seed: 42,
            trials_per_cell: 5,
            threads: 0,
            ..Default::default()
        },
    );
    println!("{}", report.to_table());
}
