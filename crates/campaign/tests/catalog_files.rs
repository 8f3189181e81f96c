//! The scenario catalog is data: each entry is `scenarios/<name>.toml`,
//! embedded at build time. These tests read the files from disk the way
//! `rcb run --spec` does.

use rcb_campaign::{find, load_spec, registry};
use rcb_harness::TopologyKind;

fn path_of(name: &str) -> String {
    format!("{}/scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"))
}

/// Every entry's file parses (a failure reports the loader's `file:line`
/// error) and declares the entry's name, and every file is an entry.
#[test]
fn every_catalog_file_parses_under_its_entry_name() {
    for s in registry() {
        let spec = load_spec(&path_of(s.name)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(spec.name, s.name, "{}", path_of(s.name));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    for file in std::fs::read_dir(dir).expect("scenarios directory") {
        let path = file.expect("directory entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert!(
            find(stem).is_some(),
            "{} is in no catalog entry",
            path.display()
        );
    }
}

/// `rcb run --spec crates/campaign/scenarios/NAME.toml` loads the same
/// campaign as `rcb run NAME`, floats and cell order included.
#[test]
fn catalog_files_on_disk_equal_the_embedded_specs() {
    for s in registry() {
        let on_disk = load_spec(&path_of(s.name)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            format!("{on_disk:?}"),
            format!("{:?}", s.spec()),
            "{}",
            s.name
        );
    }
}

/// The multi-hop file spells out the radius its cells need: the
/// connectivity-safe radius for n = 64.
#[test]
fn multi_hop_radius_is_the_connectivity_radius_for_64_nodes() {
    let want = rcb_sim::Topology::connectivity_radius(64);
    let spec = find("multi-hop").expect("registered").spec();
    let radii: Vec<f64> = spec
        .cells
        .iter()
        .filter_map(|c| match &c.topology {
            TopologyKind::RandomGeometric { radius } => Some(*radius),
            TopologyKind::Dynamic { base, .. } => match **base {
                TopologyKind::RandomGeometric { radius } => Some(radius),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert_eq!(radii.len(), 2, "geometric and dynamic cells");
    for r in radii {
        assert_eq!(r.to_bits(), want.to_bits(), "{r} != {want}");
    }
}
