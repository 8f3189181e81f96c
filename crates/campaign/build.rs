//! Stamp the campaign sources into the binary as `RCB_CODE_VERSION`, so
//! every campaign/bench artifact and every store key names the code that
//! produced it.
//!
//! The stamp is `<git12|unknown>+<hash>`: the hash is FNV-1a over the
//! relative paths and bytes of every `.rs` and `.toml` file a result
//! depends on (`source_hash.rs`, shared with the crate's unit tests), so
//! an edit, committed or not, always changes it. The git revision is only
//! a label (`unknown` without git, e.g. in an exported tarball): the
//! script reruns when a watched source directory changes, not when HEAD
//! moves, so after a commit that touches none of them the label may name
//! an older commit while the hash still names the code.

use std::path::Path;
use std::process::Command;

include!("src/source_hash.rs");

fn main() {
    let crates = Path::new("..");
    for dir in SOURCE_DIRS {
        println!("cargo:rerun-if-changed=../{dir}");
    }
    let files = collect_sources(crates, &SOURCE_DIRS).expect("read the campaign's source tree");
    let git = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!(
        "cargo:rustc-env=RCB_CODE_VERSION={git}+{:016x}",
        source_hash(&files)
    );
}
