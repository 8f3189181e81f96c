// Content hash of the sources a campaign result depends on: the build
// script pulls this file in with `include!` to stamp `code_version`, and
// the crate compiles it as a test-only module so its unit tests run. It
// must stay plain items with fully qualified paths (no inner attributes,
// no `use`), since it is compiled in both places.

/// The source directories a campaign result depends on, relative to the
/// workspace's `crates/` directory.
pub const SOURCE_DIRS: [&str; 7] = [
    "adversary/src",
    "campaign/scenarios",
    "campaign/src",
    "core/src",
    "harness/src",
    "radio-sim/src",
    "stats/src",
];

/// FNV-1a (64-bit) over `(relative path, bytes)` pairs taken in path
/// order, so the listing order does not matter. Each file feeds its path,
/// a zero byte, its length as 8 little-endian bytes and then its bytes, so
/// a rename changes the input, and no file's bytes can pass for a file
/// boundary.
pub fn source_hash(files: &[(String, Vec<u8>)]) -> u64 {
    let mut sorted: Vec<&(String, Vec<u8>)> = files.iter().collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (path, bytes) in sorted {
        feed(path.as_bytes());
        feed(&[0]);
        feed(&(bytes.len() as u64).to_le_bytes());
        feed(bytes);
    }
    h
}

/// Every `.rs` and `.toml` file under `root/<dir>` for each of `dirs`
/// (recursively), with its `/`-separated path relative to `root` and its
/// bytes.
pub fn collect_sources(
    root: &std::path::Path,
    dirs: &[&str],
) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    let mut pending: Vec<String> = dirs.iter().map(|d| d.to_string()).collect();
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(root.join(&dir))? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = format!("{dir}/{name}");
            if entry.file_type()?.is_dir() {
                pending.push(rel);
            } else if name.ends_with(".rs") || name.ends_with(".toml") {
                files.push((rel, std::fs::read(entry.path())?));
            }
        }
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Vec<(String, Vec<u8>)> {
        [
            ("core/src/lib.rs", "pub mod a;\n"),
            ("core/src/a.rs", "pub fn f() -> u32 { 1 }\n"),
            ("campaign/scenarios/x.toml", "[[cell]]\nn = 16\n"),
        ]
        .iter()
        .map(|(p, b)| (p.to_string(), b.as_bytes().to_vec()))
        .collect()
    }

    #[test]
    fn same_tree_same_hash_in_any_listing_order() {
        let files = tree();
        let want = source_hash(&files);
        let mut reversed = files.clone();
        reversed.reverse();
        assert_eq!(source_hash(&reversed), want);
        let mut rotated = files;
        rotated.rotate_left(1);
        assert_eq!(source_hash(&rotated), want);
    }

    #[test]
    fn an_edit_an_added_file_or_a_rename_changes_the_hash() {
        let base = source_hash(&tree());
        let mut edited = tree();
        edited[1].1[20] = b'2'; // `{ 1 }` becomes `{ 2 }`
        assert_ne!(source_hash(&edited), base, "one-byte edit");
        let mut added = tree();
        added.push(("core/src/b.rs".into(), Vec::new()));
        assert_ne!(source_hash(&added), base, "added empty file");
        let mut renamed = tree();
        renamed[1].0 = "core/src/b.rs".into();
        assert_ne!(source_hash(&renamed), base, "rename");
        // Without the length, one file whose bytes spell out the next
        // file's path and bytes would feed the same stream as two files.
        let two = [("a.rs".into(), Vec::new()), ("b.rs".into(), b"x".to_vec())];
        let one = [("a.rs".into(), b"b.rs\0x".to_vec())];
        assert_ne!(source_hash(&two), source_hash(&one), "file boundary");
    }

    #[test]
    fn the_workspace_sources_are_collected() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let files = collect_sources(&crates, &SOURCE_DIRS).expect("read the crate sources");
        let has = |p: &str| files.iter().any(|(rel, _)| rel == p);
        assert!(has("radio-sim/src/sampler.rs"));
        assert!(has("campaign/src/source_hash.rs"));
        assert!(has("campaign/scenarios/core-repro.toml"));
        assert!(files
            .iter()
            .all(|(rel, _)| rel.ends_with(".rs") || rel.ends_with(".toml")));
        let again = collect_sources(&crates, &SOURCE_DIRS).expect("read the crate sources");
        assert_eq!(source_hash(&again), source_hash(&files));
    }
}
