//! Content-addressed cell result store (`.rcb-store/`).
//!
//! Every completed campaign cell can be filed under a **content key**: a
//! 128-bit FNV-1a hash over everything that determines the cell's
//! deterministic artifact bytes — artifact schema version, build stamp,
//! campaign name and master seed, the cell's index (its seed stream), the
//! full parameter renderings of protocol/adversary/topology/schedule, the
//! effective slot cap, and the trial count. `rcb run --store DIR` consults
//! the store per cell before simulating and inserts every cell it computes,
//! so re-running an unchanged scenario does **zero** simulation work and
//! still emits a byte-identical artifact; any parameter change misses the
//! store and re-simulates.
//!
//! An entry is the cell's exact accumulator state at `trials` (the same
//! bit-exact codec checkpoints use — see [`crate::checkpoint`]) with the
//! wall-clock phase counters zeroed: wall time is host noise, excluded
//! from the byte-identity contract (`rcb diff`'s default ignores), so
//! entries stay content-pure. Writes are atomic (temp + rename) and loads
//! are checksum-validated, exactly like checkpoints.
//!
//! ## Keys vs. checkpoint keys
//!
//! [`store_key`] includes the trial count — a store hit must cover the
//! whole cell. [`checkpoint_key`] is the same identity **without** the
//! trial count: a checkpoint is valid to resume at any requested trial
//! count at or above its watermark, because the per-cell seed streams
//! (`cell_trial_seed`) do not depend on trials-per-cell.
//!
//! ## GC policy
//!
//! `rcb store gc` keeps exactly the entries the **current catalog can
//! regenerate**: the entry's campaign exists in the registry and hashing
//! the catalog's current cell spec at the entry's recorded seed, trial
//! count, and slot cap reproduces the entry's key. Everything else —
//! entries from renamed/removed scenarios, changed cell parameters, older
//! build stamps, or ad-hoc `--spec` files — is garbage and is removed. An
//! entry the catalog still references is therefore never collected, no
//! matter its age.

use crate::checkpoint::{
    checkpoint_from_json, checkpoint_to_json, fnv1a64, write_atomic, CellCheckpoint, ServiceError,
    FNV_BASIS,
};
use crate::engine::CellAccumulator;
use crate::json::Json;
use crate::jsonin;
use crate::report::{code_version, SCHEMA_VERSION};
use crate::scenario::{find, CellSpec};
use rcb_sim::PhaseNanos;
use std::path::{Path, PathBuf};

/// Version of the store entry schema (independent of the campaign
/// artifact's; entries embed the checkpoint state codec, so this tracks
/// [`crate::checkpoint::CHECKPOINT_SCHEMA_VERSION`]). History:
///
/// * **1** — initial format: a checkpoint document of kind
///   `rcb-store-entry` plus an advisory `meta` block for listing and gc.
pub const STORE_SCHEMA_VERSION: u64 = 1;

/// Default store directory, relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = ".rcb-store";

/// Second FNV-1a offset basis (the standard basis with its halves swapped)
/// — a second independent 64-bit pass gives the 128-bit content key.
const FNV_BASIS_ALT: u64 = 0x8422_2325_cbf2_9ce4;

/// Canonical identity string of one campaign cell — everything its
/// deterministic artifact bytes depend on, **except** the trial count.
/// `{:?}` renderings carry every parameter of the kinds, including tuning
/// fields their `name()`/`detail()` summaries omit.
fn cell_identity(
    campaign: &str,
    seed: u64,
    cell_index: u64,
    cell: &CellSpec,
    max_slots: u64,
) -> String {
    format!(
        "schema={}|code={}|campaign={campaign}|seed={seed}|cell={cell_index}|max_slots={max_slots}\
         |protocol={:?}|adversary={:?}|topology={:?}|schedule={:?}",
        SCHEMA_VERSION,
        code_version(),
        cell.protocol,
        cell.adversary,
        cell.topology,
        cell.schedule,
    )
}

/// 32-hex-digit content hash: two independent FNV-1a 64-bit passes.
pub(crate) fn hash128(identity: &str) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a64(identity.as_bytes(), FNV_BASIS),
        fnv1a64(identity.as_bytes(), FNV_BASIS_ALT)
    )
}

/// Watermark-independent cell identity key: what a checkpoint must match
/// to be resumed into this cell (any trial count ≥ its watermark).
pub fn checkpoint_key(
    campaign: &str,
    seed: u64,
    cell_index: u64,
    cell: &CellSpec,
    max_slots: u64,
) -> String {
    hash128(&cell_identity(campaign, seed, cell_index, cell, max_slots))
}

/// Full content key of a completed cell at exactly `trials` trials.
pub fn store_key(
    campaign: &str,
    seed: u64,
    cell_index: u64,
    cell: &CellSpec,
    max_slots: u64,
    trials: u64,
) -> String {
    hash128(&format!(
        "{}|trials={trials}",
        cell_identity(campaign, seed, cell_index, cell, max_slots)
    ))
}

/// One store entry's advisory metadata (the `meta` block): enough to list
/// the store and to decide gc liveness without the heavy state payload.
#[derive(Clone, Debug)]
pub struct EntrySummary {
    /// Full 32-hex content key (also the file stem).
    pub key: String,
    pub campaign: String,
    pub cell_index: u64,
    pub seed: u64,
    pub trials: u64,
    /// Effective slot cap the cell ran under.
    pub max_slots: u64,
    /// Human-readable cell description (`protocol/adversary` names).
    pub cell: String,
}

/// Parsed advisory `meta` block of one entry.
struct EntryMeta {
    max_slots: u64,
    cell: String,
    /// Build stamp recorded at insert time; absent in entries written
    /// before the stamp joined the meta block.
    code_version: Option<String>,
}

/// One row of `rcb store trend`: the same logical cell observed under one
/// build of the code.
#[derive(Clone, Debug)]
pub struct TrendRow {
    /// Full content key of the entry.
    pub key: String,
    /// Build stamp that produced the entry (`?` for entries predating the
    /// stamp in the meta block).
    pub code_version: String,
    /// Entry file modification time (ms since epoch) — the trend's time
    /// axis, since content keys carry no chronology.
    pub mtime_ms: u64,
    /// The requested leaf, rendered from the entry's state under the
    /// current catalog's cell spec. `None` when the leaf is absent from
    /// this entry's report (metric-schema drift between builds).
    pub value: Option<Json>,
}

/// Handle on a store directory. Creating the handle does not touch the
/// filesystem; the directory is created on first insert.
pub struct Store {
    dir: PathBuf,
}

impl Store {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Load and validate one entry by full key. `Ok(None)` when absent.
    fn load(&self, key: &str) -> Result<Option<CellCheckpoint>, ServiceError> {
        let path = self.path_for(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServiceError::at(&path, e.to_string())),
        };
        let v = jsonin::parse(&text).map_err(|e| ServiceError::at(&path, e))?;
        let ckpt =
            checkpoint_from_json(&v, "rcb-store-entry").map_err(|e| ServiceError::at(&path, e))?;
        if ckpt.key != key {
            return Err(ServiceError::at(
                &path,
                format!("entry key {} does not match its file name", ckpt.key),
            ));
        }
        Ok(Some(ckpt))
    }

    /// Look up the completed-cell state for exactly this cell configuration
    /// and trial count. A hit returns the bit-exact accumulator an
    /// uninterrupted run of the cell would have produced (phase clocks
    /// zeroed); any parameter difference is a clean miss.
    pub(crate) fn lookup_cell(
        &self,
        campaign: &str,
        seed: u64,
        cell_index: u64,
        cell: &CellSpec,
        max_slots: u64,
        trials: u64,
    ) -> Result<Option<CellAccumulator>, ServiceError> {
        let key = store_key(campaign, seed, cell_index, cell, max_slots, trials);
        Ok(self.load(&key)?.map(|ckpt| ckpt.state))
    }

    /// Insert a completed cell's state under its content key (atomically;
    /// re-inserting the same key just rewrites identical bytes). Returns
    /// the key. Wall-clock phase counters are zeroed on the way in — they
    /// are host noise, not content.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_cell(
        &self,
        campaign: &str,
        seed: u64,
        cell_index: u64,
        cell: &CellSpec,
        max_slots: u64,
        trials: u64,
        state: &CellAccumulator,
    ) -> Result<String, ServiceError> {
        let key = store_key(campaign, seed, cell_index, cell, max_slots, trials);
        let mut state = state.clone();
        state.telemetry.phases = PhaseNanos::default();
        let ckpt = CellCheckpoint {
            key: key.clone(),
            campaign: campaign.to_string(),
            cell_index,
            seed,
            trials_done: trials,
            state,
        };
        let mut doc = checkpoint_to_json(&ckpt, "rcb-store-entry");
        if let Json::Object(fields) = &mut doc {
            fields.push((
                "meta".to_string(),
                Json::obj(vec![
                    ("store_schema_version", STORE_SCHEMA_VERSION.into()),
                    ("trials", trials.into()),
                    ("max_slots", max_slots.into()),
                    (
                        "cell",
                        format!("{}/{}", cell.protocol.name(), cell.adversary.name())
                            .as_str()
                            .into(),
                    ),
                    // Advisory: which build produced the entry. The build
                    // stamp is already baked into the key; recording it in
                    // clear text is what lets `rcb store trend` label its
                    // rows without reversing hashes.
                    ("code_version", code_version().into()),
                ]),
            ));
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| ServiceError::at(&self.dir, e.to_string()))?;
        write_atomic(&self.path_for(&key), &doc.to_pretty())?;
        Ok(key)
    }

    /// Every entry's summary, sorted by (campaign, cell index, key) for
    /// stable listings.
    pub fn list(&self) -> Result<Vec<EntrySummary>, ServiceError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(ServiceError::at(&self.dir, e.to_string())),
        };
        for entry in entries {
            let path = entry
                .map_err(|e| ServiceError::at(&self.dir, e.to_string()))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(key) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            // Shard planrefs live beside entries but are scheduler
            // registrations, not content (see `crate::shard`).
            if key.ends_with(".planref") {
                continue;
            }
            let ckpt = self.load(key)?.ok_or_else(|| {
                ServiceError::at(&path, "entry disappeared during listing".to_string())
            })?;
            let meta = self.entry_meta(key)?;
            out.push(EntrySummary {
                key: key.to_string(),
                campaign: ckpt.campaign,
                cell_index: ckpt.cell_index,
                seed: ckpt.seed,
                trials: ckpt.trials_done,
                max_slots: meta.as_ref().map(|m| m.max_slots).unwrap_or(0),
                cell: meta.map(|m| m.cell).unwrap_or_else(|| String::from("?")),
            });
        }
        out.sort_by(|a, b| {
            (&a.campaign, a.cell_index, &a.key).cmp(&(&b.campaign, b.cell_index, &b.key))
        });
        Ok(out)
    }

    /// The advisory meta block of an entry, if present and well-formed.
    fn entry_meta(&self, key: &str) -> Result<Option<EntryMeta>, ServiceError> {
        let path = self.path_for(key);
        let text =
            std::fs::read_to_string(&path).map_err(|e| ServiceError::at(&path, e.to_string()))?;
        let v = jsonin::parse(&text).map_err(|e| ServiceError::at(&path, e))?;
        let Json::Object(fields) = &v else {
            return Ok(None);
        };
        let Some((_, Json::Object(meta))) = fields.iter().find(|(k, _)| k == "meta") else {
            return Ok(None);
        };
        let get_u64 = |key: &str| {
            meta.iter().find_map(|(k, v)| match v {
                Json::Int(i) if k == key && *i >= 0 => Some(*i as u64),
                _ => None,
            })
        };
        let get_str = |key: &str| {
            meta.iter().find_map(|(k, v)| match v {
                Json::Str(s) if k == key => Some(s.clone()),
                _ => None,
            })
        };
        Ok(get_u64("max_slots")
            .zip(get_str("cell"))
            .map(|(max_slots, cell)| EntryMeta {
                max_slots,
                cell,
                // Entries written before the stamp was recorded have none.
                code_version: get_str("code_version"),
            }))
    }

    /// Resolve a (possibly abbreviated) key to the unique entry it
    /// prefixes. Zero or multiple matches are errors.
    pub fn resolve(&self, prefix: &str) -> Result<String, ServiceError> {
        let matches: Vec<String> = self
            .list()?
            .into_iter()
            .map(|e| e.key)
            .filter(|k| k.starts_with(prefix))
            .collect();
        match matches.len() {
            0 => Err(ServiceError::msg(format!(
                "no store entry matches key prefix `{prefix}` in {}",
                self.dir.display()
            ))),
            1 => Ok(matches.into_iter().next().expect("one match")),
            n => Err(ServiceError::msg(format!(
                "key prefix `{prefix}` is ambiguous ({n} matches); use more digits"
            ))),
        }
    }

    /// Render one entry as a standalone schema-versioned cell document
    /// (kind `rcb-store-cell`) — the form `rcb store show` prints and
    /// `rcb diff store:<key>` compares. The cell spec is resolved from the
    /// current catalog, so entries the catalog cannot regenerate (gc-dead
    /// ones) cannot be rendered.
    pub fn render_cell(&self, prefix: &str) -> Result<String, ServiceError> {
        let key = self.resolve(prefix)?;
        let ckpt = self.load(&key)?.expect("resolved keys exist");
        let scenario = find(&ckpt.campaign).ok_or_else(|| {
            ServiceError::msg(format!(
                "entry {key} belongs to campaign `{}`, which is not in the catalog; \
                 cannot resolve its cell spec to render the report",
                ckpt.campaign
            ))
        })?;
        let spec = scenario.spec();
        let cell = spec.cells.get(ckpt.cell_index as usize).ok_or_else(|| {
            ServiceError::msg(format!(
                "entry {key} names cell {} but `{}` has only {} cells",
                ckpt.cell_index,
                ckpt.campaign,
                spec.cells.len()
            ))
        })?;
        let max_slots = self
            .entry_meta(&key)?
            .ok_or_else(|| ServiceError::at(&self.path_for(&key), "entry has no meta block"))?
            .max_slots;
        let doc = Json::obj(vec![
            ("schema_version", SCHEMA_VERSION.into()),
            ("kind", "rcb-store-cell".into()),
            ("key", key.as_str().into()),
            ("campaign", ckpt.campaign.as_str().into()),
            ("cell_index", ckpt.cell_index.into()),
            ("seed", ckpt.seed.into()),
            ("trials", ckpt.trials_done.into()),
            ("cell", ckpt.state.report(cell, max_slots).to_json()),
        ]);
        Ok(doc.to_pretty())
    }

    /// Collect garbage: remove every entry the current catalog cannot
    /// regenerate (see the module docs for the policy). Returns
    /// `(kept, removed)` key lists.
    ///
    /// Lease-aware: entries referenced by an **unfinished shard plan**
    /// (registered via a `*.planref.json` file beside the entries — see
    /// [`crate::shard`]) are never collected, even when dead under the
    /// catalog policy; collecting them would steal warm cells out from
    /// under a running fleet. Planrefs whose plan is gone or complete are
    /// retired here, returning their keys to the normal policy.
    pub fn gc(&self) -> Result<(Vec<String>, Vec<String>), ServiceError> {
        let protected = crate::shard::protected_store_keys(&self.dir)?;
        let mut kept = Vec::new();
        let mut removed = Vec::new();
        for entry in self.list()? {
            if protected.contains(&entry.key) || self.is_live(&entry)? {
                kept.push(entry.key);
            } else {
                let path = self.path_for(&entry.key);
                std::fs::remove_file(&path).map_err(|e| ServiceError::at(&path, e.to_string()))?;
                removed.push(entry.key);
            }
        }
        Ok((kept, removed))
    }

    /// An entry is live iff hashing the current catalog's cell spec at the
    /// entry's recorded parameters reproduces its key.
    fn is_live(&self, entry: &EntrySummary) -> Result<bool, ServiceError> {
        let Some(scenario) = find(&entry.campaign) else {
            return Ok(false);
        };
        let spec = scenario.spec();
        let Some(cell) = spec.cells.get(entry.cell_index as usize) else {
            return Ok(false);
        };
        let Some(meta) = self.entry_meta(&entry.key)? else {
            return Ok(false);
        };
        Ok(store_key(
            &entry.campaign,
            entry.seed,
            entry.cell_index,
            cell,
            meta.max_slots,
            entry.trials,
        ) == entry.key)
    }

    /// Trend one report leaf across store history: every entry recording
    /// the **same logical cell** as the anchor (same campaign, cell index,
    /// seed, trial count, slot cap) under a *different build* has a
    /// different content key — the build stamp is part of the identity —
    /// so the store naturally accumulates one entry per code version the
    /// cell ran under. This renders each of them and extracts `leaf` (a
    /// dotted path into the cell report, e.g. `metrics[0].p50` or
    /// `perf.counters.slots_stepped`), giving the leaf's trajectory over
    /// `code_version`.
    ///
    /// Rows are ordered by entry file mtime (then key) — insertion order,
    /// oldest first. A row whose report lacks the leaf (metric-schema
    /// drift) carries `value: None` rather than failing the whole trend.
    ///
    /// # Errors
    /// Unresolvable anchor prefix, a campaign the catalog no longer has
    /// (the report rendering needs the current cell spec), or a leaf path
    /// absent even from the anchor's own report.
    pub fn trend(&self, prefix: &str, leaf: &str) -> Result<Vec<TrendRow>, ServiceError> {
        let anchor_key = self.resolve(prefix)?;
        let entries = self.list()?;
        let anchor = entries
            .iter()
            .find(|e| e.key == anchor_key)
            .expect("resolved keys are listed");
        let scenario = find(&anchor.campaign).ok_or_else(|| {
            ServiceError::msg(format!(
                "entry {anchor_key} belongs to campaign `{}`, which is not in the catalog; \
                 cannot resolve its cell spec to render reports",
                anchor.campaign
            ))
        })?;
        let spec = scenario.spec();
        let cell = spec.cells.get(anchor.cell_index as usize).ok_or_else(|| {
            ServiceError::msg(format!(
                "entry {anchor_key} names cell {} but `{}` has only {} cells",
                anchor.cell_index,
                anchor.campaign,
                spec.cells.len()
            ))
        })?;

        let mut rows = Vec::new();
        for entry in &entries {
            let same_cell = entry.campaign == anchor.campaign
                && entry.cell_index == anchor.cell_index
                && entry.seed == anchor.seed
                && entry.trials == anchor.trials
                && entry.max_slots == anchor.max_slots;
            if !same_cell {
                continue;
            }
            let ckpt = self.load(&entry.key)?.expect("listed keys exist");
            let meta = self.entry_meta(&entry.key)?.ok_or_else(|| {
                ServiceError::at(&self.path_for(&entry.key), "entry has no meta block")
            })?;
            let report = ckpt.state.report(cell, meta.max_slots).to_json();
            let value = report.at_path(leaf).cloned();
            if value.is_none() && entry.key == anchor_key {
                return Err(ServiceError::msg(format!(
                    "leaf `{leaf}` not found in the cell report of entry {anchor_key}; \
                     inspect the report shape with `rcb store show {}`",
                    &anchor_key[..8]
                )));
            }
            let path = self.path_for(&entry.key);
            let mtime_ms = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(std::time::SystemTime::UNIX_EPOCH).ok())
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            rows.push(TrendRow {
                key: entry.key.clone(),
                code_version: meta.code_version.unwrap_or_else(|| String::from("?")),
                mtime_ms,
                value,
            });
        }
        rows.sort_by(|a, b| (a.mtime_ms, &a.key).cmp(&(b.mtime_ms, &b.key)));
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;
    use rcb_harness::{AdversaryKind, ProtocolKind, ScheduleEventKind, ScheduleSpec, TopologyKind};

    fn base_cell() -> CellSpec {
        CellSpec::new(
            ProtocolKind::Naive {
                n: 16,
                act_prob: 1.0,
            },
            AdversaryKind::Uniform { t: 500, frac: 0.5 },
        )
        .with_max_slots(100_000)
    }

    fn base_key(cell: &CellSpec) -> String {
        store_key("camp", 7, 2, cell, 100_000, 50)
    }

    /// Satellite requirement: any change to protocol/adversary/topology/
    /// schedule params, trials, seed base, cell position, or slot cap
    /// changes the key.
    #[test]
    fn every_identity_component_moves_the_key() {
        let cell = base_cell();
        let reference = base_key(&cell);
        assert_eq!(reference.len(), 32, "two 64-bit hex halves");
        assert_eq!(reference, base_key(&cell), "keys are deterministic");

        let mut perturbed = Vec::new();
        // Protocol param (an internal tuning field detail() would omit).
        let mut c = base_cell();
        c.protocol = ProtocolKind::Naive {
            n: 16,
            act_prob: 0.99,
        };
        perturbed.push(("protocol param", base_key(&c)));
        // Adversary param.
        let mut c = base_cell();
        c.adversary = AdversaryKind::Uniform { t: 501, frac: 0.5 };
        perturbed.push(("adversary param", base_key(&c)));
        // Topology.
        let mut c = base_cell();
        c.topology = TopologyKind::Line;
        perturbed.push(("topology", base_key(&c)));
        // Schedule.
        let mut c = base_cell();
        c.schedule = ScheduleSpec::new().at(10, ScheduleEventKind::CrashNodes { nodes: vec![3] });
        perturbed.push(("schedule", base_key(&c)));
        // Trial count, seed base, cell position, slot cap, campaign name.
        let cell = base_cell();
        perturbed.push(("trials", store_key("camp", 7, 2, &cell, 100_000, 51)));
        perturbed.push(("seed", store_key("camp", 8, 2, &cell, 100_000, 50)));
        perturbed.push(("cell index", store_key("camp", 7, 3, &cell, 100_000, 50)));
        perturbed.push(("max_slots", store_key("camp", 7, 2, &cell, 100_001, 50)));
        perturbed.push(("campaign", store_key("pmac", 7, 2, &cell, 100_000, 50)));

        for (what, key) in &perturbed {
            assert_ne!(key, &reference, "{what} change must move the key");
        }
        // And all perturbations are mutually distinct (no accidental
        // collisions among these near-identical identities).
        let mut all: Vec<&String> = perturbed.iter().map(|(_, k)| k).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), perturbed.len());
    }

    /// The checkpoint key ignores the trial count but nothing else.
    #[test]
    fn checkpoint_key_is_watermark_independent() {
        let cell = base_cell();
        let k = checkpoint_key("camp", 7, 2, &cell, 100_000);
        assert_eq!(k, checkpoint_key("camp", 7, 2, &cell, 100_000));
        assert_ne!(k, checkpoint_key("camp", 8, 2, &cell, 100_000));
        assert_ne!(k, store_key("camp", 7, 2, &cell, 100_000, 50));
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("rcb-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::new(dir)
    }

    fn filled_state(trials: u64) -> CellAccumulator {
        let mut acc = CellAccumulator::new();
        for i in 0..trials {
            acc.trials += 1;
            acc.completed += 1;
            acc.completion_slots.push((i * 37 % 101) as f64);
            acc.max_cost.push(i as f64);
            acc.mean_cost.push(i as f64 * 0.5);
            acc.source_cost.push(1.0);
            acc.eve_spent.push(0.0);
            acc.crashed.push(0.0);
            acc.survivors.push(16.0);
            acc.survivors_informed.push(16.0);
        }
        acc.telemetry.slots_stepped = trials * 1000;
        acc.telemetry.phases.slot_loop = 5_000; // must be zeroed on insert
        acc
    }

    #[test]
    fn insert_then_lookup_round_trips_bit_identically() {
        let store = temp_store("roundtrip");
        let cell = base_cell();
        let state = filled_state(50);
        let key = store
            .insert_cell("camp", 7, 2, &cell, 100_000, 50, &state)
            .expect("insert");
        assert_eq!(key, base_key(&cell));
        let hit = store
            .lookup_cell("camp", 7, 2, &cell, 100_000, 50)
            .expect("lookup")
            .expect("hit");
        // Bit-identical modulo the zeroed phase clocks.
        let mut expect = state.clone();
        expect.telemetry.phases = PhaseNanos::default();
        assert_eq!(
            crate::checkpoint::state_to_json(&hit).to_compact(),
            crate::checkpoint::state_to_json(&expect).to_compact()
        );
        // A different trial count is a clean miss, not a partial hit.
        assert!(store
            .lookup_cell("camp", 7, 2, &cell, 100_000, 51)
            .expect("lookup")
            .is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn list_and_prefix_resolution() {
        let store = temp_store("list");
        let cell = base_cell();
        let key = store
            .insert_cell("camp", 7, 0, &cell, 100_000, 10, &filled_state(10))
            .expect("insert");
        let entries = store.list().expect("list");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, key);
        assert_eq!(entries[0].campaign, "camp");
        assert_eq!(entries[0].trials, 10);
        assert_eq!(entries[0].cell, "NaiveEpidemic/uniform");
        assert_eq!(store.resolve(&key[..8]).expect("prefix"), key);
        assert!(store.resolve("zzzz").is_err(), "no match is an error");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Satellite requirement: gc never removes an entry the current
    /// catalog references, and does remove entries it cannot regenerate.
    #[test]
    fn gc_keeps_catalog_entries_and_drops_orphans() {
        let store = temp_store("gc");
        // A live entry: a real catalog scenario, hashed from its current
        // cell spec.
        let scenario = &registry()[0];
        let spec = scenario.spec();
        let cell = &spec.cells[0];
        let live = store
            .insert_cell(&spec.name, 7, 0, cell, cell.max_slots, 5, &filled_state(5))
            .expect("insert live");
        // A dead entry: a campaign name no catalog scenario has.
        let dead = store
            .insert_cell(
                "no-such-scenario",
                7,
                0,
                &base_cell(),
                100_000,
                5,
                &filled_state(5),
            )
            .expect("insert dead");
        let (kept, removed) = store.gc().expect("gc");
        assert_eq!(kept, vec![live.clone()]);
        assert_eq!(removed, vec![dead]);
        assert!(
            store.load(&live).expect("load").is_some(),
            "live entry intact"
        );
        // gc is idempotent.
        let (kept2, removed2) = store.gc().expect("gc again");
        assert_eq!(kept2, vec![live]);
        assert!(removed2.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Satellite requirement: `rcb store trend` lines up entries of the
    /// same logical cell across build stamps, oldest first, labelled with
    /// the recorded `code_version` (`?` for pre-stamp entries).
    #[test]
    fn trend_follows_one_cell_across_code_versions() {
        let store = temp_store("trend");
        let scenario = &registry()[0];
        let spec = scenario.spec();
        let cell = &spec.cells[0];
        let state = filled_state(5);

        // Forge two entries as if written by older builds: same logical
        // cell, fake content keys, distinct (or missing) recorded stamps.
        // The checkpoint checksum binds the key, so each doc is rebuilt
        // around its fake key rather than copied.
        let forge = |key: &str, stamp: Option<&str>| {
            let mut state = state.clone();
            state.telemetry.phases = PhaseNanos::default();
            let ckpt = CellCheckpoint {
                key: key.to_string(),
                campaign: spec.name.clone(),
                cell_index: 0,
                seed: 7,
                trials_done: 5,
                state,
            };
            let mut doc = checkpoint_to_json(&ckpt, "rcb-store-entry");
            let mut meta = vec![
                ("store_schema_version", STORE_SCHEMA_VERSION.into()),
                ("trials", 5u64.into()),
                ("max_slots", cell.max_slots.into()),
                (
                    "cell",
                    format!("{}/{}", cell.protocol.name(), cell.adversary.name())
                        .as_str()
                        .into(),
                ),
            ];
            if let Some(stamp) = stamp {
                meta.push(("code_version", stamp.into()));
            }
            if let Json::Object(fields) = &mut doc {
                fields.push(("meta".to_string(), Json::obj(meta)));
            }
            std::fs::create_dir_all(store.dir()).unwrap();
            write_atomic(&store.path_for(key), &doc.to_pretty()).expect("forge");
            std::thread::sleep(std::time::Duration::from_millis(5)); // distinct mtimes
        };
        forge("00000000000000000000000000000001", None); // pre-stamp entry
        forge("00000000000000000000000000000002", Some("build-old"));
        let anchor = store
            .insert_cell(&spec.name, 7, 0, cell, cell.max_slots, 5, &state)
            .expect("insert current");
        // A same-campaign entry at a different seed stays out of the trend.
        store
            .insert_cell(&spec.name, 8, 0, cell, cell.max_slots, 5, &state)
            .expect("insert other seed");

        let rows = store
            .trend(&anchor[..8], "metrics.completion_slots.mean")
            .expect("trend");
        assert_eq!(rows.len(), 3, "three builds of the same logical cell");
        let stamps: Vec<&str> = rows.iter().map(|r| r.code_version.as_str()).collect();
        assert_eq!(stamps, vec!["?", "build-old", code_version()]);
        assert!(
            rows.windows(2).all(|w| w[0].mtime_ms <= w[1].mtime_ms),
            "oldest first"
        );
        // All three rows carry the leaf, rendered from identical state.
        for row in &rows {
            assert_eq!(row.value, rows[0].value, "same state, same leaf");
            assert!(matches!(row.value, Some(Json::Float(_))));
        }
        // Indexed path segments work (this fixture's report arrays are
        // empty, so exercise the walker against a literal value).
        let doc = Json::obj(vec![(
            "hist",
            Json::arr(vec![Json::obj(vec![("log2", 3u64.into())])]),
        )]);
        assert_eq!(doc.at_path("hist[0].log2"), Some(&Json::Int(3)));
        assert_eq!(doc.at_path("hist[1].log2"), None);
        // A bogus leaf names the probe command in its error.
        let err = store.trend(&anchor[..8], "no.such.leaf").expect_err("leaf");
        assert!(err.to_string().contains("rcb store show"), "{err}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Satellite requirement: gc never collects entries an unfinished
    /// shard plan references, and retires the planref (returning the keys
    /// to the normal policy) once the plan completes.
    #[test]
    fn gc_protects_unfinished_shard_plan_entries() {
        use crate::engine::CampaignConfig;
        use crate::scenario::CampaignSpec;
        use crate::shard::{shard_work, write_plan, PlanOptions, WorkerOptions};

        let store = temp_store("gc-planref");
        let state_dir = std::env::temp_dir().join(format!(
            "rcb-store-test-gc-planref-state-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        // A campaign the catalog does not know: its entries are dead under
        // the catalog policy, so only the planref can keep them alive.
        let spec = CampaignSpec {
            name: "no-such-scenario".into(),
            description: "gc planref fixture".into(),
            cells: vec![base_cell()],
        };
        let cfg = CampaignConfig {
            seed: 7,
            trials_per_cell: 3,
            threads: 1,
            ..Default::default()
        };
        write_plan(
            &spec,
            &cfg,
            &state_dir,
            &PlanOptions {
                store_dir: Some(store.dir().to_path_buf()),
                ..Default::default()
            },
        )
        .expect("plan");
        let key = store
            .insert_cell(
                "no-such-scenario",
                7,
                0,
                &base_cell(),
                100_000,
                3,
                &filled_state(3),
            )
            .expect("insert");
        // The planref sits beside the entries but is not an entry.
        let entries = store.list().expect("list skips planrefs");
        assert_eq!(entries.len(), 1);

        let (kept, removed) = store.gc().expect("gc");
        assert_eq!(
            kept,
            vec![key.clone()],
            "unfinished plan protects the entry"
        );
        assert!(removed.is_empty());

        // Finish the plan (the protected entry itself serves the cell as a
        // warm hit); the next gc retires the planref and the entry reverts
        // to the normal policy — dead, collected.
        shard_work(
            &spec,
            &state_dir,
            &WorkerOptions {
                worker_id: "gc-test".into(),
                threads: 1,
                ..Default::default()
            },
        )
        .expect("work");
        let (kept, removed) = store.gc().expect("gc after completion");
        assert!(kept.is_empty());
        assert_eq!(removed, vec![key]);
        let _ = std::fs::remove_dir_all(store.dir());
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn corrupt_entries_fail_with_file_context() {
        let store = temp_store("corrupt");
        let cell = base_cell();
        let key = store
            .insert_cell("camp", 7, 2, &cell, 100_000, 5, &filled_state(5))
            .expect("insert");
        let path = store.path_for(&key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"trials\": 5", "\"trials\": 6")).unwrap();
        let err = store
            .lookup_cell("camp", 7, 2, &cell, 100_000, 5)
            .expect_err("tamper detected");
        let rendered = err.to_string();
        assert!(
            rendered.starts_with(&path.display().to_string()),
            "{rendered}"
        );
        assert!(rendered.contains("checksum mismatch"), "{rendered}");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
