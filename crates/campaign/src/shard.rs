//! Work-stealing shard scheduler: one campaign across many worker
//! processes, merged byte-identically.
//!
//! The campaign service (`rcb run --state-dir`) made one *process*
//! kill-safe; this module makes the campaign a *fleet* job. N independent
//! `rcb shard work` processes coordinate over a shared state directory
//! with **no network layer** — every primitive is a filesystem operation
//! with well-defined atomicity on POSIX:
//!
//! * **Plan** (`shard-plan.json`): written once by `rcb shard plan`, it
//!   pins everything the artifact bytes depend on — campaign, seed, trial
//!   count, slot cap, checkpoint cadence — plus the per-cell identity
//!   keys ([`crate::store::checkpoint_key`], which embed the build
//!   stamp). Workers refuse a plan whose keys they cannot reproduce, so a
//!   mixed-version fleet fails loudly instead of merging subtly different
//!   streams.
//! * **Lease** (`lease-NNNN.json`): a claim on one cell. Claiming is
//!   `hard_link(tmp, lease)` — the one POSIX call that *creates* a file
//!   with full content already in place and fails with `AlreadyExists`
//!   if someone else holds it; plain tmp+rename would be last-writer-wins,
//!   not mutual exclusion. The owner re-writes the lease's `beat_ms`
//!   (heartbeat) from a thread of its own while driving the cell, so a
//!   trial longer than the staleness window never makes a live owner look
//!   dead, and removes the lease at completion.
//! * **Steal**: a lease whose heartbeat is older than the plan's
//!   `stale_after_ms` is presumed dead. A thief `rename`s the lease onto a
//!   private tombstone — exactly one concurrent thief wins the rename
//!   (the loser gets `NotFound`) — deletes the tombstone, and claims
//!   fresh.
//! * **Fencing, cooperatively**: a worker verifies it still owns its lease
//!   before every checkpoint write and heartbeat, and abandons the cell
//!   the moment ownership is lost. A maximally unlucky zombie can still
//!   overwrite a thief's newer checkpoint with an older one — that is a
//!   *watermark regression*, not corruption: per-cell trial streams are
//!   positional ([`rcb_harness::cell_trial_seed`]), so any prefix of the
//!   stream is valid state, the next worker simply re-runs the tail, and
//!   [`shard_merge`] refuses anything short of `trials`.
//!
//! Cell state is not this module's. A claimed cell is resumed, simulated,
//! checkpointed and published by the campaign engine's `CellKeeper` — the
//! code `rcb run --state-dir` runs — with the lease injected as the drive
//! loop's fence. This module keeps the lease steps only: claim, heartbeat,
//! the ownership fence, release, the re-read that finds a cell already
//! finished, and writing a store hit as the cell's final checkpoint.
//!
//! Determinism does the heavy lifting: because every worker computes the
//! *same* replicate stream for a cell and ingests it in the same order,
//! double-computation (two workers racing one cell) wastes time but can
//! never change bytes. The merged artifact is byte-identical to a
//! single-process `rcb run` at any worker count and kill pattern —
//! `tests/shard_scheduler.rs` and the CI shard-smoke job enforce exactly
//! that with `cmp`.

use crate::checkpoint::{
    as_arr, as_str, as_u64, checkpoint_path, fnv1a64, get, write_atomic, ServiceError, FNV_BASIS,
};
use crate::engine::{
    assemble_report, cell_keys, validate_service_flags, CampaignConfig, CellAccumulator,
    CellKeeper, Driven, ServiceConfig,
};
use crate::json::Json;
use crate::jsonin;
use crate::report::CampaignReport;
use crate::scenario::CampaignSpec;
use crate::store::{hash128, store_key, Store};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, SystemTime};

/// Version of the shard plan / lease / planref file schemas. History:
///
/// * **1** — initial format (see `docs/SCHEMA.md`).
/// * **2** — the plan drops its batch-width field (the trial-batched lane
///   is gone); a v1 plan is refused, so re-plan in a fresh state directory.
pub const SHARD_SCHEMA_VERSION: u64 = 2;

/// The plan file's name inside a shard state directory.
pub const PLAN_FILE: &str = "shard-plan.json";

/// Milliseconds since the Unix epoch (the shared clock every worker
/// already agrees on well enough for coarse staleness decisions).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The shard plan: everything a worker needs to drive cells of one
/// campaign, pinned at `rcb shard plan` time.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Content id of the plan (hash of the identity fields below).
    pub plan_id: String,
    /// Campaign name (a catalog scenario name for CLI workers).
    pub campaign: String,
    pub seed: u64,
    pub trials_per_cell: u64,
    /// Global slot-cap override (`--max-slots`), if any.
    pub max_slots: Option<u64>,
    /// Checkpoint cadence on the absolute per-cell watermark. Shard plans
    /// default to 1 — intermediate checkpoints are what make a stolen
    /// cell resumable mid-stream instead of restarting from zero.
    pub checkpoint_every: u64,
    /// A lease whose heartbeat is older than this is stealable.
    pub stale_after_ms: u64,
    /// Per-cell identity keys ([`crate::store::checkpoint_key`]); workers
    /// and merge validate their freshly computed keys against these.
    pub cell_keys: Vec<String>,
    /// Content-addressed store completed cells are published to, if any.
    pub store_dir: Option<PathBuf>,
}

impl ShardPlan {
    /// Number of cells the plan shards.
    pub fn cells(&self) -> usize {
        self.cell_keys.len()
    }

    /// The engine config the plan pins (threads are worker-local and do
    /// not affect bytes; progress and telemetry stay off).
    pub(crate) fn campaign_config(&self, threads: usize) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            trials_per_cell: self.trials_per_cell,
            threads,
            max_slots: self.max_slots,
            progress: false,
            telemetry: false,
        }
    }

    /// The keeper of this plan's cells under `state_dir`, with the plan's
    /// pinned identity keys and checkpoint cadence; `threads` only sets how
    /// many trials run at once.
    pub(crate) fn keeper<'a>(
        &'a self,
        state_dir: &'a Path,
        store: Option<&'a Store>,
        threads: usize,
    ) -> CellKeeper<'a> {
        CellKeeper {
            cfg: self.campaign_config(threads),
            keys: Cow::Borrowed(&self.cell_keys),
            state_dir: Some(state_dir),
            checkpoint_every: self.checkpoint_every,
            store,
        }
    }

    /// Validate that `spec` (as built by this binary) is the campaign this
    /// plan shards: same name, same cell count, and every cell's identity
    /// key — which covers the schema version, build stamp, seed, slot cap,
    /// and the full parameter renderings — reproduces the planned one.
    pub fn validate_spec(&self, spec: &CampaignSpec, plan_path: &Path) -> Result<(), ServiceError> {
        if spec.name != self.campaign {
            return Err(ServiceError::at(
                plan_path,
                format!(
                    "plan shards campaign `{}`, not `{}`",
                    self.campaign, spec.name
                ),
            ));
        }
        if spec.cells.len() != self.cells() {
            return Err(ServiceError::at(
                plan_path,
                format!(
                    "plan has {} cells but campaign `{}` now has {}",
                    self.cells(),
                    self.campaign,
                    spec.cells.len()
                ),
            ));
        }
        for (c, key) in cell_keys(spec, &self.campaign_config(0)).iter().enumerate() {
            if *key != self.cell_keys[c] {
                return Err(ServiceError::at(
                    plan_path,
                    format!(
                        "cell {c} identity mismatch: plan pinned {} but this binary computes \
                         {key}; the campaign parameters or build stamp changed since `rcb shard \
                         plan` — re-plan in a fresh state directory",
                        self.cell_keys[c]
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Path of the plan file in `state_dir`.
pub fn plan_path(state_dir: &Path) -> PathBuf {
    state_dir.join(PLAN_FILE)
}

fn plan_identity(plan: &ShardPlan) -> String {
    format!(
        "shard-plan|campaign={}|seed={}|trials={}|max_slots={:?}|every={}|keys={}",
        plan.campaign,
        plan.seed,
        plan.trials_per_cell,
        plan.max_slots,
        plan.checkpoint_every,
        plan.cell_keys.join(",")
    )
}

fn plan_to_json(plan: &ShardPlan) -> Json {
    let payload = Json::obj(vec![
        ("schema_version", SHARD_SCHEMA_VERSION.into()),
        ("kind", "rcb-shard-plan".into()),
        ("plan_id", plan.plan_id.as_str().into()),
        ("campaign", plan.campaign.as_str().into()),
        ("seed", plan.seed.into()),
        ("trials_per_cell", plan.trials_per_cell.into()),
        (
            "max_slots",
            plan.max_slots.map(Json::from).unwrap_or(Json::Null),
        ),
        ("checkpoint_every", plan.checkpoint_every.into()),
        ("stale_after_ms", plan.stale_after_ms.into()),
        (
            "cell_keys",
            Json::arr(
                plan.cell_keys
                    .iter()
                    .map(|k| Json::Str(k.clone()))
                    .collect(),
            ),
        ),
        (
            "store_dir",
            plan.store_dir
                .as_ref()
                .map(|p| Json::Str(p.display().to_string()))
                .unwrap_or(Json::Null),
        ),
    ]);
    let sum = format!(
        "{:016x}",
        fnv1a64(payload.to_compact().as_bytes(), FNV_BASIS)
    );
    let Json::Object(mut fields) = payload else {
        unreachable!("plan payload is an object")
    };
    fields.push(("checksum".to_string(), Json::Str(sum)));
    Json::Object(fields)
}

fn plan_from_json(v: &Json, path: &Path) -> Result<ShardPlan, ServiceError> {
    let fail = |m: String| ServiceError::at(path, m);
    // Validate the checksum over the payload (everything but the checksum
    // field itself, in written order — integer/string leaves round-trip
    // exactly through the parser).
    let Json::Object(fields) = v else {
        return Err(fail("plan file is not a JSON object".into()));
    };
    let payload = Json::Object(
        fields
            .iter()
            .filter(|(k, _)| k != "checksum")
            .cloned()
            .collect(),
    );
    let expect = format!(
        "{:016x}",
        fnv1a64(payload.to_compact().as_bytes(), FNV_BASIS)
    );
    let got = as_str(v, "checksum").map_err(&fail)?;
    if got != expect {
        return Err(fail(
            "checksum mismatch (corrupt or hand-edited plan)".into(),
        ));
    }
    let kind = as_str(v, "kind").map_err(&fail)?;
    if kind != "rcb-shard-plan" {
        return Err(fail(format!(
            "wrong kind `{kind}`, expected `rcb-shard-plan`"
        )));
    }
    let version = as_u64(v, "schema_version").map_err(&fail)?;
    if version != SHARD_SCHEMA_VERSION {
        return Err(fail(format!(
            "unsupported shard schema version {version} (this build reads {SHARD_SCHEMA_VERSION})"
        )));
    }
    let opt_u64 = |key: &str| match get(v, key) {
        Ok(Json::Null) => Ok(None),
        _ => as_u64(v, key).map(Some),
    };
    let opt_str = |key: &str| match get(v, key) {
        Ok(Json::Null) => Ok(None),
        Ok(Json::Str(s)) => Ok(Some(s.clone())),
        _ => Err(format!("field `{key}` is neither null nor a string")),
    };
    let mut cell_keys = Vec::new();
    for (i, k) in as_arr(v, "cell_keys").map_err(&fail)?.iter().enumerate() {
        match k {
            Json::Str(s) => cell_keys.push(s.clone()),
            _ => return Err(fail(format!("cell_keys[{i}] is not a string"))),
        }
    }
    if cell_keys.is_empty() {
        return Err(fail("plan has no cells".into()));
    }
    let plan = ShardPlan {
        plan_id: as_str(v, "plan_id").map_err(&fail)?.to_string(),
        campaign: as_str(v, "campaign").map_err(&fail)?.to_string(),
        seed: as_u64(v, "seed").map_err(&fail)?,
        trials_per_cell: as_u64(v, "trials_per_cell").map_err(&fail)?,
        max_slots: opt_u64("max_slots").map_err(&fail)?,
        checkpoint_every: as_u64(v, "checkpoint_every").map_err(&fail)?,
        stale_after_ms: as_u64(v, "stale_after_ms").map_err(&fail)?,
        cell_keys,
        store_dir: opt_str("store_dir").map_err(&fail)?.map(PathBuf::from),
    };
    if plan.plan_id != hash128(&plan_identity(&plan)) {
        return Err(fail("plan_id does not match the plan contents".into()));
    }
    if plan.trials_per_cell == 0 || plan.checkpoint_every == 0 {
        return Err(fail(
            "plan pins zero trials or a zero checkpoint cadence".into(),
        ));
    }
    Ok(plan)
}

/// Options for [`write_plan`].
#[derive(Clone, Debug)]
pub struct PlanOptions {
    pub checkpoint_every: u64,
    pub stale_after_ms: u64,
    pub store_dir: Option<PathBuf>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 1,
            stale_after_ms: 10_000,
            store_dir: None,
        }
    }
}

/// Create (or idempotently re-create) the shard plan for `spec` under
/// `state_dir`. Re-planning the identical campaign is a no-op; a state
/// directory already holding a *different* plan is refused — plans pin
/// artifact identity, so silently replacing one would let two incompatible
/// fleets interleave.
///
/// With `opts.store_dir` set, a planref file
/// (`<store>/<plan_id>.planref.json`) registers the plan's store keys so
/// `rcb store gc` never collects entries an unfinished plan still needs.
///
/// # Errors
/// Flag misuse (`checkpoint_every == 0`, zero trials), an incompatible
/// existing plan, or any file I/O failure.
pub fn write_plan(
    spec: &CampaignSpec,
    cfg: &CampaignConfig,
    state_dir: &Path,
    opts: &PlanOptions,
) -> Result<ShardPlan, ServiceError> {
    if cfg.trials_per_cell == 0 {
        return Err(ServiceError::msg("--trials: must be at least 1"));
    }
    if opts.checkpoint_every == 0 {
        return Err(ServiceError::msg(
            "--checkpoint-every: must be at least 1; shard plans checkpoint every trial by \
             default so stolen cells resume mid-stream",
        ));
    }
    if opts.stale_after_ms == 0 {
        return Err(ServiceError::msg(
            "--stale-after-ms: must be at least 1 (0 would make every live lease stealable)",
        ));
    }
    if spec.cells.is_empty() {
        return Err(ServiceError::msg("campaign has no cells"));
    }
    std::fs::create_dir_all(state_dir).map_err(|e| ServiceError::at(state_dir, e.to_string()))?;
    let mut plan = ShardPlan {
        plan_id: String::new(),
        campaign: spec.name.clone(),
        seed: cfg.seed,
        trials_per_cell: cfg.trials_per_cell,
        max_slots: cfg.max_slots,
        checkpoint_every: opts.checkpoint_every,
        stale_after_ms: opts.stale_after_ms,
        cell_keys: cell_keys(spec, cfg),
        store_dir: opts.store_dir.clone(),
    };
    plan.plan_id = hash128(&plan_identity(&plan));

    let path = plan_path(state_dir);
    if path.exists() {
        let existing = load_plan(state_dir)?;
        if existing.plan_id != plan.plan_id {
            return Err(ServiceError::at(
                &path,
                format!(
                    "state directory already holds plan {} for `{}` (seed {}, {} trials); \
                     re-planning with different parameters needs a fresh directory",
                    existing.plan_id, existing.campaign, existing.seed, existing.trials_per_cell
                ),
            ));
        }
        // Same identity: keep the existing file (its stale_after/store
        // knobs win — they don't affect bytes).
        return Ok(existing);
    }
    write_atomic(&path, &plan_to_json(&plan).to_pretty())?;

    if let Some(store_dir) = &plan.store_dir {
        write_planref(spec, &plan, state_dir, store_dir)?;
    }
    Ok(plan)
}

/// Load and validate the shard plan under `state_dir`.
///
/// # Errors
/// A missing plan is an error with file context (`rcb shard work` without
/// a plan must fail loudly, not spin), as is any corruption.
pub fn load_plan(state_dir: &Path) -> Result<ShardPlan, ServiceError> {
    let path = plan_path(state_dir);
    let text =
        match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(ServiceError::at(
                &path,
                "no shard plan here; create one with `rcb shard plan <scenario> --state-dir <DIR>`",
            )),
            Err(e) => return Err(ServiceError::at(&path, e.to_string())),
        };
    let v = jsonin::parse(&text).map_err(|e| ServiceError::at(&path, e))?;
    plan_from_json(&v, &path)
}

// ---------------------------------------------------------------------------
// Planref: the store-side registration that makes `rcb store gc` lease-aware.
// ---------------------------------------------------------------------------

fn planref_path(store_dir: &Path, plan_id: &str) -> PathBuf {
    store_dir.join(format!("{plan_id}.planref.json"))
}

fn write_planref(
    spec: &CampaignSpec,
    plan: &ShardPlan,
    state_dir: &Path,
    store_dir: &Path,
) -> Result<(), ServiceError> {
    std::fs::create_dir_all(store_dir).map_err(|e| ServiceError::at(store_dir, e.to_string()))?;
    // Register under the *absolute* state dir so gc resolves it from any
    // working directory.
    let abs =
        std::fs::canonicalize(state_dir).map_err(|e| ServiceError::at(state_dir, e.to_string()))?;
    let keys: Vec<Json> = spec
        .cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let max_slots = plan.max_slots.unwrap_or(cell.max_slots);
            Json::Str(store_key(
                &plan.campaign,
                plan.seed,
                c as u64,
                cell,
                max_slots,
                plan.trials_per_cell,
            ))
        })
        .collect();
    let doc = Json::obj(vec![
        ("schema_version", SHARD_SCHEMA_VERSION.into()),
        ("kind", "rcb-shard-planref".into()),
        ("plan_id", plan.plan_id.as_str().into()),
        ("state_dir", abs.display().to_string().as_str().into()),
        ("keys", Json::arr(keys)),
    ]);
    write_atomic(&planref_path(store_dir, &plan.plan_id), &doc.to_pretty())
}

/// Store keys protected by unfinished shard plans registered in
/// `store_dir`, for `rcb store gc`. Planrefs whose plan is gone or fully
/// complete are removed as a side effect (their keys revert to the normal
/// gc policy); a planref whose state directory is unreadable protects its
/// keys conservatively.
pub(crate) fn protected_store_keys(
    store_dir: &Path,
) -> Result<std::collections::BTreeSet<String>, ServiceError> {
    let mut protected = std::collections::BTreeSet::new();
    let entries = match std::fs::read_dir(store_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(protected),
        Err(e) => return Err(ServiceError::at(store_dir, e.to_string())),
    };
    for entry in entries {
        let path = entry
            .map_err(|e| ServiceError::at(store_dir, e.to_string()))?
            .path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".planref.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| ServiceError::at(&path, e.to_string()))?;
        let v = jsonin::parse(&text).map_err(|e| ServiceError::at(&path, e))?;
        let fail = |m: String| ServiceError::at(&path, m);
        let state_dir = PathBuf::from(as_str(&v, "state_dir").map_err(&fail)?);
        let plan_id = as_str(&v, "plan_id").map_err(&fail)?.to_string();
        let mut keys = Vec::new();
        for k in as_arr(&v, "keys").map_err(&fail)? {
            if let Json::Str(s) = k {
                keys.push(s.clone());
            }
        }
        match plan_progress(&state_dir, &plan_id) {
            // Plan gone or finished: the ref has served its purpose.
            Ok(PlanProgress::Gone) | Ok(PlanProgress::Finished) => {
                std::fs::remove_file(&path).map_err(|e| ServiceError::at(&path, e.to_string()))?;
            }
            // Unfinished (or unreadable — be conservative): protect.
            Ok(PlanProgress::Unfinished) | Err(_) => protected.extend(keys),
        }
    }
    Ok(protected)
}

enum PlanProgress {
    Gone,
    Unfinished,
    Finished,
}

fn plan_progress(state_dir: &Path, plan_id: &str) -> Result<PlanProgress, ServiceError> {
    if !plan_path(state_dir).exists() {
        return Ok(PlanProgress::Gone);
    }
    let plan = load_plan(state_dir)?;
    if plan.plan_id != plan_id {
        // The directory was re-planned; the old plan is gone.
        return Ok(PlanProgress::Gone);
    }
    for c in 0..plan.cells() {
        if cell_watermark(state_dir, &plan, c)? < plan.trials_per_cell {
            return Ok(PlanProgress::Unfinished);
        }
    }
    Ok(PlanProgress::Finished)
}

// ---------------------------------------------------------------------------
// Leases: claim, heartbeat, steal.
// ---------------------------------------------------------------------------

/// One worker's claim on one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Lease {
    pub(crate) plan_id: String,
    pub(crate) cell: u64,
    pub(crate) owner: String,
    /// When the claim was made — together with `owner` this fences a
    /// lease against its own past: a re-claim after a steal has a new
    /// `claimed_ms`, so the old owner's verify fails even against itself.
    pub(crate) claimed_ms: u64,
    /// Last heartbeat; staleness is measured from this.
    pub(crate) beat_ms: u64,
}

/// Lease file for cell `cell` under the state directory.
pub fn lease_path(state_dir: &Path, cell: usize) -> PathBuf {
    state_dir.join(format!("lease-{cell:04}.json"))
}

fn lease_to_json(l: &Lease) -> Json {
    Json::obj(vec![
        ("schema_version", SHARD_SCHEMA_VERSION.into()),
        ("kind", "rcb-shard-lease".into()),
        ("plan_id", l.plan_id.as_str().into()),
        ("cell", l.cell.into()),
        ("owner", l.owner.as_str().into()),
        ("claimed_ms", l.claimed_ms.into()),
        ("beat_ms", l.beat_ms.into()),
    ])
}

fn lease_from_json(v: &Json) -> Result<Lease, String> {
    Ok(Lease {
        plan_id: as_str(v, "plan_id")?.to_string(),
        cell: as_u64(v, "cell")?,
        owner: as_str(v, "owner")?.to_string(),
        claimed_ms: as_u64(v, "claimed_ms")?,
        beat_ms: as_u64(v, "beat_ms")?,
    })
}

/// What a scan learned about a lease file: the parsed lease when readable,
/// and a best-effort heartbeat time either way (file mtime when the
/// content is torn or foreign — so an unparsable lease still goes stale
/// and gets stolen instead of wedging the cell forever).
struct LeaseInfo {
    lease: Option<Lease>,
    beat_ms: u64,
}

fn lease_info(path: &Path) -> Result<Option<LeaseInfo>, ServiceError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServiceError::at(path, e.to_string())),
    };
    let lease = jsonin::parse(&text)
        .ok()
        .and_then(|v| lease_from_json(&v).ok());
    let beat_ms = match &lease {
        Some(l) => l.beat_ms,
        None => std::fs::metadata(path)
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    };
    Ok(Some(LeaseInfo { lease, beat_ms }))
}

/// Atomically claim `lease.cell`: returns `Ok(true)` iff this call created
/// the lease file. `hard_link` is create-if-not-exists with the full
/// content already durable — concurrent claimants race on the link, and
/// exactly one wins.
fn try_claim(state_dir: &Path, lease: &Lease) -> Result<bool, ServiceError> {
    let path = lease_path(state_dir, lease.cell as usize);
    let tmp = state_dir.join(format!("lease-{:04}.claim-{}.tmp", lease.cell, lease.owner));
    {
        use std::io::Write as _;
        let io = |e: std::io::Error| ServiceError::at(&tmp, e.to_string());
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(lease_to_json(lease).to_pretty().as_bytes())
            .map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    let won = match std::fs::hard_link(&tmp, &path) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(ServiceError::at(&path, e.to_string()));
        }
    };
    std::fs::remove_file(&tmp).map_err(|e| ServiceError::at(&tmp, e.to_string()))?;
    Ok(won)
}

/// Atomically remove another worker's (stale) lease: rename it onto a
/// thief-private tombstone, then delete the tombstone. Exactly one of any
/// number of concurrent thieves wins the rename; losers see `NotFound`.
/// Returns whether this call removed the lease.
fn try_steal(state_dir: &Path, cell: usize, thief: &str) -> Result<bool, ServiceError> {
    let path = lease_path(state_dir, cell);
    let tomb = state_dir.join(format!("lease-{cell:04}.steal-{thief}.tmp"));
    match std::fs::rename(&path, &tomb) {
        Ok(()) => {
            std::fs::remove_file(&tomb).map_err(|e| ServiceError::at(&tomb, e.to_string()))?;
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(ServiceError::at(&path, e.to_string())),
    }
}

/// Does the on-disk lease still belong to `mine`? (Owner and claim time
/// must both match — see [`Lease::claimed_ms`].)
fn still_owner(state_dir: &Path, mine: &Lease) -> Result<bool, ServiceError> {
    let path = lease_path(state_dir, mine.cell as usize);
    Ok(lease_info(&path)?
        .and_then(|i| i.lease)
        .is_some_and(|l| l.owner == mine.owner && l.claimed_ms == mine.claimed_ms))
}

/// Re-write the lease with a fresh heartbeat, verifying ownership first.
/// Returns `false` (ownership lost — abandon the cell) without touching
/// the file when the lease is no longer ours.
fn heartbeat(state_dir: &Path, mine: &mut Lease) -> Result<bool, ServiceError> {
    if !still_owner(state_dir, mine)? {
        return Ok(false);
    }
    mine.beat_ms = now_ms();
    let path = lease_path(state_dir, mine.cell as usize);
    write_atomic(&path, &lease_to_json(mine).to_pretty())?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// Cell state scan.
// ---------------------------------------------------------------------------

/// The scheduler's view of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellState {
    /// Checkpoint watermark has reached the plan's trial count.
    Done,
    /// A live lease (heartbeat within `stale_after_ms`) holds the cell.
    Claimed,
    /// The lease's heartbeat is stale; any worker may steal it.
    Stealable,
    /// No lease and not done: free to claim.
    Available,
}

/// One row of `rcb shard status`.
#[derive(Clone, Debug)]
pub struct CellStatus {
    pub cell: u64,
    pub state: CellState,
    /// Trials checkpointed so far (of `plan.trials_per_cell`).
    pub watermark: u64,
    /// Lease owner, when a lease file exists.
    pub owner: Option<String>,
    /// Age of the last heartbeat, when a lease file exists.
    pub beat_age_ms: Option<u64>,
}

/// Validated checkpoint watermark of one cell (0 when no checkpoint).
fn cell_watermark(state_dir: &Path, plan: &ShardPlan, cell: usize) -> Result<u64, ServiceError> {
    Ok(plan.keeper(state_dir, None, 0).load(cell)?.0)
}

/// Scan every cell's scheduler state. Pure read: never claims, steals, or
/// cleans anything.
pub fn shard_status(state_dir: &Path, plan: &ShardPlan) -> Result<Vec<CellStatus>, ServiceError> {
    let now = now_ms();
    let mut out = Vec::with_capacity(plan.cells());
    for c in 0..plan.cells() {
        let watermark = cell_watermark(state_dir, plan, c)?;
        let info = lease_info(&lease_path(state_dir, c))?;
        let done = watermark >= plan.trials_per_cell;
        let state = match &info {
            _ if done => CellState::Done,
            None => CellState::Available,
            Some(i) if now.saturating_sub(i.beat_ms) > plan.stale_after_ms => CellState::Stealable,
            Some(_) => CellState::Claimed,
        };
        out.push(CellStatus {
            cell: c as u64,
            state,
            watermark,
            owner: info
                .as_ref()
                .and_then(|i| i.lease.as_ref())
                .map(|l| l.owner.clone()),
            beat_age_ms: info.as_ref().map(|i| now.saturating_sub(i.beat_ms)),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------------

/// Options for one [`shard_work`] invocation.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Unique-ish worker name (lease owner; embedded in temp-file names,
    /// so restricted to `[A-Za-z0-9._-]`).
    pub worker_id: String,
    /// Trial threads *within* this worker (worker-local; cannot affect
    /// bytes).
    pub threads: usize,
    /// Deterministic kill switch (`--max-trials-then-exit`): after this
    /// many trials ingested across all cells, return
    /// [`WorkerOutcome::Killed`] **leaving the current lease in place** —
    /// exactly the state a `kill -9` mid-cell leaves, so tests and CI can
    /// exercise the steal path without racing real signals.
    pub max_trials: Option<u64>,
    /// Idle re-scan interval; 0 derives one from the plan's staleness
    /// window.
    pub poll_ms: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            worker_id: format!("pid{}", std::process::id()),
            threads: 0,
            max_trials: None,
            poll_ms: 0,
        }
    }
}

/// How one worker's run ended.
#[derive(Clone, Debug)]
pub enum WorkerOutcome {
    /// Every cell of the plan is done (not necessarily all by this
    /// worker).
    Finished {
        cells_completed: u64,
        cells_stolen: u64,
        trials_simulated: u64,
        store_hits: u64,
    },
    /// The deterministic kill switch fired mid-cell; the lease was left
    /// in place for others to steal once stale.
    Killed { trials_simulated: u64 },
}

/// Work one plan until every cell is done (or the kill switch fires):
/// scan, claim or steal a cell, drive it through the checkpoint machinery
/// via the campaign engine's block runner, heartbeat while driving,
/// publish to the store, release the lease, repeat.
///
/// Any number of workers may run this concurrently against the same state
/// directory; a worker that finds nothing claimable but unfinished cells
/// (live leases elsewhere) polls until it can steal or everything is done.
///
/// # Errors
/// Plan/spec mismatch, malformed worker id, or any checkpoint/store I/O
/// failure. Losing a lease to a thief is **not** an error — the cell is
/// abandoned and re-scanned.
pub fn shard_work(
    spec: &CampaignSpec,
    state_dir: &Path,
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, ServiceError> {
    if opts.worker_id.is_empty()
        || !opts
            .worker_id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(ServiceError::msg(format!(
            "--worker-id: `{}` may contain only letters, digits, `-`, `_`, `.`",
            opts.worker_id
        )));
    }
    let kill_switch = ServiceConfig {
        kill_after_trials: opts.max_trials,
        ..ServiceConfig::default()
    };
    validate_service_flags(&kill_switch, None)?;
    let plan = load_plan(state_dir)?;
    plan.validate_spec(spec, &plan_path(state_dir))?;
    let n = plan.trials_per_cell;
    let store = plan.store_dir.as_deref().map(Store::new);
    let poll = Duration::from_millis(if opts.poll_ms > 0 {
        opts.poll_ms
    } else {
        (plan.stale_after_ms / 4).clamp(5, 200)
    });

    let mut tally = Tally::default();
    loop {
        let mut all_done = true;
        let mut worked_this_pass = false;
        for c in 0..plan.cells() {
            let watermark = cell_watermark(state_dir, &plan, c)?;
            let info = lease_info(&lease_path(state_dir, c))?;
            if watermark >= n {
                // Done. A leftover lease (owner died after the final
                // checkpoint but before releasing) is garbage once stale.
                if info.as_ref().is_some_and(|i| is_stale(&plan, i)) {
                    let _ = try_steal(state_dir, c, &opts.worker_id)?;
                }
                continue;
            }
            all_done = false;
            match claim_step(
                spec,
                &plan,
                state_dir,
                store.as_ref(),
                c,
                info,
                opts,
                &mut tally,
            )? {
                ClaimStep::Skipped => {}
                ClaimStep::Worked => worked_this_pass = true,
                ClaimStep::Killed { trials_simulated } => {
                    return Ok(WorkerOutcome::Killed { trials_simulated });
                }
            }
        }
        if all_done {
            return Ok(WorkerOutcome::Finished {
                cells_completed: tally.cells_completed,
                cells_stolen: tally.cells_stolen,
                trials_simulated: tally.trials_simulated,
                store_hits: tally.store_hits,
            });
        }
        if !worked_this_pass {
            std::thread::sleep(poll);
        }
    }
}

fn is_stale(plan: &ShardPlan, info: &LeaseInfo) -> bool {
    now_ms().saturating_sub(info.beat_ms) > plan.stale_after_ms
}

/// One worker's running totals, reported by [`WorkerOutcome::Finished`].
#[derive(Default)]
struct Tally {
    trials_simulated: u64,
    cells_completed: u64,
    cells_stolen: u64,
    store_hits: u64,
}

/// What [`claim_step`] did with a cell the scan found unfinished.
enum ClaimStep {
    /// Not this worker's: a live lease elsewhere, or a lost claim race.
    Skipped,
    /// Claimed and driven (or found already finished and released).
    Worked,
    /// The kill switch fired mid-cell; the lease stays in place.
    Killed { trials_simulated: u64 },
}

/// Claim (stealing first if the scanned lease `info` is stale) and drive
/// cell `c`, which the scan saw unfinished, counting what this worker did
/// into `tally`.
///
/// The scan's watermark may be stale by the time the claim wins: another
/// worker can finish the cell and release its lease in between. The cell
/// is therefore re-read under the lease ([`drive_cell`] loads its
/// checkpoint after the claim), and a cell found finished there is
/// released and never counted.
#[allow(clippy::too_many_arguments)]
fn claim_step(
    spec: &CampaignSpec,
    plan: &ShardPlan,
    state_dir: &Path,
    store: Option<&Store>,
    c: usize,
    info: Option<LeaseInfo>,
    opts: &WorkerOptions,
    tally: &mut Tally,
) -> Result<ClaimStep, ServiceError> {
    match info {
        Some(i) if !is_stale(plan, &i) => return Ok(ClaimStep::Skipped), // live claim elsewhere
        Some(_) => {
            if !try_steal(state_dir, c, &opts.worker_id)? {
                return Ok(ClaimStep::Skipped); // another thief beat us to it
            }
            tally.cells_stolen += 1;
        }
        None => {}
    }
    let lease = Lease {
        plan_id: plan.plan_id.clone(),
        cell: c as u64,
        owner: opts.worker_id.clone(),
        claimed_ms: now_ms(),
        beat_ms: now_ms(),
    };
    if !try_claim(state_dir, &lease)? {
        return Ok(ClaimStep::Skipped); // lost the claim race
    }
    drive_cell(spec, plan, state_dir, store, c, &lease, opts, tally)
}

/// Drive one claimed cell from its checkpoint watermark to `n` through the
/// plan's [`CellKeeper`], with the lease as its fence: ownership is
/// verified before every checkpoint write, and a scoped thread heartbeats
/// on a `stale_after/4` cadence while the trials run. The kill switch
/// counts this worker's trials across cells (`tally`). A store hit is
/// written as the cell's final checkpoint. Releases the lease on
/// completion; leaves it on kill; the lease is already gone on abandon.
/// Only a cell this call completes is counted: one found finished under
/// the lease, or lost to a thief, is not.
#[allow(clippy::too_many_arguments)]
fn drive_cell(
    spec: &CampaignSpec,
    plan: &ShardPlan,
    state_dir: &Path,
    store: Option<&Store>,
    c: usize,
    lease: &Lease,
    opts: &WorkerOptions,
    tally: &mut Tally,
) -> Result<ClaimStep, ServiceError> {
    let n = plan.trials_per_cell;
    let keeper = plan.keeper(state_dir, store, opts.threads);
    // Resume point, re-read under the lease: the scan's view may be stale.
    let (watermark, acc) = keeper.load(c)?;
    if watermark >= n {
        release_lease(state_dir, lease)?;
        return Ok(ClaimStep::Worked);
    }

    // Warm store hit: the whole cell already exists content-addressed;
    // materialize it as a final checkpoint and skip simulation entirely.
    if let Some(state) = keeper.lookup(spec, c)? {
        if still_owner(state_dir, lease)? {
            keeper.checkpoint(spec, c, n, &state)?;
            release_lease(state_dir, lease)?;
            tally.cells_completed += 1;
            tally.store_hits += 1;
        }
        return Ok(ClaimStep::Worked);
    }

    // Only this cell gets trials: every other cell's watermark is pinned
    // to n so the schedule holds nothing for it.
    let mut accs: Vec<CellAccumulator> = (0..spec.cells.len())
        .map(|_| CellAccumulator::new())
        .collect();
    let mut watermarks: Vec<u64> = vec![n; spec.cells.len()];
    accs[c] = acc;
    watermarks[c] = watermark;

    let kill_after = opts
        .max_trials
        .map(|k| k.saturating_sub(tally.trials_simulated));
    let beat_every = Duration::from_millis((plan.stale_after_ms / 4).max(1));
    let lost = AtomicBool::new(false);
    let driven = std::thread::scope(|scope| {
        // The heartbeat runs beside the trials, not between ingests: one
        // trial can outlast the staleness window. It stops (and the kill
        // path leaves the lease to go stale) once `stop` is dropped.
        let (stop, stopped) = mpsc::channel::<()>();
        let lost = &lost;
        let mut mine = lease.clone();
        let beater = scope.spawn(move || loop {
            if stopped.recv_timeout(beat_every) != Err(RecvTimeoutError::Timeout) {
                return Ok(());
            }
            let beat = heartbeat(state_dir, &mut mine);
            if !matches!(beat, Ok(true)) {
                // Ownership lost, or the lease write failed: the trials
                // stop at their next ingest.
                lost.store(true, Ordering::SeqCst);
                return beat.map(|_| ());
            }
        });
        // Cooperative fencing: stop once the heartbeat lost the lease, and
        // never write a checkpoint for a cell we no longer own.
        let mut fence = |boundary: bool| {
            Ok(!lost.load(Ordering::SeqCst) && (!boundary || still_owner(state_dir, lease)?))
        };
        let driven = keeper.drive(spec, &mut accs, &mut watermarks, kill_after, &mut fence);
        drop(stop);
        let beat = beater.join().expect("the heartbeat thread does not panic");
        beat.and(driven)
    })?;

    match driven {
        // Leave the lease in place: this models a hard death, and the
        // staleness clock is what hands the cell to a thief.
        Driven::Killed { simulated } => Ok(ClaimStep::Killed {
            trials_simulated: tally.trials_simulated + simulated,
        }),
        // Lease lost: the partial state is discarded.
        Driven::Fenced => Ok(ClaimStep::Worked),
        Driven::Complete { simulated } => {
            keeper.publish(spec, c, &accs[c])?;
            release_lease(state_dir, lease)?;
            tally.trials_simulated += simulated;
            tally.cells_completed += 1;
            Ok(ClaimStep::Worked)
        }
    }
}

/// Remove our own lease. If a thief took it in the meantime (only possible
/// after a staleness lapse), leave theirs alone.
fn release_lease(state_dir: &Path, mine: &Lease) -> Result<(), ServiceError> {
    if !still_owner(state_dir, mine)? {
        return Ok(());
    }
    let path = lease_path(state_dir, mine.cell as usize);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(ServiceError::at(&path, e.to_string())),
    }
}

// ---------------------------------------------------------------------------
// Merge.
// ---------------------------------------------------------------------------

/// Result of [`shard_merge`].
#[derive(Debug)]
pub struct MergeOutcome {
    /// The assembled artifact — byte-identical to a single-process
    /// `rcb run` of the same campaign/seed/trials.
    pub report: CampaignReport,
    /// Leftover lease/tmp files swept from the state directory.
    pub swept_files: u64,
}

/// Fold the per-cell checkpoint states into the final campaign artifact.
/// Refuses unless **every** cell's checkpoint watermark has reached the
/// plan's trial count — a merge must never bake in a partial cell. On
/// success, completed cells are published to the plan's store (if any),
/// the planref is retired, and leftover lease/tombstone files are swept.
///
/// # Errors
/// Missing plan, plan/spec mismatch, any incomplete cell (named, with its
/// watermark), or checkpoint/store I/O failure.
pub fn shard_merge(spec: &CampaignSpec, state_dir: &Path) -> Result<MergeOutcome, ServiceError> {
    let plan = load_plan(state_dir)?;
    plan.validate_spec(spec, &plan_path(state_dir))?;
    let n = plan.trials_per_cell;
    let store = plan.store_dir.as_deref().map(Store::new);
    let keeper = plan.keeper(state_dir, store.as_ref(), 0);

    let mut accs: Vec<CellAccumulator> = Vec::with_capacity(plan.cells());
    for c in 0..plan.cells() {
        let (watermark, acc) = keeper.load(c)?;
        let path = checkpoint_path(state_dir, c);
        if watermark == 0 {
            return Err(ServiceError::at(
                &path,
                format!("cell {c} has no checkpoint yet (0/{n} trials); run `rcb shard work`"),
            ));
        }
        if watermark != n {
            return Err(ServiceError::at(
                &path,
                format!(
                    "cell {c} is incomplete ({watermark}/{n} trials); a merge never bakes in a \
                     partial cell — run `rcb shard work` until `rcb shard status` shows every \
                     cell done"
                ),
            ));
        }
        accs.push(acc);
    }
    let report = assemble_report(spec, &keeper.cfg, &accs);

    // Publish every cell (idempotent: re-inserting a key rewrites the same
    // bytes) and retire the planref — the plan is finished, so its keys
    // revert to the normal gc policy.
    for (c, acc) in accs.iter().enumerate() {
        keeper.publish(spec, c, acc)?;
    }
    if let Some(store_dir) = &plan.store_dir {
        let refpath = planref_path(store_dir, &plan.plan_id);
        match std::fs::remove_file(&refpath) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ServiceError::at(&refpath, e.to_string())),
        }
    }

    // Sweep scheduler residue: leases of dead-after-completion workers and
    // any orphaned claim/steal tombstones. Checkpoints and the plan stay —
    // they are reusable state, not residue.
    let mut swept = 0u64;
    let entries =
        std::fs::read_dir(state_dir).map_err(|e| ServiceError::at(state_dir, e.to_string()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| ServiceError::at(state_dir, e.to_string()))?
            .path();
        let Some(name) = path.file_name().and_then(|s| s.to_str()) else {
            continue;
        };
        let is_lease = name.starts_with("lease-") && name.ends_with(".json");
        let is_tmp = name.ends_with(".tmp");
        if is_lease || is_tmp {
            std::fs::remove_file(&path).map_err(|e| ServiceError::at(&path, e.to_string()))?;
            swept += 1;
        }
    }
    Ok(MergeOutcome {
        report,
        swept_files: swept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CellSpec;
    use rcb_harness::{AdversaryKind, ProtocolKind};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rcb-shard-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "shard-unit".into(),
            description: "shard unit fixture".into(),
            cells: vec![
                CellSpec::new(
                    ProtocolKind::Naive {
                        n: 8,
                        act_prob: 1.0,
                    },
                    AdversaryKind::Silent,
                )
                .with_max_slots(20_000),
                CellSpec::new(
                    ProtocolKind::Naive {
                        n: 8,
                        act_prob: 0.5,
                    },
                    AdversaryKind::Silent,
                )
                .with_max_slots(20_000),
            ],
        }
    }

    fn cfg(trials: u64) -> CampaignConfig {
        CampaignConfig {
            seed: 11,
            trials_per_cell: trials,
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn plan_round_trips_and_rejects_tampering() {
        let dir = scratch("plan");
        let spec = tiny_spec();
        let plan = write_plan(&spec, &cfg(3), &dir, &PlanOptions::default()).expect("plan");
        assert_eq!(plan.cells(), 2);
        assert_eq!(plan.plan_id.len(), 32);
        let back = load_plan(&dir).expect("load");
        assert_eq!(back.plan_id, plan.plan_id);
        assert_eq!(back.cell_keys, plan.cell_keys);
        back.validate_spec(&spec, &plan_path(&dir))
            .expect("spec matches");

        // Idempotent re-plan; different parameters are refused.
        write_plan(&spec, &cfg(3), &dir, &PlanOptions::default()).expect("same plan ok");
        let err = write_plan(&spec, &cfg(4), &dir, &PlanOptions::default())
            .expect_err("different plan refused");
        assert!(err.to_string().contains("already holds plan"), "{err}");

        // A flipped byte inside the file fails the checksum.
        let path = plan_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"seed\": 11", "\"seed\": 12")).unwrap();
        let err = load_plan(&dir).expect_err("tampered plan");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A plan in the v1 layout (`schema_version` 1 plus the since-removed
    /// batch-width field) with a valid checksum and plan id is refused by
    /// the version check, with file context — never read as a current plan.
    #[test]
    fn v1_plan_is_refused_by_the_version_check() {
        let dir = scratch("v1plan");
        let spec = tiny_spec();
        let keys = write_plan(&spec, &cfg(3), &dir, &PlanOptions::default())
            .expect("plan")
            .cell_keys;
        let plan_id = hash128(&format!(
            "shard-plan|campaign={}|seed=11|trials=3|batch=8|max_slots=None|every=1|keys={}",
            spec.name,
            keys.join(",")
        ));
        let payload = Json::obj(vec![
            ("schema_version", 1u64.into()),
            ("kind", "rcb-shard-plan".into()),
            ("plan_id", plan_id.as_str().into()),
            ("campaign", spec.name.as_str().into()),
            ("seed", 11u64.into()),
            ("trials_per_cell", 3u64.into()),
            ("batch_width", 8u64.into()),
            ("max_slots", Json::Null),
            ("checkpoint_every", 1u64.into()),
            ("stale_after_ms", 10_000u64.into()),
            (
                "cell_keys",
                Json::arr(keys.into_iter().map(Json::Str).collect()),
            ),
            ("store_dir", Json::Null),
        ]);
        let sum = format!(
            "{:016x}",
            fnv1a64(payload.to_compact().as_bytes(), FNV_BASIS)
        );
        let Json::Object(mut fields) = payload else {
            unreachable!("plan payload is an object")
        };
        fields.push(("checksum".to_string(), Json::Str(sum)));
        std::fs::write(plan_path(&dir), Json::Object(fields).to_pretty()).unwrap();

        let msg = load_plan(&dir).expect_err("v1 plan").to_string();
        assert!(
            msg.starts_with(&plan_path(&dir).display().to_string()),
            "missing file context: {msg}"
        );
        assert!(msg.contains("unsupported shard schema version 1"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_plan_fails_with_file_context() {
        let dir = scratch("noplan");
        let err = load_plan(&dir).expect_err("no plan");
        let msg = err.to_string();
        assert!(
            msg.starts_with(&plan_path(&dir).display().to_string()),
            "missing file context: {msg}"
        );
        assert!(msg.contains("no shard plan"), "{msg}");
        // shard_work surfaces the same error, never a panic or a spin.
        let err = shard_work(&tiny_spec(), &dir, &WorkerOptions::default())
            .expect_err("work without plan");
        assert!(err.to_string().contains("no shard plan"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The claim primitive is mutual exclusion, not last-writer-wins: of N
    /// concurrent claimants exactly one wins, and the lease content is the
    /// winner's.
    #[test]
    fn double_claim_is_impossible() {
        let dir = scratch("claim");
        let winners: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let dir = &dir;
                    scope.spawn(move || {
                        let lease = Lease {
                            plan_id: "p".into(),
                            cell: 0,
                            owner: format!("w{i}"),
                            claimed_ms: 1,
                            beat_ms: 1,
                        };
                        try_claim(dir, &lease).expect("claim io")
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .filter_map(|(i, h)| h.join().expect("no panic").then(|| format!("w{i}")))
                .collect()
        });
        assert_eq!(winners.len(), 1, "exactly one claimant wins: {winners:?}");
        let info = lease_info(&lease_path(&dir, 0))
            .expect("read")
            .expect("exists");
        assert_eq!(info.lease.expect("parses").owner, winners[0]);
        // No claim tmp files left behind by winner or losers.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(strays.is_empty(), "stray tmp files: {strays:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stale lease is stolen by exactly one of N concurrent thieves; a
    /// fresh lease is never considered stealable by the status scan.
    #[test]
    fn stale_lease_steal_is_single_winner() {
        let dir = scratch("steal");
        let spec = tiny_spec();
        let plan = write_plan(
            &spec,
            &cfg(3),
            &dir,
            &PlanOptions {
                stale_after_ms: 50,
                ..Default::default()
            },
        )
        .expect("plan");

        // A fresh lease reads as Claimed.
        let lease = Lease {
            plan_id: plan.plan_id.clone(),
            cell: 0,
            owner: "alive".into(),
            claimed_ms: now_ms(),
            beat_ms: now_ms(),
        };
        assert!(try_claim(&dir, &lease).expect("claim"));
        let status = shard_status(&dir, &plan).expect("status");
        assert_eq!(status[0].state, CellState::Claimed);
        assert_eq!(status[0].owner.as_deref(), Some("alive"));
        assert_eq!(status[1].state, CellState::Available);

        // Backdate the heartbeat past the staleness window.
        let stale = Lease {
            beat_ms: now_ms().saturating_sub(10_000),
            ..lease
        };
        write_atomic(&lease_path(&dir, 0), &lease_to_json(&stale).to_pretty()).expect("backdate");
        let status = shard_status(&dir, &plan).expect("status");
        assert_eq!(status[0].state, CellState::Stealable);

        let winners: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let dir = &dir;
                    scope.spawn(move || try_steal(dir, 0, &format!("thief{i}")).expect("steal io"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic") as usize)
                .sum()
        });
        assert_eq!(winners, 1, "exactly one thief removes the lease");
        assert!(!lease_path(&dir, 0).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ownership fencing: a heartbeat after a steal-and-reclaim fails even
    /// for the same owner name, because the claim time differs.
    #[test]
    fn heartbeat_fails_after_losing_the_lease() {
        let dir = scratch("fence");
        let mut mine = Lease {
            plan_id: "p".into(),
            cell: 3,
            owner: "w1".into(),
            claimed_ms: now_ms(),
            beat_ms: now_ms(),
        };
        assert!(try_claim(&dir, &mine).expect("claim"));
        assert!(heartbeat(&dir, &mut mine).expect("beat while owned"));

        // A thief replaces the lease — same owner name, new claim epoch.
        assert!(try_steal(&dir, 3, "thief").expect("steal"));
        let theirs = Lease {
            claimed_ms: mine.claimed_ms + 1,
            ..mine.clone()
        };
        assert!(try_claim(&dir, &theirs).expect("reclaim"));
        assert!(
            !heartbeat(&dir, &mut mine).expect("beat check"),
            "zombie heartbeat must fail"
        );
        // And the thief's lease was not touched by the failed beat.
        let on_disk = lease_info(&lease_path(&dir, 3))
            .expect("read")
            .expect("exists")
            .lease
            .expect("parses");
        assert_eq!(on_disk.claimed_ms, theirs.claimed_ms);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unparsable (torn) lease still goes stale via its file mtime and
    /// is stolen rather than wedging the cell forever.
    #[test]
    fn torn_lease_falls_back_to_mtime_staleness() {
        let dir = scratch("torn");
        let path = lease_path(&dir, 1);
        std::fs::write(&path, "{ not json").expect("torn lease");
        let info = lease_info(&path).expect("read").expect("exists");
        assert!(info.lease.is_none());
        assert!(info.beat_ms > 0, "mtime fallback populated");
        assert!(try_steal(&dir, 1, "thief").expect("steal"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The claim race, forced without timing: worker B scans cell 0 as
    /// unfinished, worker A then finishes every cell and releases its
    /// leases, and only then does B's claim step run on its stale scan.
    /// B wins the now-free lease but must release it and count nothing.
    #[test]
    fn late_claim_on_a_finished_cell_counts_nothing() {
        let dir = scratch("late-claim");
        let spec = tiny_spec();
        let plan = write_plan(&spec, &cfg(3), &dir, &PlanOptions::default()).expect("plan");
        let worker = |id: &str| WorkerOptions {
            worker_id: id.into(),
            threads: 1,
            ..Default::default()
        };

        assert_eq!(cell_watermark(&dir, &plan, 0).expect("scan"), 0);
        let scanned = lease_info(&lease_path(&dir, 0)).expect("scan");
        assert!(scanned.is_none(), "nobody holds cell 0 at scan time");

        let a = shard_work(&spec, &dir, &worker("a")).expect("worker a");
        assert!(
            matches!(
                a,
                WorkerOutcome::Finished {
                    cells_completed: 2,
                    ..
                }
            ),
            "{a:?}"
        );

        let mut tally = Tally::default();
        let step = claim_step(
            &spec,
            &plan,
            &dir,
            None,
            0,
            scanned,
            &worker("b"),
            &mut tally,
        )
        .expect("worker b claim step");
        assert!(matches!(step, ClaimStep::Worked));
        assert_eq!(tally.cells_completed, 0, "b counted a cell a finished");
        assert_eq!(tally.trials_simulated, 0);
        assert!(!lease_path(&dir, 0).exists(), "b released the lease");
        shard_merge(&spec, &dir).expect("merge after the late claim");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One worker, library-level: plan → work → merge equals run_campaign.
    #[test]
    fn single_worker_merge_matches_run_campaign() {
        let dir = scratch("single");
        let spec = tiny_spec();
        let cfg = cfg(3);
        let reference = crate::engine::run_campaign(&spec, &cfg).to_json();
        write_plan(&spec, &cfg, &dir, &PlanOptions::default()).expect("plan");

        // Merging before any work names the laggard cell.
        let err = shard_merge(&spec, &dir).expect_err("premature merge");
        assert!(err.to_string().contains("no checkpoint yet"), "{err}");

        let outcome = shard_work(
            &spec,
            &dir,
            &WorkerOptions {
                worker_id: "solo".into(),
                threads: 1,
                ..Default::default()
            },
        )
        .expect("work");
        let WorkerOutcome::Finished {
            cells_completed,
            trials_simulated,
            ..
        } = outcome
        else {
            panic!("worker was killed: {outcome:?}")
        };
        assert_eq!(cells_completed, 2);
        assert_eq!(trials_simulated, 6);

        let merged = shard_merge(&spec, &dir).expect("merge");
        assert_eq!(merged.report.to_json(), reference);
        // No scheduler residue survives the merge.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !name.starts_with("lease-") && !name.ends_with(".tmp"),
                "scheduler residue after merge: {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
