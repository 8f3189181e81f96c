//! Per-cell campaign checkpoints: the resumable-service state codec.
//!
//! A checkpoint file captures one cell's streaming aggregator state
//! (`CellAccumulator`: online moments, quantile sketch, telemetry,
//! helper/timeline aggregates) plus a **trials-completed watermark**,
//! exactly enough for `rcb run --resume` to continue the cell from trial
//! `watermark` and still emit an artifact **byte-identical** to an
//! uninterrupted run. Two properties make that possible:
//!
//! * **Exact serialization.** Every `f64` in the accumulator (Welford
//!   mean/m2, min/max sentinels) is stored as its IEEE-754 bit pattern
//!   (an integer leaf), never as a decimal rendering — deserialization is
//!   the identity, so the restored accumulator continues the stream with
//!   the same non-associative floating-point state it paused with. All
//!   other state (sketch buckets, telemetry counters) is integral.
//! * **Atomic replacement.** `write_checkpoint` writes to a sibling
//!   `*.tmp` file and `rename`s it into place; a kill at any instant
//!   leaves either the previous checkpoint or the new one on disk, never
//!   a torn file. Torn writes that bypass the rename (or any other
//!   corruption) are caught on load by an FNV-1a checksum over the state
//!   payload and reported as a [`ServiceError`] — `file: message`, never a
//!   panic and never a silent recompute-from-zero.
//!
//! The content-addressed store ([`crate::store`]) reuses this codec: a
//! store entry is a completed-cell checkpoint (watermark == trials) filed
//! under a content hash instead of a cell index.

use crate::engine::{CellAccumulator, MetricAcc};
use crate::json::Json;
use crate::jsonin;
use rcb_sim::{EngineTelemetry, PhaseNanos, SPAN_HIST_BUCKETS};
use rcb_stats::{QuantileSketch, StreamingMoments};
use std::path::{Path, PathBuf};

/// Version of the checkpoint file schema (independent of the campaign
/// artifact's `SCHEMA_VERSION`; see `docs/SCHEMA.md`). History:
///
/// * **1** — initial format: header (key, campaign, cell index, seed,
///   watermark) + exact accumulator state + FNV-1a checksum.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// An error from the campaign service layer (checkpoint or store I/O,
/// validation, corruption). Rendered as `file: message` when a file is
/// involved; the CLI maps these to exit code 2.
#[derive(Clone, Debug)]
pub struct ServiceError {
    /// The file the error concerns, if any.
    pub file: Option<PathBuf>,
    /// What went wrong.
    pub message: String,
}

impl ServiceError {
    pub(crate) fn at(file: &Path, message: impl Into<String>) -> Self {
        Self {
            file: Some(file.to_path_buf()),
            message: message.into(),
        }
    }

    pub(crate) fn msg(message: impl Into<String>) -> Self {
        Self {
            file: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.file {
            Some(path) => write!(f, "{}: {}", path.display(), self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ServiceError {}

/// FNV-1a 64-bit over `bytes`, from an arbitrary basis (pass
/// [`FNV_BASIS`] for the standard hash; a second pass from a different
/// basis gives the store's 128-bit key).
pub(crate) fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The standard FNV-1a 64-bit offset basis.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One loaded (or about-to-be-written) cell checkpoint.
#[derive(Clone, Debug)]
pub struct CellCheckpoint {
    /// Watermark-independent cell identity key (see
    /// `cell_identity` in `store.rs`): resuming validates that the
    /// on-disk state belongs to the same (campaign, cell spec, seed base,
    /// slot cap, schema) before merging a single trial into it.
    pub key: String,
    /// Campaign name, for `file: message` diagnostics.
    pub campaign: String,
    /// Index of the cell within the campaign spec.
    pub cell_index: u64,
    /// Campaign master seed the trials derive from.
    pub seed: u64,
    /// Trials of this cell fully ingested into `state`.
    pub trials_done: u64,
    /// The exact aggregator state at the watermark.
    pub(crate) state: CellAccumulator,
}

/// Checkpoint file for cell `cell_index` under the state directory.
pub fn checkpoint_path(dir: &Path, cell_index: usize) -> PathBuf {
    dir.join(format!("cell-{cell_index:04}.ckpt.json"))
}

// ---------------------------------------------------------------------------
// State codec: CellAccumulator <-> Json, exact in both directions.
// ---------------------------------------------------------------------------

/// An `f64` as its bit pattern — the only leaf shape that survives a
/// serialize/parse round trip bit-for-bit.
fn bits(x: f64) -> Json {
    Json::Int(x.to_bits() as i128)
}

fn moments_to_json(m: &StreamingMoments) -> Json {
    let (n, mean, m2, min, max) = m.raw_parts();
    Json::obj(vec![
        ("n", n.into()),
        ("mean_bits", bits(mean)),
        ("m2_bits", bits(m2)),
        ("min_bits", bits(min)),
        ("max_bits", bits(max)),
    ])
}

fn metric_to_json(m: &MetricAcc) -> Json {
    Json::obj(vec![
        ("moments", moments_to_json(&m.moments)),
        (
            "sketch",
            Json::obj(vec![
                ("zeros", m.sketch.zeros().into()),
                ("count", m.sketch.count().into()),
                (
                    "buckets",
                    Json::arr(
                        m.sketch
                            .bucket_entries()
                            .into_iter()
                            .map(|(i, c)| Json::arr(vec![Json::Int(i as i128), c.into()]))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

fn telemetry_to_json(t: &EngineTelemetry) -> Json {
    Json::obj(vec![
        ("slots_stepped", t.slots_stepped.into()),
        ("slots_fast_forwarded", t.slots_fast_forwarded.into()),
        ("spans", t.spans.into()),
        (
            "span_len_hist",
            Json::arr(t.span_len_hist.iter().map(|&c| c.into()).collect()),
        ),
        ("rng_engine_draws", t.rng_engine_draws.into()),
        ("rng_node_draws", t.rng_node_draws.into()),
        ("jam_spent_stepped", t.jam_spent_stepped.into()),
        ("jam_spent_spans", t.jam_spent_spans.into()),
        ("observer_events", t.observer_events.into()),
        ("schedule_events", t.schedule_events.into()),
        ("ff_gated_segments", t.ff_gated_segments.into()),
        ("crashed_node_slots", t.crashed_node_slots.into()),
        (
            "phases",
            Json::obj(vec![
                ("setup", t.phases.setup.into()),
                ("slot_loop", t.phases.slot_loop.into()),
                ("fast_forward", t.phases.fast_forward.into()),
                ("finalize", t.phases.finalize.into()),
            ]),
        ),
    ])
}

/// Serialize the full accumulator state.
pub(crate) fn state_to_json(acc: &CellAccumulator) -> Json {
    Json::obj(vec![
        ("trials", acc.trials.into()),
        ("completed", acc.completed.into()),
        ("all_informed", acc.all_informed.into()),
        ("safety_violations", acc.safety_violations.into()),
        ("completion_slots", metric_to_json(&acc.completion_slots)),
        ("max_cost", metric_to_json(&acc.max_cost)),
        ("mean_cost", metric_to_json(&acc.mean_cost)),
        ("source_cost", metric_to_json(&acc.source_cost)),
        ("eve_spent", metric_to_json(&acc.eve_spent)),
        (
            "helper_events",
            Json::arr(
                acc.helper_events
                    .iter()
                    .map(|(&(epoch, phase), &count)| {
                        Json::arr(vec![epoch.into(), phase.into(), count.into()])
                    })
                    .collect(),
            ),
        ),
        ("crashed", metric_to_json(&acc.crashed)),
        ("survivors", metric_to_json(&acc.survivors)),
        (
            "survivors_informed",
            metric_to_json(&acc.survivors_informed),
        ),
        (
            "timeline",
            Json::arr(
                acc.timeline
                    .iter()
                    .map(|&(applied, min, max)| {
                        Json::arr(vec![applied.into(), min.into(), max.into()])
                    })
                    .collect(),
            ),
        ),
        ("telemetry", telemetry_to_json(&acc.telemetry)),
    ])
}

// -- parsing ----------------------------------------------------------------

pub(crate) fn get<'j>(v: &'j Json, key: &str) -> Result<&'j Json, String> {
    match v {
        Json::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`")),
        _ => Err(format!("expected an object holding `{key}`")),
    }
}

pub(crate) fn as_u64(v: &Json, key: &str) -> Result<u64, String> {
    match get(v, key)? {
        Json::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => Ok(*i as u64),
        other => Err(format!(
            "field `{key}` is not a u64 (got {})",
            other.to_compact()
        )),
    }
}

pub(crate) fn as_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, String> {
    match get(v, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!(
            "field `{key}` is not a string (got {})",
            other.to_compact()
        )),
    }
}

fn as_f64_bits(v: &Json, key: &str) -> Result<f64, String> {
    Ok(f64::from_bits(as_u64(v, key)?))
}

pub(crate) fn as_arr<'j>(v: &'j Json, key: &str) -> Result<&'j [Json], String> {
    match get(v, key)? {
        Json::Array(items) => Ok(items),
        other => Err(format!(
            "field `{key}` is not an array (got {})",
            other.to_compact()
        )),
    }
}

fn int_at(items: &[Json], i: usize, what: &str) -> Result<i128, String> {
    match items.get(i) {
        Some(Json::Int(v)) => Ok(*v),
        _ => Err(format!("{what}: element {i} is not an integer")),
    }
}

fn moments_from_json(v: &Json) -> Result<StreamingMoments, String> {
    Ok(StreamingMoments::from_raw_parts(
        as_u64(v, "n")?,
        as_f64_bits(v, "mean_bits")?,
        as_f64_bits(v, "m2_bits")?,
        as_f64_bits(v, "min_bits")?,
        as_f64_bits(v, "max_bits")?,
    ))
}

fn metric_from_json(v: &Json) -> Result<MetricAcc, String> {
    let moments = moments_from_json(get(v, "moments")?)?;
    let sk = get(v, "sketch")?;
    let zeros = as_u64(sk, "zeros")?;
    let count = as_u64(sk, "count")?;
    let mut buckets = Vec::new();
    let mut restored = zeros;
    for (i, b) in as_arr(sk, "buckets")?.iter().enumerate() {
        let Json::Array(pair) = b else {
            return Err(format!("sketch bucket {i} is not a pair"));
        };
        let idx = int_at(pair, 0, "sketch bucket")?;
        let c = int_at(pair, 1, "sketch bucket")?;
        if idx < i32::MIN as i128 || idx > i32::MAX as i128 || c < 0 {
            return Err(format!("sketch bucket {i} out of range"));
        }
        restored = restored
            .checked_add(c as u64)
            .ok_or_else(|| format!("sketch bucket {i} count overflows"))?;
        buckets.push((idx as i32, c as u64));
    }
    // Pre-validate what QuantileSketch::from_saved would panic on, so a
    // corrupt file degrades to an error instead of a panic.
    if restored != count {
        return Err(format!(
            "sketch state inconsistent: {restored} restored observations vs count {count}"
        ));
    }
    if count != moments.count() {
        return Err(format!(
            "metric state inconsistent: sketch count {count} vs moments count {}",
            moments.count()
        ));
    }
    Ok(MetricAcc {
        moments,
        sketch: QuantileSketch::from_saved(zeros, count, &buckets),
    })
}

fn telemetry_from_json(v: &Json) -> Result<EngineTelemetry, String> {
    let hist = as_arr(v, "span_len_hist")?;
    if hist.len() != SPAN_HIST_BUCKETS {
        return Err(format!(
            "span_len_hist has {} buckets, expected {SPAN_HIST_BUCKETS}",
            hist.len()
        ));
    }
    let mut span_len_hist = [0u64; SPAN_HIST_BUCKETS];
    for (i, b) in hist.iter().enumerate() {
        let c = int_at(hist, i, "span_len_hist")?;
        if c < 0 {
            return Err(format!("span_len_hist bucket {i} is negative"));
        }
        let _ = b;
        span_len_hist[i] = c as u64;
    }
    let phases = get(v, "phases")?;
    Ok(EngineTelemetry {
        slots_stepped: as_u64(v, "slots_stepped")?,
        slots_fast_forwarded: as_u64(v, "slots_fast_forwarded")?,
        spans: as_u64(v, "spans")?,
        span_len_hist,
        rng_engine_draws: as_u64(v, "rng_engine_draws")?,
        rng_node_draws: as_u64(v, "rng_node_draws")?,
        jam_spent_stepped: as_u64(v, "jam_spent_stepped")?,
        jam_spent_spans: as_u64(v, "jam_spent_spans")?,
        observer_events: as_u64(v, "observer_events")?,
        schedule_events: as_u64(v, "schedule_events")?,
        ff_gated_segments: as_u64(v, "ff_gated_segments")?,
        crashed_node_slots: as_u64(v, "crashed_node_slots")?,
        phases: PhaseNanos {
            setup: as_u64(phases, "setup")?,
            slot_loop: as_u64(phases, "slot_loop")?,
            fast_forward: as_u64(phases, "fast_forward")?,
            finalize: as_u64(phases, "finalize")?,
        },
    })
}

/// Rebuild the accumulator from its serialized state. Exact inverse of
/// [`state_to_json`]; any structural or consistency problem is an error.
pub(crate) fn state_from_json(v: &Json) -> Result<CellAccumulator, String> {
    let mut helper_events = std::collections::BTreeMap::new();
    for (i, e) in as_arr(v, "helper_events")?.iter().enumerate() {
        let Json::Array(triple) = e else {
            return Err(format!("helper_events[{i}] is not a triple"));
        };
        let epoch = int_at(triple, 0, "helper_events")?;
        let phase = int_at(triple, 1, "helper_events")?;
        let count = int_at(triple, 2, "helper_events")?;
        if epoch < 0
            || epoch > u32::MAX as i128
            || phase < 0
            || phase > u32::MAX as i128
            || count < 0
        {
            return Err(format!("helper_events[{i}] out of range"));
        }
        helper_events.insert((epoch as u32, phase as u32), count as u64);
    }
    let mut timeline = Vec::new();
    for (i, e) in as_arr(v, "timeline")?.iter().enumerate() {
        let Json::Array(triple) = e else {
            return Err(format!("timeline[{i}] is not a triple"));
        };
        let applied = int_at(triple, 0, "timeline")?;
        let min = int_at(triple, 1, "timeline")?;
        let max = int_at(triple, 2, "timeline")?;
        if applied < 0 || min < 0 || max < 0 {
            return Err(format!("timeline[{i}] out of range"));
        }
        timeline.push((applied as u64, min as u64, max as u64));
    }
    let acc = CellAccumulator {
        trials: as_u64(v, "trials")?,
        completed: as_u64(v, "completed")?,
        all_informed: as_u64(v, "all_informed")?,
        safety_violations: as_u64(v, "safety_violations")?,
        completion_slots: metric_from_json(get(v, "completion_slots")?)?,
        max_cost: metric_from_json(get(v, "max_cost")?)?,
        mean_cost: metric_from_json(get(v, "mean_cost")?)?,
        source_cost: metric_from_json(get(v, "source_cost")?)?,
        eve_spent: metric_from_json(get(v, "eve_spent")?)?,
        helper_events,
        crashed: metric_from_json(get(v, "crashed")?)?,
        survivors: metric_from_json(get(v, "survivors")?)?,
        survivors_informed: metric_from_json(get(v, "survivors_informed")?)?,
        timeline,
        telemetry: telemetry_from_json(get(v, "telemetry")?)?,
    };
    if acc.completion_slots.moments.count() != acc.trials {
        return Err(format!(
            "state inconsistent: {} metric observations vs {} trials",
            acc.completion_slots.moments.count(),
            acc.trials
        ));
    }
    Ok(acc)
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Checksum input: the watermark and the compact state payload, bound to
/// the cell key so a checkpoint can't validate against the wrong cell.
fn checksum(key: &str, trials_done: u64, state_compact: &str) -> String {
    let input = format!("{key}|{trials_done}|{state_compact}");
    format!("{:016x}", fnv1a64(input.as_bytes(), FNV_BASIS))
}

/// Render a checkpoint document (shared with the store, which files the
/// same document shape under a content hash).
pub(crate) fn checkpoint_to_json(ckpt: &CellCheckpoint, kind: &str) -> Json {
    let state = state_to_json(&ckpt.state);
    let sum = checksum(&ckpt.key, ckpt.trials_done, &state.to_compact());
    Json::obj(vec![
        ("schema_version", CHECKPOINT_SCHEMA_VERSION.into()),
        ("kind", kind.into()),
        ("key", ckpt.key.as_str().into()),
        ("campaign", ckpt.campaign.as_str().into()),
        ("cell_index", ckpt.cell_index.into()),
        ("seed", ckpt.seed.into()),
        ("trials_done", ckpt.trials_done.into()),
        ("state", state),
        ("checksum", sum.into()),
    ])
}

/// Parse and validate a checkpoint document: structure, kind, schema
/// version, and the checksum over the state payload.
pub(crate) fn checkpoint_from_json(v: &Json, kind: &str) -> Result<CellCheckpoint, String> {
    let got_kind = as_str(v, "kind")?;
    if got_kind != kind {
        return Err(format!("wrong kind: `{got_kind}`, expected `{kind}`"));
    }
    let version = as_u64(v, "schema_version")?;
    if version != CHECKPOINT_SCHEMA_VERSION {
        return Err(format!(
            "unsupported checkpoint schema version {version} (this build reads {CHECKPOINT_SCHEMA_VERSION})"
        ));
    }
    let key = as_str(v, "key")?.to_string();
    let trials_done = as_u64(v, "trials_done")?;
    let state_json = get(v, "state")?;
    // Integer-only leaves round-trip exactly through the parser, so the
    // re-rendered compact payload is byte-identical to what was hashed at
    // write time; any flipped or missing byte inside `state` shows up here.
    let expect = checksum(&key, trials_done, &state_json.to_compact());
    let got = as_str(v, "checksum")?;
    if got != expect {
        return Err("checksum mismatch (corrupt or truncated checkpoint)".to_string());
    }
    let state = state_from_json(state_json)?;
    if state.trials != trials_done {
        return Err(format!(
            "watermark {trials_done} disagrees with state trial count {}",
            state.trials
        ));
    }
    Ok(CellCheckpoint {
        key,
        campaign: as_str(v, "campaign")?.to_string(),
        cell_index: as_u64(v, "cell_index")?,
        seed: as_u64(v, "seed")?,
        trials_done,
        state,
    })
}

/// Write `contents` to `path` atomically: temp file in the same directory,
/// flush, then rename over the target. A kill at any instant leaves either
/// the old file or the new one.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), ServiceError> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| ServiceError::at(&tmp, e.to_string());
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(contents.as_bytes()).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| ServiceError::at(path, e.to_string()))
}

/// Atomically write cell `cell_index`'s checkpoint under `dir` (created if
/// missing).
pub(crate) fn write_checkpoint(dir: &Path, ckpt: &CellCheckpoint) -> Result<(), ServiceError> {
    std::fs::create_dir_all(dir).map_err(|e| ServiceError::at(dir, e.to_string()))?;
    let path = checkpoint_path(dir, ckpt.cell_index as usize);
    write_atomic(
        &path,
        &checkpoint_to_json(ckpt, "rcb-cell-checkpoint").to_pretty(),
    )
}

/// Load and validate one cell checkpoint. `Ok(None)` when the file does
/// not exist (a fresh cell); every other failure — unreadable, malformed,
/// checksum mismatch, inconsistent state — is a [`ServiceError`] naming
/// the file.
pub fn load_checkpoint(path: &Path) -> Result<Option<CellCheckpoint>, ServiceError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServiceError::at(path, e.to_string())),
    };
    let v = jsonin::parse(&text).map_err(|e| ServiceError::at(path, e))?;
    checkpoint_from_json(&v, "rcb-cell-checkpoint")
        .map(Some)
        .map_err(|e| ServiceError::at(path, e))
}

/// [`load_checkpoint`] for a cell about to be resumed, merged or scanned:
/// the checkpoint must carry the cell's identity `key` and a watermark of
/// at most `trials`. The one place those refusals are made, for every
/// entry point (`rcb run --resume` and every `rcb shard` subcommand).
pub(crate) fn load_cell_checkpoint(
    path: &Path,
    key: &str,
    trials: u64,
) -> Result<Option<CellCheckpoint>, ServiceError> {
    let Some(ckpt) = load_checkpoint(path)? else {
        return Ok(None);
    };
    if ckpt.key != key {
        return Err(ServiceError::at(
            path,
            format!(
                "checkpoint belongs to a different cell configuration (key {} vs expected \
                 {key}); move or delete the state directory",
                ckpt.key
            ),
        ));
    }
    if ckpt.trials_done > trials {
        return Err(ServiceError::at(
            path,
            format!(
                "checkpoint watermark {} exceeds the requested {trials} trials; trials can grow \
                 incrementally but never shrink",
                ckpt.trials_done
            ),
        ));
    }
    Ok(Some(ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared FNV-1a is the published 64-bit function: store keys,
    /// shard plan ids and bench trial seeds all stand on it.
    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b"", FNV_BASIS), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a", FNV_BASIS), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar", FNV_BASIS), 0x8594_4171_f739_67e8);
    }

    fn filled_acc(trials: u64, salt: u64) -> CellAccumulator {
        // A deterministic, structurally-rich accumulator: nonzero sketch
        // buckets, helper events, timeline entries, and telemetry.
        let mut acc = CellAccumulator::new();
        for i in 0..trials {
            let x = ((i * 2654435761 + salt) % 10_007) as f64 * 0.25;
            acc.completion_slots.push(x);
            acc.max_cost.push(x * 0.5);
            acc.mean_cost.push(x * 0.125 + 0.33);
            acc.source_cost.push((i % 17) as f64);
            acc.eve_spent.push(x * 3.0);
            acc.crashed.push((i % 3) as f64);
            acc.survivors.push(14.0);
            acc.survivors_informed.push(13.0);
            acc.trials += 1;
            acc.completed += i % 2;
            acc.all_informed += (i % 3 == 0) as u64;
        }
        acc.helper_events.insert((3, 1), 7);
        acc.helper_events.insert((5, 2), 2);
        acc.timeline.push((trials, 64, 80));
        acc.telemetry.slots_stepped = 12_345 + salt;
        acc.telemetry.slots_fast_forwarded = 99_999;
        acc.telemetry.spans = 7;
        acc.telemetry.span_len_hist[3] = 4;
        acc.telemetry.span_len_hist[13] = 3;
        acc.telemetry.rng_node_draws = 4242;
        acc.telemetry.phases.slot_loop = 5_000_001;
        acc
    }

    fn ckpt(trials: u64) -> CellCheckpoint {
        CellCheckpoint {
            key: "deadbeefdeadbeefdeadbeefdeadbeef".into(),
            campaign: "test".into(),
            cell_index: 2,
            seed: 42,
            trials_done: trials,
            state: filled_acc(trials, 9),
        }
    }

    #[test]
    fn state_codec_round_trips_exactly() {
        let acc = filled_acc(37, 1);
        let json = state_to_json(&acc);
        let back = state_from_json(&json).expect("valid state");
        // Bit-exact: serializing the restored state reproduces the bytes.
        assert_eq!(json.to_compact(), state_to_json(&back).to_compact());
        // And a parse round trip through the text form stays exact.
        let reparsed = jsonin::parse(&json.to_pretty()).expect("valid json");
        assert_eq!(reparsed.to_compact(), json.to_compact());
    }

    #[test]
    fn checkpoint_document_round_trips() {
        let c = ckpt(37);
        let doc = checkpoint_to_json(&c, "rcb-cell-checkpoint");
        let back = checkpoint_from_json(&doc, "rcb-cell-checkpoint").expect("valid");
        assert_eq!(back.key, c.key);
        assert_eq!(back.trials_done, 37);
        assert_eq!(back.cell_index, 2);
        assert_eq!(
            state_to_json(&back.state).to_compact(),
            state_to_json(&c.state).to_compact()
        );
    }

    #[test]
    fn corrupt_state_fails_the_checksum() {
        let doc = checkpoint_to_json(&ckpt(20), "rcb-cell-checkpoint").to_pretty();
        // Flip one digit inside the state payload (a telemetry counter).
        let corrupt = doc.replacen("12354", "12355", 1);
        assert_ne!(doc, corrupt, "the probe value must exist");
        let v = jsonin::parse(&corrupt).expect("still valid json");
        let err = checkpoint_from_json(&v, "rcb-cell-checkpoint").unwrap_err();
        assert!(err.contains("checksum mismatch"), "got: {err}");
    }

    #[test]
    fn wrong_kind_and_version_are_rejected() {
        let doc = checkpoint_to_json(&ckpt(5), "rcb-cell-checkpoint");
        let err = checkpoint_from_json(&doc, "rcb-store-entry").unwrap_err();
        assert!(err.contains("wrong kind"), "got: {err}");
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("rcb-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ckpt(37);
        write_checkpoint(&dir, &c).expect("write");
        let path = checkpoint_path(&dir, 2);
        let back = load_checkpoint(&path).expect("load").expect("present");
        assert_eq!(back.trials_done, 37);
        // No stray temp file left behind.
        assert!(!path.with_extension("tmp").exists());
        // A missing checkpoint is Ok(None), not an error.
        assert!(load_checkpoint(&checkpoint_path(&dir, 7))
            .expect("missing is fine")
            .is_none());
        // Truncation is detected and names the file.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().starts_with(&path.display().to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
