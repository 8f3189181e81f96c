//! Campaign artifacts: the schema-versioned JSON report and the human
//! table.
//!
//! The JSON artifact is the machine-readable product of a campaign — the
//! file that seeds the repo's `BENCH_<scenario>.json` performance
//! trajectory. Its byte content is a pure function of (scenario, seed,
//! trials, max-slots override); thread count, wall-clock time, and host
//! never leak into it. Bump [`SCHEMA_VERSION`] on any field change.

use crate::json::Json;
use rcb_sim::EngineTelemetry;
use rcb_stats::Table;

/// Version of the JSON artifact schema. History:
///
/// * **1** — initial schema: campaign header + per-cell
///   counts/rates/metric distributions (mean/std/min/max/p50/p90/p99).
/// * **2** — per-cell `topology` (connectivity graph of the cell's trials;
///   `"complete"` is the paper's single-hop model) and `helper_events`
///   (count per distinct `MultiCastAdv` helper `(epoch, phase)`).
/// * **3** — header `code_version` (build stamp of the producing binary)
///   and per-cell `perf` block ([`CellPerf`]): engine telemetry counter
///   sums plus opt-in wall-clock phase timing. The counter leaves are
///   deterministic; the wall-clock leaves are host-dependent and are
///   ignored by `rcb diff` by default (zeros unless timing was requested).
/// * **4** — per-cell `schedule` block ([`ScheduleReport`]) on cells that
///   run under a world schedule (nemesis fault injection): the event list,
///   the aggregated application timeline, survivor-relative outcome
///   distributions, and the schedule telemetry counters
///   (`schedule_events`, `crashed_node_slots`). The block is **omitted
///   entirely** for unscheduled cells, so every pre-existing cell's JSON is
///   byte-identical to its v3 rendering.
/// * **5** — `perf.ff_gated_segments`: segments where the heuristic
///   fast-forward gate fell back to the plain slot loop.
pub const SCHEMA_VERSION: u64 = 5;

/// Build stamp of this binary, `<git12|unknown>+<hash>` (stamped into
/// every artifact header as `code_version`, and part of every store key).
/// The hash is a content hash of the campaign's sources (`build.rs`), so it
/// changes with any source edit; the git revision is only a label, and
/// `unknown` when git was unavailable at build time.
pub fn code_version() -> &'static str {
    env!("RCB_CODE_VERSION")
}

/// One non-empty bucket of the fast-forward span length histogram:
/// `count` spans had length in `[2^log2, 2^(log2+1))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanLenBucket {
    pub log2: u32,
    pub count: u64,
}

/// The per-cell `perf` block: engine telemetry merged over the cell's
/// trials.
///
/// Two kinds of leaves live here, deliberately in one block:
///
/// * **Deterministic counters** (`slots_*`, `spans`, `rng_*`, `jam_*`,
///   `observer_events`, the histogram and the ratios derived from them) —
///   pure functions of (scenario, seed, trials); byte-identical across
///   hosts, thread counts, and whether timing was enabled.
/// * **Host-dependent timing** (`wall_s`, `slots_per_sec`, and the four
///   `*_s` phase leaves) — all zero unless the producer opted into
///   wall-clock collection (`rcb run --perf`, `rcb bench`, `rcb profile`).
///   `rcb diff` ignores these leaves by default ([`crate::diff::DEFAULT_IGNORES`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellPerf {
    pub slots_total: u64,
    pub slots_stepped: u64,
    pub slots_fast_forwarded: u64,
    /// `slots_fast_forwarded / slots_total` (0 for empty cells).
    pub ff_skip_ratio: f64,
    pub spans: u64,
    pub mean_span_len: f64,
    /// Segments where the heuristic fast-forward gate fell back to the
    /// plain slot loop (idle spans too unlikely or the run too short).
    pub ff_gated_segments: u64,
    /// Sparse log₂ histogram of fast-forward span lengths (non-empty
    /// buckets only, ascending `log2`).
    pub span_len_hist: Vec<SpanLenBucket>,
    pub rng_engine_draws: u64,
    pub rng_node_draws: u64,
    pub jam_spent_stepped: u64,
    pub jam_spent_spans: u64,
    pub observer_events: u64,
    /// Total wall-clock seconds attributed to the cell (0 when untimed).
    pub wall_s: f64,
    /// Covered slots (stepped + fast-forwarded) per wall second (0 when
    /// untimed).
    pub slots_per_sec: f64,
    pub setup_s: f64,
    pub slot_loop_s: f64,
    pub fast_forward_s: f64,
    pub finalize_s: f64,
}

impl CellPerf {
    /// Build the block from merged engine telemetry plus a wall-clock total.
    ///
    /// Pass `wall_s = 0.0` when no timing was collected; the throughput
    /// leaf stays zero rather than dividing by a meaningless duration.
    pub fn from_telemetry(tel: &EngineTelemetry, wall_s: f64) -> Self {
        let ns = 1e-9;
        Self {
            slots_total: tel.slots_total(),
            slots_stepped: tel.slots_stepped,
            slots_fast_forwarded: tel.slots_fast_forwarded,
            ff_skip_ratio: tel.ff_skip_ratio(),
            spans: tel.spans,
            mean_span_len: tel.mean_span_len(),
            ff_gated_segments: tel.ff_gated_segments,
            span_len_hist: tel
                .span_len_hist
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| SpanLenBucket {
                    log2: b as u32,
                    count: c,
                })
                .collect(),
            rng_engine_draws: tel.rng_engine_draws,
            rng_node_draws: tel.rng_node_draws,
            jam_spent_stepped: tel.jam_spent_stepped,
            jam_spent_spans: tel.jam_spent_spans,
            observer_events: tel.observer_events,
            wall_s,
            slots_per_sec: if wall_s > 0.0 {
                tel.slots_total() as f64 / wall_s
            } else {
                0.0
            },
            setup_s: tel.phases.setup as f64 * ns,
            slot_loop_s: tel.phases.slot_loop as f64 * ns,
            fast_forward_s: tel.phases.fast_forward as f64 * ns,
            finalize_s: tel.phases.finalize as f64 * ns,
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("slots_total", self.slots_total.into()),
            ("slots_stepped", self.slots_stepped.into()),
            ("slots_fast_forwarded", self.slots_fast_forwarded.into()),
            ("ff_skip_ratio", self.ff_skip_ratio.into()),
            ("spans", self.spans.into()),
            ("mean_span_len", self.mean_span_len.into()),
            ("ff_gated_segments", self.ff_gated_segments.into()),
            (
                "span_len_hist",
                Json::arr(
                    self.span_len_hist
                        .iter()
                        .map(|b| {
                            Json::obj(vec![("log2", b.log2.into()), ("count", b.count.into())])
                        })
                        .collect(),
                ),
            ),
            ("rng_engine_draws", self.rng_engine_draws.into()),
            ("rng_node_draws", self.rng_node_draws.into()),
            ("jam_spent_stepped", self.jam_spent_stepped.into()),
            ("jam_spent_spans", self.jam_spent_spans.into()),
            ("observer_events", self.observer_events.into()),
            ("wall_s", self.wall_s.into()),
            ("slots_per_sec", self.slots_per_sec.into()),
            ("setup_s", self.setup_s.into()),
            ("slot_loop_s", self.slot_loop_s.into()),
            ("fast_forward_s", self.fast_forward_s.into()),
            ("finalize_s", self.finalize_s.into()),
        ])
    }
}

/// Aggregated application record of one scheduled world event (schema v4).
///
/// Events apply at the first round start at or after their scheduled slot,
/// and they apply in spec order, so entry `i` of a cell's timeline always
/// corresponds to event `i` of the cell's schedule. A trial that ends
/// before reaching an event leaves no marker, which is what
/// `applied_trials < trials` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Slot the event was scheduled at.
    pub scheduled_at: u64,
    /// Trials in which the event was actually applied.
    pub applied_trials: u64,
    /// Earliest application slot seen across those trials.
    pub applied_at_min: u64,
    /// Latest application slot seen across those trials.
    pub applied_at_max: u64,
}

impl TimelineEntry {
    fn to_json(self, kind: &str) -> Json {
        Json::obj(vec![
            ("kind", kind.into()),
            ("scheduled_at", self.scheduled_at.into()),
            ("applied_trials", self.applied_trials.into()),
            ("applied_at_min", self.applied_at_min.into()),
            ("applied_at_max", self.applied_at_max.into()),
        ])
    }
}

/// The per-cell `schedule` block (schema v4): present only on cells that
/// run under a non-empty world schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleReport {
    /// Number of scheduled events.
    pub events: u64,
    /// Slot of the first scheduled event.
    pub first_slot: u64,
    /// Slot of the last scheduled event.
    pub last_slot: u64,
    /// Human-readable event list (`"crash@64, recover@640"`).
    pub detail: String,
    /// Event kinds, aligned with [`Self::timeline`].
    pub kinds: Vec<String>,
    /// Aggregated application record per event, in schedule order.
    pub timeline: Vec<TimelineEntry>,
    /// Crashed-node count at end of run, over trials.
    pub crashed: MetricReport,
    /// Survivor-relative informed target, over trials.
    pub survivors: MetricReport,
    /// Survivors actually informed, over trials.
    pub survivors_informed: MetricReport,
    /// Total schedule boundaries the engine processed (telemetry sum).
    pub schedule_events: u64,
    /// Integral of crashed-node count over slots (telemetry sum).
    pub crashed_node_slots: u64,
}

impl ScheduleReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("events", self.events.into()),
            ("first_slot", self.first_slot.into()),
            ("last_slot", self.last_slot.into()),
            ("detail", self.detail.as_str().into()),
            (
                "timeline",
                Json::arr(
                    self.timeline
                        .iter()
                        .zip(&self.kinds)
                        .map(|(t, kind)| t.to_json(kind))
                        .collect(),
                ),
            ),
            ("crashed", self.crashed.to_json()),
            ("survivors", self.survivors.to_json()),
            ("survivors_informed", self.survivors_informed.to_json()),
            ("schedule_events", self.schedule_events.into()),
            ("crashed_node_slots", self.crashed_node_slots.into()),
        ])
    }
}

/// How many trials saw a helper promotion at a given `(epoch, phase)` of
/// the `MultiCastAdv` schedule (Lemmas 6.1–6.3 localize these events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelperPhaseCount {
    pub epoch: u32,
    pub phase: u32,
    pub count: u64,
}

impl HelperPhaseCount {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("epoch", self.epoch.into()),
            ("phase", self.phase.into()),
            ("count", self.count.into()),
        ])
    }
}

/// Distribution summary of one metric over a cell's trials.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricReport {
    pub count: u64,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
    /// Quantiles from the streaming sketch (1% relative error).
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl MetricReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count.into()),
            ("mean", self.mean.into()),
            ("std_dev", self.std_dev.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("p50", self.p50.into()),
            ("p90", self.p90.into()),
            ("p99", self.p99.into()),
        ])
    }
}

/// Aggregated results for one campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    pub protocol: String,
    pub adversary: String,
    /// Connectivity topology the cell ran over (`"complete"` = single-hop).
    pub topology: String,
    pub n: u64,
    /// Eve's budget `T` for this cell.
    pub budget: u64,
    /// Engine slot cap the cell ran under.
    pub max_slots: u64,
    pub trials: u64,
    pub completed: u64,
    pub all_informed: u64,
    pub completion_rate: f64,
    /// Summed over trials; any nonzero value is a protocol bug.
    pub safety_violations: u64,
    pub completion_slots: MetricReport,
    pub max_node_cost: MetricReport,
    pub mean_node_cost: MetricReport,
    pub source_cost: MetricReport,
    pub eve_spent: MetricReport,
    /// Helper promotions per `(epoch, phase)` over the cell's trials
    /// (`MultiCastAdv` only; empty otherwise).
    pub helper_events: Vec<HelperPhaseCount>,
    /// Engine telemetry merged over the cell's trials (schema v3).
    pub perf: CellPerf,
    /// World-schedule block (schema v4); `None` — and absent from the
    /// JSON — for unscheduled cells.
    pub schedule: Option<ScheduleReport>,
}

impl CellReport {
    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![
            ("protocol", self.protocol.as_str().into()),
            ("adversary", self.adversary.as_str().into()),
            ("topology", self.topology.as_str().into()),
            ("n", self.n.into()),
            ("budget", self.budget.into()),
            ("max_slots", self.max_slots.into()),
            ("trials", self.trials.into()),
            ("completed", self.completed.into()),
            ("all_informed", self.all_informed.into()),
            ("completion_rate", self.completion_rate.into()),
            ("safety_violations", self.safety_violations.into()),
            (
                "metrics",
                Json::obj(vec![
                    ("completion_slots", self.completion_slots.to_json()),
                    ("max_node_cost", self.max_node_cost.to_json()),
                    ("mean_node_cost", self.mean_node_cost.to_json()),
                    ("source_cost", self.source_cost.to_json()),
                    ("eve_spent", self.eve_spent.to_json()),
                ]),
            ),
            (
                "helper_events",
                Json::arr(self.helper_events.iter().map(|h| h.to_json()).collect()),
            ),
            ("perf", self.perf.to_json()),
        ];
        if let Some(sched) = &self.schedule {
            fields.push(("schedule", sched.to_json()));
        }
        Json::obj(fields)
    }
}

/// The full campaign artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    pub campaign: String,
    pub description: String,
    /// Git revision of the binary that produced the artifact
    /// (`"unknown"` when git was unavailable at build time). Ignored by
    /// `rcb diff` by default.
    pub code_version: String,
    pub seed: u64,
    pub trials_per_cell: u64,
    pub total_trials: u64,
    /// One entry per cell, in spec order.
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// Serialize as the schema-versioned, pretty-printed JSON artifact.
    /// Deterministic: same report ⇒ same bytes.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("schema_version", SCHEMA_VERSION.into()),
            ("kind", "rcb-campaign-report".into()),
            ("code_version", self.code_version.as_str().into()),
            ("campaign", self.campaign.as_str().into()),
            ("description", self.description.as_str().into()),
            ("seed", self.seed.into()),
            ("trials_per_cell", self.trials_per_cell.into()),
            ("total_trials", self.total_trials.into()),
            (
                "cells",
                Json::arr(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Render the human-facing summary table (via `rcb-stats`).
    pub fn to_table(&self) -> String {
        let mut table = Table::new(&[
            "protocol",
            "adversary",
            "topo",
            "n",
            "T",
            "trials",
            "ok",
            "time p50",
            "time p99",
            "maxcost p50",
            "eve mean",
            "viol",
        ]);
        for c in &self.cells {
            table.row(&[
                c.protocol.clone(),
                c.adversary.clone(),
                c.topology.clone(),
                c.n.to_string(),
                c.budget.to_string(),
                c.trials.to_string(),
                format!("{:.0}%", 100.0 * c.completion_rate),
                format!("{:.0}", c.completion_slots.p50),
                format!("{:.0}", c.completion_slots.p99),
                format!("{:.0}", c.max_node_cost.p50),
                format!("{:.0}", c.eve_spent.mean),
                c.safety_violations.to_string(),
            ]);
        }
        format!(
            "# campaign `{}` — seed {}, {} trials/cell, {} total\n\n{}",
            self.campaign,
            self.seed,
            self.trials_per_cell,
            self.total_trials,
            table.markdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(v: f64) -> MetricReport {
        MetricReport {
            count: 3,
            mean: v,
            std_dev: 0.5,
            min: v - 1.0,
            max: v + 1.0,
            p50: v,
            p90: v + 0.5,
            p99: v + 0.9,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            campaign: "demo".into(),
            description: "a \"quoted\" description".into(),
            code_version: "deadbeef".into(),
            seed: 9,
            trials_per_cell: 3,
            total_trials: 3,
            cells: vec![CellReport {
                protocol: "MultiCast".into(),
                adversary: "uniform".into(),
                topology: "line".into(),
                n: 64,
                budget: 1000,
                max_slots: 5000,
                trials: 3,
                completed: 3,
                all_informed: 3,
                completion_rate: 1.0,
                safety_violations: 0,
                completion_slots: metric(120.0),
                max_node_cost: metric(14.0),
                mean_node_cost: metric(9.0),
                source_cost: metric(11.0),
                eve_spent: metric(800.0),
                helper_events: vec![HelperPhaseCount {
                    epoch: 7,
                    phase: 3,
                    count: 2,
                }],
                perf: CellPerf::default(),
                schedule: None,
            }],
        }
    }

    #[test]
    fn json_has_schema_version_and_escapes() {
        let j = report().to_json();
        assert!(j.starts_with("{\n  \"schema_version\": 5,"));
        assert!(j.contains("\"kind\": \"rcb-campaign-report\""));
        assert!(j.contains("\"code_version\": \"deadbeef\""));
        assert!(j.contains(r#"a \"quoted\" description"#));
        assert!(j.contains("\"completion_slots\""));
        assert!(j.contains("\"topology\": \"line\""));
        assert!(j.contains("\"helper_events\""));
        assert!(j.contains("\"epoch\": 7"));
        assert!(j.contains("\"perf\""));
        assert!(j.contains("\"ff_skip_ratio\""));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn cell_perf_from_telemetry_derives_ratios() {
        let mut tel = EngineTelemetry {
            slots_stepped: 100,
            slots_fast_forwarded: 300,
            spans: 2,
            jam_spent_spans: 50,
            jam_spent_stepped: 5,
            ..EngineTelemetry::default()
        };
        tel.span_len_hist[6] = 1; // one span of length ~100
        tel.span_len_hist[7] = 1; // one span of length ~200
        let p = CellPerf::from_telemetry(&tel, 0.0);
        assert_eq!(p.slots_total, 400);
        assert!((p.ff_skip_ratio - 0.75).abs() < 1e-12);
        assert_eq!(p.spans, 2);
        assert!((p.mean_span_len - 150.0).abs() < 1e-12);
        // Untimed: every wall-clock leaf stays exactly zero.
        assert_eq!(p.wall_s, 0.0);
        assert_eq!(p.slots_per_sec, 0.0);
        assert_eq!(p.slot_loop_s, 0.0);
        // Sparse histogram: 100 → bucket 6, 200 → bucket 7.
        let buckets: Vec<u32> = p.span_len_hist.iter().map(|b| b.log2).collect();
        assert_eq!(buckets, vec![6, 7]);
    }

    /// Schema v4's central compatibility promise: the `schedule` block is a
    /// *conditional* leaf set. Absent → the cell JSON is byte-identical to
    /// its v3 rendering; present → the block carries the timeline and the
    /// survivor-relative distributions.
    #[test]
    fn schedule_block_is_emitted_only_for_scheduled_cells() {
        let mut r = report();
        let without = r.to_json();
        assert!(!without.contains("\"schedule\""));

        r.cells[0].schedule = Some(ScheduleReport {
            events: 2,
            first_slot: 64,
            last_slot: 640,
            detail: "crash@64, recover@640".into(),
            kinds: vec!["crash".into(), "recover".into()],
            timeline: vec![
                TimelineEntry {
                    scheduled_at: 64,
                    applied_trials: 3,
                    applied_at_min: 64,
                    applied_at_max: 64,
                },
                TimelineEntry {
                    scheduled_at: 640,
                    applied_trials: 2,
                    applied_at_min: 640,
                    applied_at_max: 672,
                },
            ],
            crashed: metric(4.0),
            survivors: metric(60.0),
            survivors_informed: metric(60.0),
            schedule_events: 5,
            crashed_node_slots: 2304,
        });
        let with = r.to_json();
        assert!(with.contains("\"schedule\""));
        assert!(with.contains("\"detail\": \"crash@64, recover@640\""));
        assert!(with.contains("\"kind\": \"recover\""));
        assert!(with.contains("\"applied_trials\": 2"));
        assert!(with.contains("\"survivors_informed\""));
        assert!(with.contains("\"schedule_events\": 5"));
        assert!(with.contains("\"crashed_node_slots\": 2304"));
        // Everything before the schedule block is untouched: the scheduled
        // rendering extends the unscheduled one rather than rewriting it.
        let common = with
            .bytes()
            .zip(without.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let perf_at = without.find("\"perf\"").expect("perf block");
        assert!(
            common > perf_at,
            "divergence must come after the perf block"
        );
    }

    #[test]
    fn code_version_is_nonempty() {
        assert!(!code_version().is_empty());
    }

    #[test]
    fn json_is_reproducible() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn table_renders_every_cell() {
        let t = report().to_table();
        assert!(t.contains("MultiCast"));
        assert!(t.contains("| 100%"));
        assert!(t.contains("campaign `demo`"));
    }
}
