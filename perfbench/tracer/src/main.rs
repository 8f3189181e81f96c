//! Traced mode of the campaign benchmark (`python3 perfbench/run.py
//! --trace 1`).
//!
//! Runs one workload spec in-process, single-threaded, against the
//! workspace's public API and records a span around every call into a
//! layer:
//!
//! 1. every trial of the end-to-end run, re-derived with the public
//!    `cell_trial_seed`, through `rcb_harness::run_trial_telemetry` with the
//!    engine's opt-in phase clock on and a counting observer mounted (the
//!    phase clock gives each trial span its `radio-sim` children), then
//!    each trial's `TopologyKind::build` again on its own, to price it;
//! 2. a replay of the per-trial values through `rcb_stats`, which is also
//!    the fold `run.py` compares against the end-to-end artifact;
//! 3. the same trials untraced (no phase clock, no observer), to price
//!    the tracing itself;
//! 4. in-process `run_campaign_service` runs at one and two workers, plus
//!    report serialization and parsing;
//! 5. with `--service-every`, the checkpoint/store service: a cold run,
//!    checkpoint loads and a warm (all store hits) run;
//! 6. unit-cost calibration of the hot public functions and of the phase
//!    clock's own reading.
//!
//! Spans stay in memory and are written to `--spans-out` once, at the end.
//! The artifacts `run.py` checks (the fold and every in-process report)
//! go to `--work-dir`; the per-layer metrics go to stdout as one JSON line.

use rcb_campaign::{
    checkpoint_path, jsonin, load_checkpoint, load_spec, run_campaign_service, CampaignConfig,
    CampaignReport, CampaignSpec, CellSpec, Json, ServiceConfig, ServiceRun, Store,
};
use rcb_harness::{cell_trial_seed, run_trial_telemetry, TrialOptions, TrialResult, TrialSpec};
use rcb_sim::{
    geometric_gap, EngineTelemetry, Observer, PhaseNanos, SlotProfile, SlotStats, Xoshiro256,
};
use rcb_stats::{QuantileSketch, StreamingMoments};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    spec: String,
    trials: u64,
    seed: u64,
    work_dir: PathBuf,
    spans_out: PathBuf,
    /// Checkpoint interval of the service calls; `None` skips them.
    service_every: Option<u64>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    eprintln!(
        "usage: perfbench-tracer --spec FILE --trials N --seed S --work-dir DIR \
         --spans-out FILE [--service-every K]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut trials = None;
    let mut seed = None;
    let mut work_dir = None;
    let mut spans_out = None;
    let mut service_every = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag}: missing value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {v}")))
        };
        match flag.as_str() {
            "--spec" => spec = Some(value),
            "--trials" => trials = Some(number(&value)),
            "--seed" => seed = Some(number(&value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            "--service-every" => service_every = Some(number(&value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let trials = trials.unwrap_or_else(|| usage("--trials is required"));
    if trials == 0 {
        usage("--trials: must be at least 1");
    }
    if service_every == Some(0) {
        usage("--service-every: must be at least 1");
    }
    Args {
        spec: spec.unwrap_or_else(|| usage("--spec is required")),
        trials,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
        spans_out: spans_out.unwrap_or_else(|| usage("--spans-out is required")),
        service_every,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    std::process::exit(1)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call. A span's layer is its name up to the first `.`.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    trial: Option<u64>,
    /// Built from the engine's phase clock rather than timed here: the
    /// clock gives a duration, not a position, so the phases of one trial
    /// are laid end to end from the trial span's start.
    synthetic: bool,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, trial: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trial,
            synthetic: false,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in seconds.
    fn exit(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
        (end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Attach one trial's engine phases as children of its closed span.
    fn phase_children(&mut self, parent: usize, phases: &PhaseNanos) {
        let mut at = self.spans[parent].start_ns;
        let trial = self.spans[parent].trial;
        for (name, ns) in [
            ("radio-sim.engine.setup", phases.setup),
            ("radio-sim.engine.slot_loop", phases.slot_loop),
            ("radio-sim.engine.fast_forward", phases.fast_forward),
            ("radio-sim.engine.finalize", phases.finalize),
        ] {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                trial,
                synthetic: true,
            });
            at += ns;
        }
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        out
    }

    /// Write every span as one JSON line.
    fn write(&self, path: &Path, self_ns: &[i64]) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"trial\":{},\"synthetic\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.trial),
                s.synthetic,
                self_ns[id]
            )?;
        }
        w.flush()
    }
}

/// Process CPU time (all threads), in seconds.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

// ---------------------------------------------------------------------------
// Counting observer (the `core` layer's decisions, seen from the engine)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CountingObserver {
    actions: u64,
    boundaries: u64,
}

impl Observer for CountingObserver {
    fn on_slot(&mut self, _slot: u64, stats: &SlotStats) {
        self.actions += stats.broadcasts + stats.listens;
    }

    fn on_boundary(&mut self, _slot: u64, _profile: &SlotProfile, _active: u32, _informed: u32) {
        self.boundaries += 1;
    }
}

// ---------------------------------------------------------------------------
// The fold: per-trial results aggregated in trial order, as a campaign
// cell aggregates them
// ---------------------------------------------------------------------------

/// Per-trial values of a cell, in artifact order: the five `metrics`
/// entries, then the `schedule` block's crash-model trio.
const VALUES: usize = 8;
const METRIC_NAMES: [&str; 5] = [
    "completion_slots",
    "max_node_cost",
    "mean_node_cost",
    "source_cost",
    "eve_spent",
];
const SCHEDULE_METRIC_NAMES: [&str; 3] = ["crashed", "survivors", "survivors_informed"];

fn trial_values(r: &TrialResult) -> [f64; VALUES] {
    [
        r.completion_time() as f64,
        r.max_cost as f64,
        r.mean_cost,
        r.source_cost as f64,
        r.eve_spent as f64,
        f64::from(r.crashed),
        f64::from(r.survivors),
        f64::from(r.survivors_informed),
    ]
}

/// Everything of a cell except the value distributions, which the stats
/// replay builds.
#[derive(Default)]
struct CellFold {
    trials: u64,
    completed: u64,
    all_informed: u64,
    safety_violations: u64,
    helper_events: BTreeMap<(u32, u32), u64>,
    /// `(applied trials, min, max)` of each schedule event's slot.
    timeline: Vec<(u64, u64, u64)>,
    /// Counters only: the phase clock is zeroed, as in an untimed run.
    counters: EngineTelemetry,
}

impl CellFold {
    fn push(&mut self, r: &TrialResult, tel: &EngineTelemetry) {
        self.trials += 1;
        self.completed += u64::from(r.completed);
        self.all_informed += u64::from(r.all_informed);
        self.safety_violations += r.safety_violations as u64;
        for &phase in &r.helper_phases {
            *self.helper_events.entry(phase).or_insert(0) += 1;
        }
        for (i, marker) in r.timeline.iter().enumerate() {
            match self.timeline.get_mut(i) {
                Some((applied, min, max)) => {
                    *applied += 1;
                    *min = (*min).min(marker.applied_at);
                    *max = (*max).max(marker.applied_at);
                }
                None => self
                    .timeline
                    .push((1, marker.applied_at, marker.applied_at)),
            }
        }
        let mut counters = tel.clone();
        counters.phases = PhaseNanos::default();
        self.counters.merge(&counters);
    }
}

/// Moments plus quantile sketch of one metric, as the campaign keeps them.
struct MetricAcc {
    moments: StreamingMoments,
    sketch: QuantileSketch,
}

impl MetricAcc {
    fn new() -> Self {
        Self {
            moments: StreamingMoments::new(),
            sketch: QuantileSketch::new(),
        }
    }

    fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.sketch.push(x);
    }

    /// The exact leaves of the metric's artifact block.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.moments.count().into()),
            ("mean", self.moments.mean().into()),
            ("std_dev", self.moments.std_dev().into()),
            ("min", self.moments.min().unwrap_or(0.0).into()),
            ("max", self.moments.max().unwrap_or(0.0).into()),
        ])
    }

    /// How many of the sketch's p50/p90/p99 fall outside [min, max].
    fn quantiles_out_of_range(&self) -> u64 {
        let (Some(lo), Some(hi)) = (self.moments.min(), self.moments.max()) else {
            return 0;
        };
        [0.5, 0.9, 0.99]
            .iter()
            .filter_map(|&q| self.sketch.quantile(q))
            .filter(|&v| v < lo || v > hi)
            .count() as u64
    }
}

/// The fold's exact leaves, laid out under the artifact's own paths.
fn fold_json(
    spec: &CampaignSpec,
    args: &Args,
    folds: &[CellFold],
    accs: &[Vec<MetricAcc>],
) -> Json {
    let cells = spec
        .cells
        .iter()
        .zip(folds)
        .zip(accs)
        .map(|((cell, f), acc)| {
            let tel = &f.counters;
            let mut fields = vec![
                ("n", cell.protocol.n().into()),
                ("budget", cell.adversary.budget().into()),
                ("max_slots", cell.max_slots.into()),
                ("trials", f.trials.into()),
                ("completed", f.completed.into()),
                ("all_informed", f.all_informed.into()),
                (
                    "completion_rate",
                    (f.completed as f64 / f.trials.max(1) as f64).into(),
                ),
                ("safety_violations", f.safety_violations.into()),
                (
                    "metrics",
                    Json::obj(
                        METRIC_NAMES
                            .iter()
                            .zip(acc)
                            .map(|(&name, m)| (name, m.to_json()))
                            .collect(),
                    ),
                ),
                (
                    "helper_events",
                    Json::arr(
                        f.helper_events
                            .iter()
                            .map(|(&(epoch, phase), &count)| {
                                Json::obj(vec![
                                    ("epoch", epoch.into()),
                                    ("phase", phase.into()),
                                    ("count", count.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "perf",
                    Json::obj(vec![
                        ("slots_total", tel.slots_total().into()),
                        ("slots_stepped", tel.slots_stepped.into()),
                        ("slots_fast_forwarded", tel.slots_fast_forwarded.into()),
                        ("ff_skip_ratio", tel.ff_skip_ratio().into()),
                        ("spans", tel.spans.into()),
                        ("mean_span_len", tel.mean_span_len().into()),
                        ("ff_gated_segments", tel.ff_gated_segments.into()),
                        (
                            "span_len_hist",
                            Json::arr(
                                tel.span_len_hist
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, &c)| c > 0)
                                    .map(|(b, &c)| {
                                        Json::obj(vec![("log2", b.into()), ("count", c.into())])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("rng_engine_draws", tel.rng_engine_draws.into()),
                        ("rng_node_draws", tel.rng_node_draws.into()),
                        ("jam_spent_stepped", tel.jam_spent_stepped.into()),
                        ("jam_spent_spans", tel.jam_spent_spans.into()),
                        ("observer_events", tel.observer_events.into()),
                    ]),
                ),
            ];
            if !cell.schedule.is_empty() {
                let mut sched = vec![
                    ("events", (cell.schedule.len() as u64).into()),
                    ("first_slot", cell.schedule.first_slot().unwrap_or(0).into()),
                    ("last_slot", cell.schedule.last_slot().unwrap_or(0).into()),
                    (
                        "timeline",
                        Json::arr(
                            cell.schedule
                                .events
                                .iter()
                                .enumerate()
                                .map(|(i, &(scheduled_at, _))| {
                                    let (applied, min, max) =
                                        f.timeline.get(i).copied().unwrap_or((0, 0, 0));
                                    Json::obj(vec![
                                        ("scheduled_at", scheduled_at.into()),
                                        ("applied_trials", applied.into()),
                                        ("applied_at_min", min.into()),
                                        ("applied_at_max", max.into()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ];
                for (&name, m) in SCHEDULE_METRIC_NAMES.iter().zip(&acc[METRIC_NAMES.len()..]) {
                    sched.push((name, m.to_json()));
                }
                sched.push(("schedule_events", tel.schedule_events.into()));
                sched.push(("crashed_node_slots", tel.crashed_node_slots.into()));
                fields.push(("schedule", Json::obj(sched)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("seed", args.seed.into()),
        ("trials_per_cell", args.trials.into()),
        (
            "total_trials",
            (args.trials * spec.cells.len() as u64).into(),
        ),
        ("cells", Json::arr(cells)),
    ])
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median over five timed repetitions of `body(iters)`, in ns per call.
fn calibrate(tr: &mut Tracer, name: &'static str, iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let span = tr.enter(name, None);
    let mut per_call: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            body(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    tr.exit(span);
    median(&mut per_call)
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

fn trial_spec(cell: &CellSpec, seed: u64, c: usize, t: u64) -> TrialSpec {
    TrialSpec::new(
        cell.protocol.clone(),
        cell.adversary.clone(),
        cell_trial_seed(seed, c as u64, t),
    )
    .with_topology(cell.topology.clone())
    .with_schedule(cell.schedule.clone())
    .with_max_slots(cell.max_slots)
}

fn campaign_config(args: &Args, threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: args.seed,
        trials_per_cell: args.trials,
        threads,
        progress: false,
        ..CampaignConfig::default()
    }
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
}

/// Files and total bytes directly under `dir`.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| fail(&format!("cannot list {}: {e}", dir.display())));
    entries.fold((0, 0), |(files, bytes), e| {
        let meta = e
            .and_then(|e| e.metadata())
            .unwrap_or_else(|e| fail(&format!("cannot stat under {}: {e}", dir.display())));
        if meta.is_file() {
            (files + 1, bytes + meta.len())
        } else {
            (files, bytes)
        }
    })
}

fn complete(
    run: Result<ServiceRun, rcb_campaign::ServiceError>,
    what: &str,
) -> (CampaignReport, u64, u64) {
    match run {
        Ok(ServiceRun::Complete {
            report,
            store_hits,
            simulated_trials,
            ..
        }) => (report, store_hits, simulated_trials),
        Ok(ServiceRun::Killed { .. }) => fail(&format!("{what}: stopped early")),
        Err(e) => fail(&format!("{what}: {e}")),
    }
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.work_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", args.work_dir.display())));
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tr = Tracer::new();
    let root = tr.enter("tracer.run", None);

    let span = tr.enter("campaign.specfile.load_spec", None);
    let spec = load_spec(&args.spec).unwrap_or_else(|e| fail(&e.to_string()));
    m.push(("campaign.specfile.load_s", tr.exit(span)));
    let cells = spec.cells.len();
    let total = args.trials * cells as u64;

    // Traced pass: one span per trial, engine phases as its children.
    let mut folds: Vec<CellFold> = spec.cells.iter().map(|_| CellFold::default()).collect();
    let mut values: Vec<(usize, [f64; VALUES])> = Vec::with_capacity(total as usize);
    let mut engine = EngineTelemetry::default();
    let mut obs_total = CountingObserver::default();
    let mut trial_s: Vec<f64> = Vec::with_capacity(total as usize);
    let (mut failed_trials, mut invariant_failures) = (0u64, 0u64);
    let traced_start = Instant::now();
    for (c, cell) in spec.cells.iter().enumerate() {
        for t in 0..args.trials {
            let g = c as u64 * args.trials + t;
            let ts = trial_spec(cell, args.seed, c, t);
            let mut obs = CountingObserver::default();
            let mut opts = TrialOptions::with_observer(&mut obs);
            opts.engine.time_phases = true;
            let span = tr.enter("harness.run_trial_telemetry", Some(g));
            let (r, tel) = run_trial_telemetry(&ts, opts);
            trial_s.push(tr.exit(span));
            tr.phase_children(span, &tel.phases);

            if tel.slots_stepped + tel.slots_fast_forwarded != r.slots
                || tel.jam_spent_stepped + tel.jam_spent_spans != r.eve_spent
            {
                invariant_failures += 1;
            }
            if !r.completed || r.safety_violations > 0 {
                failed_trials += 1;
            }
            obs_total.actions += obs.actions;
            obs_total.boundaries += obs.boundaries;
            engine.merge(&tel);
            folds[c].push(&r, &tel);
            values.push((c, trial_values(&r)));
        }
    }
    let traced_s = traced_start.elapsed().as_secs_f64();

    // Topology builds: the harness builds each trial's topology inside the
    // trial, so these separate calls of the same builds price it. They run
    // after the traced pass, outside `traced_s` and outside every trial.
    let (mut topology_s, mut topology_builds) = (0.0, 0u64);
    for (c, cell) in spec.cells.iter().enumerate() {
        if cell.topology.is_complete() {
            continue;
        }
        for t in 0..args.trials {
            let g = c as u64 * args.trials + t;
            let ts = trial_spec(cell, args.seed, c, t);
            let span = tr.enter("radio-sim.topology.build", Some(g));
            black_box(ts.topology.build(ts.seed));
            topology_s += tr.exit(span);
            topology_builds += 1;
        }
    }

    // Stats replay: the per-trial values through the campaign's streaming
    // accumulators, in trial order. Its result is the fold's distributions.
    let span = tr.enter("stats.replay", None);
    let mut accs: Vec<Vec<MetricAcc>> = spec
        .cells
        .iter()
        .map(|_| (0..VALUES).map(|_| MetricAcc::new()).collect())
        .collect();
    for (c, vals) in &values {
        for (acc, &x) in accs[*c].iter_mut().zip(vals) {
            acc.push(x);
        }
    }
    let push_s = tr.exit(span);
    let pushes = values.len() as u64 * VALUES as u64;
    let out_of_range: u64 = accs
        .iter()
        .zip(&spec.cells)
        .map(|(acc, cell)| {
            let reported = if cell.schedule.is_empty() {
                METRIC_NAMES.len()
            } else {
                VALUES
            };
            acc[..reported]
                .iter()
                .map(MetricAcc::quantiles_out_of_range)
                .sum::<u64>()
        })
        .sum();
    let sketch_buckets: u64 = accs
        .iter()
        .flatten()
        .map(|a| a.sketch.live_buckets() as u64)
        .sum();
    write_file(
        &args.work_dir.join("fold.json"),
        &fold_json(&spec, &args, &folds, &accs).to_pretty(),
    );

    // Untraced pass: the same trials under the campaign's own options, with
    // one span around the whole pass. It runs right before the one-worker
    // campaign so that the two share machine conditions as far as possible:
    // their CPU difference is the campaign engine's overhead.
    let span = tr.enter("untraced.trial_pass", None);
    let cpu0 = process_cpu_s();
    for (c, cell) in spec.cells.iter().enumerate() {
        for t in 0..args.trials {
            let ts = trial_spec(cell, args.seed, c, t);
            black_box(run_trial_telemetry(&ts, TrialOptions::default()));
        }
    }
    let cpu_untraced = process_cpu_s() - cpu0;
    let untraced_s = tr.exit(span);

    // In-process campaigns at one and two workers.
    let span = tr.enter("campaign.run_campaign_service.1w", None);
    let cpu0 = process_cpu_s();
    let (report, _, _) = complete(
        run_campaign_service(&spec, &campaign_config(&args, 1), &ServiceConfig::default()),
        "1-worker campaign",
    );
    let cpu_1w = process_cpu_s() - cpu0;
    let wall_1w = tr.exit(span);
    let span = tr.enter("campaign.run_campaign_service.2w", None);
    let (report_2w, _, _) = complete(
        run_campaign_service(&spec, &campaign_config(&args, 2), &ServiceConfig::default()),
        "2-worker campaign",
    );
    let wall_2w = tr.exit(span);
    write_file(&args.work_dir.join("report-2w.json"), &report_2w.to_json());

    let span = tr.enter("campaign.report.to_json", None);
    let text = report.to_json();
    let to_json_s = tr.exit(span);
    let span = tr.enter("campaign.jsonin.parse", None);
    let parsed = jsonin::parse(&text);
    let parse_s = tr.exit(span);
    if let Err(e) = parsed {
        fail(&format!("the campaign's own artifact does not parse: {e}"));
    }
    write_file(&args.work_dir.join("report-1w.json"), &text);

    // Checkpoint/store service: cold run, checkpoint loads, warm run. Its
    // metrics read zero on workloads that do not run it.
    let service = if let Some(every) = args.service_every {
        let state_dir = args.work_dir.join("state");
        let store_dir = args.work_dir.join("store");
        for dir in [&state_dir, &store_dir] {
            if dir.exists() {
                std::fs::remove_dir_all(dir)
                    .unwrap_or_else(|e| fail(&format!("cannot clear {}: {e}", dir.display())));
            }
        }
        let svc = ServiceConfig {
            state_dir: Some(state_dir.clone()),
            checkpoint_every: every,
            store_dir: Some(store_dir.clone()),
            ..ServiceConfig::default()
        };
        let cfg = campaign_config(&args, 1);
        let span = tr.enter("campaign.service.cold", None);
        let (cold, _, _) = complete(run_campaign_service(&spec, &cfg, &svc), "cold service run");
        let cold_s = tr.exit(span);
        write_file(&args.work_dir.join("service-cold.json"), &cold.to_json());
        let (ckpt_files, ckpt_bytes) = dir_usage(&state_dir);

        let span = tr.enter("campaign.checkpoint.load_checkpoint", None);
        for c in 0..cells {
            match load_checkpoint(&checkpoint_path(&state_dir, c)) {
                Ok(Some(_)) => {}
                Ok(None) => fail(&format!("cell {c}: no checkpoint after a completed run")),
                Err(e) => fail(&e.to_string()),
            }
        }
        let load_s = tr.exit(span);

        let entries = Store::new(&store_dir)
            .list()
            .unwrap_or_else(|e| fail(&e.to_string()))
            .len() as u64;
        let (_, store_bytes) = dir_usage(&store_dir);
        let span = tr.enter("campaign.service.warm", None);
        let (warm, hits, simulated) =
            complete(run_campaign_service(&spec, &cfg, &svc), "warm service run");
        let warm_s = tr.exit(span);
        if simulated != 0 {
            fail(&format!("warm service run simulated {simulated} trial(s)"));
        }
        write_file(&args.work_dir.join("service-warm.json"), &warm.to_json());
        [
            ckpt_files as f64,
            ckpt_bytes as f64,
            load_s,
            entries as f64,
            store_bytes as f64,
            hits as f64 / cells as f64,
            warm_s,
            cold_s - wall_1w,
        ]
    } else {
        [0.0; 8]
    };
    m.extend(
        [
            "campaign.checkpoint.files",
            "campaign.checkpoint.bytes",
            "campaign.checkpoint.load_s",
            "campaign.store.entries",
            "campaign.store.bytes",
            "campaign.store.hit_ratio",
            "campaign.store.warm_s",
            "campaign.service.extra_s",
        ]
        .into_iter()
        .zip(service),
    );

    // Unit costs of the hot public functions.
    let seed = args.seed;
    let next_u64_ns = calibrate(&mut tr, "calibration.next_u64", 4_000_000, |iters| {
        let mut rng = Xoshiro256::seeded(seed);
        let mut acc = 0u64;
        for _ in 0..iters {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    });
    let geometric_gap_ns = calibrate(&mut tr, "calibration.geometric_gap", 1_000_000, |iters| {
        let mut rng = Xoshiro256::seeded(seed);
        let ln_q = black_box((1.0f64 - 0.01).ln());
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(geometric_gap(&mut rng, ln_q));
        }
        black_box(acc);
    });
    let moments_push_ns = calibrate(&mut tr, "calibration.moments_push", 1_000_000, |iters| {
        let mut acc = StreamingMoments::new();
        for i in 0..iters {
            acc.push(black_box((i % 1024) as f64 + 1.5));
        }
        black_box(acc.count());
    });
    let sketch_push_ns = calibrate(&mut tr, "calibration.sketch_push", 1_000_000, |iters| {
        let mut acc = QuantileSketch::new();
        for i in 0..iters {
            acc.push(black_box((i % 1024) as f64 + 1.5));
        }
        black_box(acc.count());
    });
    // The phase clock's own share of every fast-forward span it times: the
    // reading of an empty `Instant::now()` .. `elapsed()` section, about one
    // clock read (the other read of each pair lands in the slot loop).
    let span = tr.enter("calibration.clock", None);
    let mut readings: Vec<f64> = (0..5)
        .map(|_| {
            let iters = 1_000_000u64;
            let mut acc = 0u128;
            for _ in 0..iters {
                let t = black_box(Instant::now());
                acc += t.elapsed().as_nanos();
            }
            acc as f64 / iters as f64
        })
        .collect();
    tr.exit(span);
    let clock_read_ns = median(&mut readings);
    let bytes = text.len() as u64;
    let to_json_calls = (4_000_000 / bytes.max(1)).max(1);
    let to_json_ns_per_byte = calibrate(&mut tr, "calibration.to_json", to_json_calls, |iters| {
        for _ in 0..iters {
            black_box(report.to_json());
        }
    }) / bytes.max(1) as f64;

    tr.exit(root);
    let self_ns = tr.self_ns();
    let mut layer_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, &ns) in tr.spans.iter().zip(&self_ns) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *layer_s.entry(layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    // The named layers only: the root's self time is the tracer's own glue,
    // which no layer accounts for.
    let self_sum_s: f64 = layer_s
        .iter()
        .filter(|(&layer, _)| layer != "tracer")
        .map(|(_, s)| s)
        .sum();
    tr.write(&args.spans_out, &self_ns)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", args.spans_out.display())));

    // Per-layer metrics.
    let ns = 1e-9;
    let phases = &engine.phases;
    let slot_loop_s = phases.slot_loop as f64 * ns;
    let ff_s = phases.fast_forward as f64 * ns;
    let engine_s = phases.total() as f64 * ns;
    let ff_net_s = ff_s - engine.spans as f64 * clock_read_ns * ns;
    let trial_total_s: f64 = trial_s.iter().sum();
    let modelled_rng_s = (engine.rng_engine_draws as f64 * geometric_gap_ns
        + engine.rng_node_draws as f64 * next_u64_ns)
        * ns;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut sorted_ms: Vec<f64> = trial_s.iter().map(|s| s * 1e3).collect();
    sorted_ms.sort_by(f64::total_cmp);
    let (tail_pct, tail_ms) = tail_percentile(&sorted_ms);

    m.extend([
        ("radio-sim.engine.slot_loop_s", slot_loop_s),
        ("radio-sim.engine.ff_s", ff_s),
        ("radio-sim.engine.setup_s", phases.setup as f64 * ns),
        ("radio-sim.engine.finalize_s", phases.finalize as f64 * ns),
        ("radio-sim.engine.ff_share", ratio(ff_s, engine_s)),
        (
            "radio-sim.engine.slots_stepped",
            engine.slots_stepped as f64,
        ),
        (
            "radio-sim.engine.slots_skipped",
            engine.slots_fast_forwarded as f64,
        ),
        ("radio-sim.engine.spans", engine.spans as f64),
        (
            "radio-sim.engine.ff_gated_segments",
            engine.ff_gated_segments as f64,
        ),
        (
            "radio-sim.engine.ns_per_stepped_slot",
            ratio(slot_loop_s, engine.slots_stepped as f64) / ns,
        ),
        (
            "radio-sim.engine.ns_per_span",
            ratio(ff_s, engine.spans as f64) / ns,
        ),
        ("radio-sim.engine.ff_net_s", ff_net_s),
        (
            "radio-sim.engine.ns_per_span_net",
            ratio(ff_net_s, engine.spans as f64) / ns,
        ),
        ("radio-sim.clock.read_ns", clock_read_ns),
        (
            "radio-sim.engine.unattributed_s",
            slot_loop_s - modelled_rng_s,
        ),
        ("radio-sim.rng.engine_draws", engine.rng_engine_draws as f64),
        ("radio-sim.rng.node_draws", engine.rng_node_draws as f64),
        ("radio-sim.rng.next_u64_ns", next_u64_ns),
        ("radio-sim.sampler.geometric_gap_ns", geometric_gap_ns),
        ("radio-sim.rng.modelled_s", modelled_rng_s),
        ("radio-sim.topology.build_s", topology_s),
        ("radio-sim.topology.builds", topology_builds as f64),
        ("radio-sim.schedule.events", engine.schedule_events as f64),
        (
            "adversary.jam_spent_stepped",
            engine.jam_spent_stepped as f64,
        ),
        ("adversary.jam_spent_spans", engine.jam_spent_spans as f64),
        ("core.actions", obs_total.actions as f64),
        ("core.boundaries", obs_total.boundaries as f64),
        ("harness.trials", total as f64),
        ("harness.trial_ms_p50", percentile(&sorted_ms, 50.0)),
        ("harness.trial_ms_tail", tail_ms),
        ("harness.trial_ms_tail_pct", tail_pct),
        ("harness.overhead_s", trial_total_s - engine_s),
        (
            "harness.overhead_share",
            ratio(trial_total_s - engine_s, trial_total_s),
        ),
        ("stats.pushes", pushes as f64),
        ("stats.push_s", push_s),
        ("stats.moments_push_ns", moments_push_ns),
        ("stats.sketch_push_ns", sketch_push_ns),
        (
            "stats.modelled_s",
            pushes as f64 * (moments_push_ns + sketch_push_ns) * ns,
        ),
        ("stats.sketch_buckets", sketch_buckets as f64),
        ("stats.quantile_leaves_out_of_range", out_of_range as f64),
        (
            "campaign.engine.overhead_us_per_trial",
            (cpu_1w - cpu_untraced) / total as f64 * 1e6,
        ),
        (
            "campaign.engine.overhead_share",
            ratio(cpu_1w - cpu_untraced, cpu_1w),
        ),
        (
            "campaign.engine.parallel_eff",
            ratio(wall_1w, 2.0 * wall_2w),
        ),
        ("campaign.engine.wall_1w_s", wall_1w),
        ("campaign.engine.wall_2w_s", wall_2w),
        ("campaign.engine.cpu_1w_s", cpu_1w),
        ("campaign.report.to_json_s", to_json_s),
        ("campaign.report.bytes", bytes as f64),
        ("campaign.report.parse_s", parse_s),
        ("campaign.report.to_json_ns_per_byte", to_json_ns_per_byte),
        (
            "campaign.report.modelled_s",
            bytes as f64 * to_json_ns_per_byte * ns,
        ),
        ("trace.traced_pass_s", traced_s),
        ("trace.untraced_pass_s", untraced_s),
        ("trace.overhead_ratio", ratio(traced_s, untraced_s)),
        ("trace.self_sum_s", self_sum_s),
        ("trace.spans", tr.spans.len() as f64),
    ]);
    let metrics = Json::Object(
        m.into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .chain(
                layer_s
                    .iter()
                    .map(|(layer, s)| (format!("trace.self.{layer}_s"), *s)),
            )
            .map(|(k, v)| (k, Json::Float(v)))
            .collect(),
    );
    let out = Json::obj(vec![
        ("metrics", metrics),
        ("trials", total.into()),
        ("failed_trials", failed_trials.into()),
        ("invariant_failures", invariant_failures.into()),
    ]);
    println!("{}", out.to_compact());
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder with at least ten samples above
/// it, and its value. Below twenty samples no percentile qualifies and the
/// median stands in (reported as percentile 50).
fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0] {
        if n * (1.0 - pct / 100.0) >= 10.0 {
            return (pct, percentile(sorted, pct));
        }
    }
    (50.0, percentile(sorted, 50.0))
}
