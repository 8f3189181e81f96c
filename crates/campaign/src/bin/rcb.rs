//! `rcb` — run named campaigns from the scenario catalog.
//!
//! ```text
//! rcb list                                  # the scenario catalog
//! rcb describe <scenario>                   # cells of one scenario
//! rcb run <scenario> [--trials N] [--seed S] [--threads K]
//!                    [--max-slots M] [--out FILE] [--perf]
//!                    [--trace-out FILE] [--quiet]
//!                    [--state-dir DIR] [--resume] [--checkpoint-every K]
//!                    [--store DIR] [--max-trials-then-exit N]
//! rcb run --spec <file.toml|file.json> [same flags]
//! rcb bench [scenario ...] [--quick] [--trials N] [--seed S]
//!           [--max-slots M] [--no-reference] [--min-wall S]
//!           [--out FILE] [--quiet]
//! rcb profile <scenario> <cell> [--trials N] [--seed S] [--max-slots M]
//! rcb shard plan <scenario> --state-dir DIR [--trials N] [--seed S]
//!               [--max-slots M] [--checkpoint-every K]
//!               [--stale-after-ms MS] [--store DIR]
//! rcb shard work --state-dir DIR [--worker-id ID] [--threads K]
//!               [--max-trials-then-exit N]
//! rcb shard status --state-dir DIR
//! rcb shard merge --state-dir DIR [--out FILE]
//! rcb store list|show <key>|trend <key> <leaf>|gc [--store DIR]
//! rcb diff <a.json|store:KEY> <b.json|store:KEY> [--threshold X]
//!          [--ignore KEY ...] [--no-default-ignore] [--store DIR]
//! ```
//!
//! `run` takes either a catalog scenario name or `--spec FILE` — a
//! declarative TOML/JSON campaign spec (cells, adversaries, topologies,
//! world schedules; see `docs/NEMESIS.md`). A catalog scenario is the spec
//! file `crates/campaign/scenarios/<name>.toml`, embedded at build time,
//! so both forms give the same artifact. Malformed spec files fail with
//! file/line/key context and exit code 2.
//!
//! `run` prints a human summary table to stdout and, with `--out`, writes
//! the schema-versioned JSON artifact. The artifact's deterministic leaves
//! depend only on (scenario, seed, trials, max-slots): rerunning with the
//! same seed gives byte-identical files at any `--threads` value. `--perf`
//! additionally fills the wall-clock leaves of each cell's `perf` block
//! (making the file host-dependent); `--trace-out` streams a JSONL event
//! trace of every trial (forces single-threaded execution so line order is
//! deterministic).
//!
//! The service flags make `run` kill-safe and re-runs free (see
//! `docs/CAMPAIGN_SERVICE.md`): `--state-dir` checkpoints each cell's
//! aggregator state atomically, `--resume` continues from the watermarks
//! (the resumed artifact is byte-identical to an uninterrupted run, and
//! `--trials` may grow but never shrink), `--store` fronts the engine
//! with a content-addressed cell cache so unchanged re-runs simulate
//! nothing, and `--max-trials-then-exit` is the deliberate kill switch CI
//! uses to exercise resume. Corrupt or mismatched state fails with
//! `file: message` context and exit 2.
//!
//! `shard` scales one campaign across **many worker processes** with no
//! network: `plan` pins the campaign's identity in a shared state
//! directory, any number of `work` processes claim cells via atomic lease
//! files (stealing stale leases from dead workers), `status` shows the
//! fleet, and `merge` folds the per-cell checkpoints into an artifact
//! **byte-identical** to a single-process `rcb run` — at any worker
//! count or kill pattern. See `docs/CAMPAIGN_SERVICE.md`.
//!
//! `bench` measures single-threaded engine throughput (slots/sec, wall
//! time, fast-forward speedup) per catalog cell; `profile` breaks one
//! cell's time down by engine phase and telemetry counter; `store`
//! lists, renders, and garbage-collects store entries; `diff` compares
//! two artifacts (file paths or `store:KEY` references) and exits
//! non-zero when any relative delta exceeds `--threshold` — together
//! they are the perf-trajectory regression gate. `diff` ignores the
//! build stamp and wall-clock leaves unless `--no-default-ignore` is
//! given.

use rcb_campaign::{
    describe_campaign, diff, find, jsonin, load_plan, load_spec, profile_cell, registry, run_bench,
    run_campaign_service, run_campaign_traced, shard_merge, shard_status, shard_work,
    validate_service_flags, write_plan, BenchConfig, CampaignConfig, CampaignSpec, CellState,
    PlanOptions, ProfileConfig, ServiceConfig, ServiceRun, Store, WorkerOptions, WorkerOutcome,
    DEFAULT_IGNORES, DEFAULT_STORE_DIR,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  rcb list\n  rcb describe <scenario>\n  rcb run <scenario> \
         [--trials N] [--seed S] [--threads K] [--max-slots M] \
         [--out FILE] [--perf] [--trace-out FILE] [--quiet]\n               \
         [--state-dir DIR] [--resume] [--checkpoint-every K] [--store DIR] \
         [--max-trials-then-exit N]\n  \
         rcb run --spec <file.toml|file.json> [same flags as above]\n  \
         rcb bench [scenario ...] [--quick] [--trials N] [--seed S] [--max-slots M] \
         [--no-reference] [--min-wall S] [--out FILE] [--quiet]\n  \
         rcb profile <scenario> <cell> [--trials N] [--seed S] [--max-slots M]\n  \
         rcb shard plan <scenario> --state-dir DIR [--trials N] [--seed S] \
         [--max-slots M] [--checkpoint-every K] [--stale-after-ms MS] [--store DIR]\n  \
         rcb shard work --state-dir DIR [--worker-id ID] [--threads K] \
         [--max-trials-then-exit N]\n  \
         rcb shard status --state-dir DIR\n  \
         rcb shard merge --state-dir DIR [--out FILE]\n  \
         rcb store list|show <key>|trend <key> <leaf>|gc [--store DIR]\n  \
         rcb diff <a.json|store:KEY> <b.json|store:KEY> [--threshold X] \
         [--ignore KEY ...] [--no-default-ignore] [--store DIR]\n\
         \nscenarios:\n{}",
        registry()
            .iter()
            .map(|s| format!("  {:<18} {}", s.name, s.summary))
            .collect::<Vec<_>>()
            .join("\n")
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    let Some(v) = v else {
        eprintln!("missing value for {flag}");
        usage()
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {v}");
        usage()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("describe") => match args.get(1) {
            Some(name) => cmd_describe(name),
            None => usage(),
        },
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("profile") => match (args.get(1), args.get(2)) {
            (Some(name), Some(cell)) => cmd_profile(name, cell, &args[3..]),
            _ => usage(),
        },
        Some("shard") => cmd_shard(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("diff") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => cmd_diff(a, b, &args[3..]),
            _ => usage(),
        },
        _ => usage(),
    }
}

fn cmd_list() {
    println!("scenario catalog ({} entries):\n", registry().len());
    for s in registry() {
        let cells = s.spec().cells.len();
        println!("  {:<18} {:>3} cells  {}", s.name, cells, s.summary);
    }
    println!("\nrun with: rcb run <scenario> --trials 1000 --out BENCH_<scenario>.json");
}

fn cmd_describe(name: &str) {
    let Some(s) = find(name) else {
        eprintln!("unknown scenario: {name}");
        usage()
    };
    print!("{}", describe_campaign(&s.spec(), s.summary));
}

fn cmd_run(rest: &[String]) {
    let mut cfg = CampaignConfig {
        progress: true,
        ..CampaignConfig::default()
    };
    let mut svc = ServiceConfig::default();
    let mut explicit_checkpoint_every: Option<u64> = None;
    let mut name: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--trials" => cfg.trials_per_cell = parse(arg, it.next()),
            "--seed" => cfg.seed = parse(arg, it.next()),
            "--threads" => cfg.threads = parse(arg, it.next()),
            "--max-slots" => cfg.max_slots = Some(parse(arg, it.next())),
            "--out" => out_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--trace-out" => trace_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--perf" => cfg.telemetry = true,
            "--quiet" => cfg.progress = false,
            "--state-dir" => {
                svc.state_dir = Some(PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())))
            }
            "--resume" => svc.resume = true,
            "--checkpoint-every" => explicit_checkpoint_every = Some(parse(arg, it.next())),
            "--store" => {
                svc.store_dir = Some(PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())))
            }
            "--max-trials-then-exit" => svc.kill_after_trials = Some(parse(arg, it.next())),
            bare if !bare.starts_with('-') && name.is_none() => name = Some(bare.to_string()),
            _ => {
                eprintln!("unknown flag: {arg}");
                usage()
            }
        }
    }
    if cfg.trials_per_cell == 0 {
        eprintln!("--trials: must be at least 1");
        std::process::exit(2)
    }
    svc.checkpoint_every = explicit_checkpoint_every.unwrap_or(svc.checkpoint_every);
    // Flag-combination misuse fails with `--flag: why` context at exit 2
    // (never a panic, never a silently-substituted default).
    if let Err(e) = validate_service_flags(&svc, explicit_checkpoint_every) {
        eprintln!("{e}");
        std::process::exit(2)
    }
    let service_active = svc.state_dir.is_some()
        || svc.store_dir.is_some()
        || svc.resume
        || svc.kill_after_trials.is_some();
    if trace_path.is_some() && service_active {
        eprintln!("--trace-out cannot be combined with the service flags (--state-dir/--resume/--store/--max-trials-then-exit)");
        usage()
    }
    let spec: CampaignSpec = match (&name, &spec_path) {
        (Some(name), None) => {
            let Some(s) = find(name) else {
                eprintln!("unknown scenario: {name}");
                usage()
            };
            s.spec()
        }
        (None, Some(path)) => load_spec(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        }),
        _ => {
            eprintln!("run takes exactly one of <scenario> or --spec FILE");
            usage()
        }
    };

    // Open the artifact file before the (potentially long) run so a bad
    // path fails in milliseconds, not after the campaign.
    let create = |path: &String| {
        std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2)
        })
    };
    let mut out_file = out_path.as_ref().map(create);
    let trace_file = trace_path.as_ref().map(create);

    let threads_used = if trace_path.is_some() {
        1 // deterministic trace line order needs a single writer
    } else {
        rcb_harness::resolve_threads(cfg.threads)
    };
    if cfg.progress {
        eprintln!(
            "[rcb] campaign {}: {} cells x {} trials = {} total, seed {}, {} threads{}",
            spec.name,
            spec.cells.len(),
            cfg.trials_per_cell,
            spec.cells.len() as u64 * cfg.trials_per_cell,
            cfg.seed,
            threads_used,
            if trace_path.is_some() {
                " (trace export is single-threaded)"
            } else {
                ""
            },
        );
    }

    let start = Instant::now();
    let report = match trace_file {
        Some(f) => {
            let mut sink = std::io::BufWriter::new(f);
            run_campaign_traced(&spec, &cfg, &mut sink).unwrap_or_else(|e| {
                eprintln!(
                    "cannot write trace {}: {e}",
                    trace_path.as_deref().unwrap_or("?")
                );
                std::process::exit(2)
            })
        }
        None => match run_campaign_service(&spec, &cfg, &svc) {
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2)
            }
            Ok(ServiceRun::Killed { simulated_trials }) => {
                // Deliberate mid-run exit: checkpoints are on disk, no
                // artifact is written (a partial artifact would be worse
                // than none). Leave no empty --out file behind.
                drop(out_file);
                if let Some(path) = out_path.as_ref() {
                    let _ = std::fs::remove_file(path);
                }
                eprintln!(
                    "[rcb] exited after {simulated_trials} simulated trial(s) (--max-trials-then-exit); \
                     resume with --resume --state-dir {}",
                    svc.state_dir
                        .as_deref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<DIR>".into())
                );
                return;
            }
            Ok(ServiceRun::Complete {
                report,
                store_hits,
                resumed_trials,
                simulated_trials,
            }) => {
                if service_active {
                    eprintln!(
                        "[rcb] service: {store_hits} store hit(s), {resumed_trials} trial(s) \
                         resumed from checkpoints, simulated {simulated_trials} trial(s)"
                    );
                }
                report
            }
        },
    };
    let elapsed = start.elapsed();
    if let Some(path) = trace_path.as_ref() {
        println!("trace written to {path}");
    }

    println!("{}", report.to_table());
    eprintln!("[rcb] completed in {elapsed:.1?}");

    let violations: u64 = report.cells.iter().map(|c| c.safety_violations).sum();
    if violations > 0 {
        eprintln!("[rcb] WARNING: {violations} safety violation(s) — protocol bug");
    }

    if let (Some(f), Some(path)) = (out_file.as_mut(), out_path.as_ref()) {
        f.write_all(report.to_json().as_bytes())
            .expect("write artifact");
        println!("artifact written to {path}");
    }

    if violations > 0 {
        std::process::exit(1);
    }
}

fn cmd_bench(rest: &[String]) {
    let mut cfg = BenchConfig {
        progress: true,
        ..BenchConfig::default()
    };
    // Explicit flags always win over the --quick preset, whatever the
    // argument order.
    let mut quick = false;
    let mut explicit_trials: Option<u64> = None;
    let mut explicit_max_slots: Option<u64> = None;
    let mut names: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trials" => explicit_trials = Some(parse(arg, it.next())),
            "--seed" => cfg.seed = parse(arg, it.next()),
            "--max-slots" => explicit_max_slots = Some(parse(arg, it.next())),
            "--no-reference" => cfg.reference = false,
            "--min-wall" => cfg.min_wall_s = parse(arg, it.next()),
            "--out" => out_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--quiet" => cfg.progress = false,
            name if !name.starts_with('-') => names.push(name.to_string()),
            _ => {
                eprintln!("unknown flag: {arg}");
                usage()
            }
        }
    }
    if quick {
        let preset = BenchConfig::quick();
        cfg.trials_per_cell = preset.trials_per_cell;
        cfg.max_slots = preset.max_slots;
    }
    if let Some(t) = explicit_trials {
        cfg.trials_per_cell = t;
    }
    if let Some(m) = explicit_max_slots {
        cfg.max_slots = Some(m);
    }
    if cfg.trials_per_cell == 0 {
        eprintln!("--trials: must be at least 1");
        std::process::exit(2)
    }
    // A NaN or infinite floor is never met, so every cell would run to the
    // repeat cap.
    if !(cfg.min_wall_s.is_finite() && cfg.min_wall_s >= 0.0) {
        eprintln!("--min-wall: must be a finite number of seconds >= 0");
        std::process::exit(2)
    }

    let scenarios: Vec<_> = if names.is_empty() {
        registry()
    } else {
        names
            .iter()
            .map(|n| {
                find(n).unwrap_or_else(|| {
                    eprintln!("unknown scenario: {n}");
                    usage()
                })
            })
            .collect()
    };

    let mut out_file = out_path.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2)
        })
    });

    let start = Instant::now();
    let report = run_bench(&scenarios, &cfg);
    println!("{}", report.to_table());
    eprintln!("[rcb bench] completed in {:.1?}", start.elapsed());

    if let (Some(f), Some(path)) = (out_file.as_mut(), out_path.as_ref()) {
        f.write_all(report.to_json().as_bytes())
            .expect("write artifact");
        println!("artifact written to {path}");
    }
}

fn cmd_profile(name: &str, cell: &str, rest: &[String]) {
    let Some(s) = find(name) else {
        eprintln!("unknown scenario: {name}");
        usage()
    };
    let cell_index: usize = cell.parse().unwrap_or_else(|_| {
        eprintln!("bad cell index: {cell} (see `rcb describe {name}`)");
        usage()
    });
    let mut cfg = ProfileConfig::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trials" => cfg.trials = parse(arg, it.next()),
            "--seed" => cfg.seed = parse(arg, it.next()),
            "--max-slots" => cfg.max_slots = Some(parse(arg, it.next())),
            _ => {
                eprintln!("unknown flag: {arg}");
                usage()
            }
        }
    }
    match profile_cell(&s, cell_index, &cfg) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2)
        }
    }
}

/// Rebuild the campaign spec a shard plan names. Workers rebuild specs
/// from the scenario catalog — the plan's per-cell identity keys then
/// verify the rebuild matches what was planned.
fn shard_spec(plan: &rcb_campaign::ShardPlan) -> CampaignSpec {
    match find(&plan.campaign) {
        Some(s) => s.spec(),
        None => {
            eprintln!(
                "shard plan names campaign `{}`, which is not in the scenario catalog; shard \
                 workers rebuild specs from the catalog, so ad-hoc --spec campaigns cannot be \
                 sharded",
                plan.campaign
            );
            std::process::exit(2)
        }
    }
}

fn cmd_shard(rest: &[String]) {
    let Some(sub) = rest.first() else { usage() };
    let fail = |e: rcb_campaign::ServiceError| -> ! {
        eprintln!("{e}");
        std::process::exit(2)
    };
    // Each subcommand takes `--state-dir` plus only its own flags; a flag
    // of another subcommand would otherwise be parsed and silently dropped.
    let own_flags: &[&str] = match sub.as_str() {
        "plan" => &[
            "--trials",
            "--seed",
            "--max-slots",
            "--checkpoint-every",
            "--stale-after-ms",
            "--store",
        ],
        "work" => &["--worker-id", "--threads", "--max-trials-then-exit"],
        "merge" => &["--out"],
        "status" => &[],
        _ => {
            eprintln!("unknown shard subcommand: {sub}");
            usage()
        }
    };
    let mut state_dir: Option<PathBuf> = None;
    let mut name: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut cfg = CampaignConfig::default();
    let mut plan_opts = PlanOptions::default();
    let mut worker_opts = WorkerOptions::default();
    let mut it = rest[1..].iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') && arg != "--state-dir" && !own_flags.contains(&arg.as_str()) {
            eprintln!(
                "unknown flag: {arg} (shard {sub} takes --state-dir{})",
                own_flags
                    .iter()
                    .map(|f| format!(", {f}"))
                    .collect::<String>()
            );
            std::process::exit(2)
        }
        match arg.as_str() {
            "--state-dir" => {
                state_dir = Some(PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())))
            }
            "--trials" => cfg.trials_per_cell = parse(arg, it.next()),
            "--seed" => cfg.seed = parse(arg, it.next()),
            "--max-slots" => cfg.max_slots = Some(parse(arg, it.next())),
            "--checkpoint-every" => plan_opts.checkpoint_every = parse(arg, it.next()),
            "--stale-after-ms" => plan_opts.stale_after_ms = parse(arg, it.next()),
            "--store" => {
                plan_opts.store_dir =
                    Some(PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())))
            }
            "--worker-id" => worker_opts.worker_id = it.next().cloned().unwrap_or_else(|| usage()),
            "--threads" => worker_opts.threads = parse(arg, it.next()),
            "--max-trials-then-exit" => worker_opts.max_trials = Some(parse(arg, it.next())),
            "--out" => out_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            bare if sub == "plan" && name.is_none() => name = Some(bare.to_string()),
            _ => {
                eprintln!("unexpected argument: {arg}");
                usage()
            }
        }
    }
    let Some(state_dir) = state_dir else {
        eprintln!("--state-dir: required (the shard plan, leases, and checkpoints live there)");
        std::process::exit(2)
    };

    match sub.as_str() {
        "plan" => {
            let Some(name) = name else {
                eprintln!("shard plan takes a scenario name (see `rcb list`)");
                usage()
            };
            let Some(s) = find(&name) else {
                eprintln!("unknown scenario: {name}");
                usage()
            };
            let spec = s.spec();
            let plan = write_plan(&spec, &cfg, &state_dir, &plan_opts).unwrap_or_else(|e| fail(e));
            println!(
                "plan {} in {}: campaign {} ({} cells x {} trials), seed {}, \
                 checkpoint every {}, stale after {} ms{}",
                plan.plan_id,
                state_dir.display(),
                plan.campaign,
                plan.cells(),
                plan.trials_per_cell,
                plan.seed,
                plan.checkpoint_every,
                plan.stale_after_ms,
                plan.store_dir
                    .as_ref()
                    .map(|d| format!(", store {}", d.display()))
                    .unwrap_or_default(),
            );
            println!(
                "start workers with: rcb shard work --state-dir {}",
                state_dir.display()
            );
        }
        "work" => {
            let plan = load_plan(&state_dir).unwrap_or_else(|e| fail(e));
            let spec = shard_spec(&plan);
            eprintln!(
                "[rcb shard] worker {} on plan {} ({} cells x {} trials)",
                worker_opts.worker_id,
                plan.plan_id,
                plan.cells(),
                plan.trials_per_cell
            );
            match shard_work(&spec, &state_dir, &worker_opts).unwrap_or_else(|e| fail(e)) {
                WorkerOutcome::Finished {
                    cells_completed,
                    cells_stolen,
                    trials_simulated,
                    store_hits,
                } => println!(
                    "[rcb shard] plan complete: this worker finished {cells_completed} cell(s) \
                     ({cells_stolen} stolen, {store_hits} store hit(s)), simulated \
                     {trials_simulated} trial(s); merge with: rcb shard merge --state-dir {}",
                    state_dir.display()
                ),
                WorkerOutcome::Killed { trials_simulated } => eprintln!(
                    "[rcb shard] worker exited after {trials_simulated} simulated trial(s) \
                     (--max-trials-then-exit); its lease will go stale and be stolen"
                ),
            }
        }
        "status" => {
            let plan = load_plan(&state_dir).unwrap_or_else(|e| fail(e));
            let rows = shard_status(&state_dir, &plan).unwrap_or_else(|e| fail(e));
            let done = rows.iter().filter(|r| r.state == CellState::Done).count();
            println!(
                "plan {}: campaign {}, {done}/{} cells done\n",
                plan.plan_id,
                plan.campaign,
                rows.len()
            );
            println!(
                "  {:>4} {:<10} {:>12} {:<12} beat age",
                "cell", "state", "trials", "owner"
            );
            for r in &rows {
                let state = match r.state {
                    CellState::Done => "done",
                    CellState::Claimed => "claimed",
                    CellState::Stealable => "stealable",
                    CellState::Available => "available",
                };
                println!(
                    "  {:>4} {:<10} {:>5}/{:<6} {:<12} {}",
                    r.cell,
                    state,
                    r.watermark,
                    plan.trials_per_cell,
                    r.owner.as_deref().unwrap_or("-"),
                    r.beat_age_ms
                        .map(|ms| format!("{ms} ms"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
        }
        "merge" => {
            let plan = load_plan(&state_dir).unwrap_or_else(|e| fail(e));
            let spec = shard_spec(&plan);
            let merged = shard_merge(&spec, &state_dir).unwrap_or_else(|e| fail(e));
            println!("{}", merged.report.to_table());
            if merged.swept_files > 0 {
                eprintln!(
                    "[rcb shard] swept {} leftover lease/tmp file(s)",
                    merged.swept_files
                );
            }
            if let Some(path) = out_path.as_ref() {
                std::fs::write(path, merged.report.to_json().as_bytes()).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2)
                });
                println!("artifact written to {path}");
            }
        }
        _ => unreachable!("subcommand checked above"),
    }
}

fn cmd_store(rest: &[String]) {
    let Some(sub) = rest.first() else { usage() };
    let mut dir = DEFAULT_STORE_DIR.to_string();
    let mut operands: Vec<String> = Vec::new();
    let mut it = rest[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => dir = it.next().cloned().unwrap_or_else(|| usage()),
            bare if !bare.starts_with('-') && operands.len() < 2 => operands.push(bare.to_string()),
            _ => {
                eprintln!("unknown flag: {arg}");
                usage()
            }
        }
    }
    let operand = operands.first().cloned();
    let fail = |e: rcb_campaign::ServiceError| -> ! {
        eprintln!("{e}");
        std::process::exit(2)
    };
    let store = Store::new(PathBuf::from(&dir));
    match sub.as_str() {
        "list" => {
            let entries = store.list().unwrap_or_else(|e| fail(e));
            if entries.is_empty() {
                println!("store {dir}: empty");
                return;
            }
            println!("store {dir}: {} entr(ies)\n", entries.len());
            println!(
                "  {:<32} {:<16} {:>4} {:>8} {:>10}  cell",
                "key", "campaign", "cell", "trials", "seed"
            );
            for e in &entries {
                println!(
                    "  {:<32} {:<16} {:>4} {:>8} {:>10}  {}",
                    e.key, e.campaign, e.cell_index, e.trials, e.seed, e.cell
                );
            }
        }
        "show" => {
            let Some(prefix) = operand else {
                eprintln!("store show takes a key (or unique key prefix)");
                usage()
            };
            let text = store.render_cell(&prefix).unwrap_or_else(|e| fail(e));
            println!("{text}");
        }
        "trend" => {
            let (Some(prefix), Some(leaf)) = (operands.first(), operands.get(1)) else {
                eprintln!(
                    "store trend takes a key (or unique key prefix) and a report leaf path, \
                     e.g. `rcb store trend 3f2a metrics.completion_slots.p50`"
                );
                usage()
            };
            let rows = store.trend(prefix, leaf).unwrap_or_else(|e| fail(e));
            println!(
                "store {dir}: {} build(s) of the cell behind {prefix}, leaf {leaf}\n",
                rows.len()
            );
            println!("  {:<20} {:<10} value", "code_version", "key");
            for row in &rows {
                let value = match &row.value {
                    Some(rcb_campaign::Json::Int(i)) => i.to_string(),
                    Some(rcb_campaign::Json::Float(x)) => format!("{x:.6}"),
                    Some(rcb_campaign::Json::Str(s)) => s.clone(),
                    Some(other) => other.to_compact(),
                    None => "-".to_string(),
                };
                println!("  {:<20} {:<10} {value}", row.code_version, &row.key[..8]);
            }
        }
        "gc" => {
            let (kept, removed) = store.gc().unwrap_or_else(|e| fail(e));
            for key in &removed {
                println!("removed {key}");
            }
            println!(
                "store {dir}: kept {} entr(ies), removed {}",
                kept.len(),
                removed.len()
            );
        }
        _ => {
            eprintln!("unknown store subcommand: {sub}");
            usage()
        }
    }
}

fn cmd_diff(path_a: &str, path_b: &str, rest: &[String]) {
    let mut threshold: Option<f64> = None;
    let mut ignore: Vec<String> = Vec::new();
    let mut default_ignores = true;
    let mut store_dir = DEFAULT_STORE_DIR.to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => threshold = Some(parse(arg, it.next())),
            "--ignore" => ignore.push(it.next().cloned().unwrap_or_else(|| usage())),
            "--no-default-ignore" => default_ignores = false,
            "--store" => store_dir = it.next().cloned().unwrap_or_else(|| usage()),
            _ => {
                eprintln!("unknown flag: {arg}");
                usage()
            }
        }
    }
    if default_ignores {
        ignore.extend(DEFAULT_IGNORES.iter().map(|k| k.to_string()));
    }

    // Operands are either artifact paths or `store:KEY` references, where
    // KEY is any unique prefix of a content key in the artifact store.
    let load = |path: &str| -> rcb_campaign::Json {
        let text = match path.strip_prefix("store:") {
            Some(prefix) => Store::new(PathBuf::from(&store_dir))
                .render_cell(prefix)
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2)
                }),
            None => std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2)
            }),
        };
        jsonin::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2)
        })
    };
    let (a, b) = (load(path_a), load(path_b));

    let out = diff(&a, &b, &ignore).unwrap_or_else(|e| {
        eprintln!("diff failed: {e}");
        std::process::exit(2)
    });

    if out.rows.is_empty() {
        println!(
            "no numeric differences ({} leaves compared, {} ignored)",
            out.compared, out.ignored
        );
        return;
    }
    println!(
        "{} differing leaves of {} compared ({} ignored); max |rel| = {:.3}",
        out.rows.len(),
        out.compared,
        out.ignored,
        out.max_rel()
    );
    for row in &out.rows {
        match row.kind {
            rcb_campaign::DiffKind::Changed => println!(
                "  {:<60} {:>14.4} -> {:>14.4}  ({:+.2}%)",
                row.path,
                row.a,
                row.b,
                row.rel * 100.0
            ),
            rcb_campaign::DiffKind::MissingInB => println!(
                "  {:<60} {:>14.4} -> {:>14}  (missing in {path_b})",
                row.path,
                row.a,
                "-",
                path_b = path_b,
            ),
            rcb_campaign::DiffKind::ExtraInB => println!(
                "  {:<60} {:>14} -> {:>14.4}  (only in {path_b})",
                row.path,
                "-",
                row.b,
                path_b = path_b,
            ),
        }
    }
    if let Some(t) = threshold {
        let violations = out.violations(t);
        if !violations.is_empty() {
            eprintln!(
                "[rcb diff] FAIL: {} leaves exceed the {:.3} relative threshold",
                violations.len(),
                t
            );
            std::process::exit(1);
        }
        println!("all deltas within the {t:.3} threshold");
    }
}
