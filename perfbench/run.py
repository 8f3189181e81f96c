#!/usr/bin/env python3
"""Campaign benchmark for the rcb workspace.

End-to-end mode (``--trace 0``) times real ``rcb run --spec`` processes on
one pinned workload and reports the end-to-end metrics of BENCHMARK.json.
Traced mode (``--trace 1``) runs ``perfbench-tracer``, which calls the
workspace's public functions in-process with a span around each call into
a layer, and reports the per-layer metrics. Both modes check the program's
outputs and print one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload dense-slots --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed heldout
    python3 perfbench/run.py --smoke

See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
CONFIG = HERE / "workloads.json"

# A hung child is killed after this long, so a run ends within three
# minutes even if rcb hangs.
CHILD_TIMEOUT_S = 150.0
# The named layers' self times must add up to the tracer process's wall
# time within this share. The gap is what no layer accounts for: the
# tracer's own glue between spans (building trial specs, folding results,
# writing artifacts), the span-file write, and process start and exit.
SELF_SUM_TOLERANCE = 0.05
# An end-to-end run repeats its closed batch at least this many times, and
# launches the set-up command this many times before every batch, so the
# set-up median spans the whole run rather than its first moments.
MIN_REPS = 3
SETUP_LAUNCHES_PER_BATCH = 15
# The host this runs on changes speed by 20-40% within seconds to minutes
# (other tenants), and CPU time moves with wall time, so raw times of runs
# minutes apart spread too widely to gate a change. Before every batch the
# fixed perfbench-hostref kernel runs on the workload's thread count; the
# batch's times (and its set-up launches) are scaled by
# HOSTREF_NOMINAL_S / that kernel's time, i.e. to a host running the kernel
# in its median time on the 2-vCPU VM the benchmark was built on. The
# kernel calls no workspace code, so a change to rcb cannot move it.
HOSTREF_ITERS = 10_000_000
HOSTREF_NOMINAL_S = 0.18

# Artifact leaves that must repeat exactly for a given seed: counts,
# min/max/mean/std of every distribution, the cell identity numbers and the
# engine's deterministic perf counters. Left out on purpose:
# - p50/p90/p99: sketch quantiles that are known to fall outside the
#   observed [min, max] (ROADMAP 3a); a fix changes them without changing
#   what was simulated.
# - perf wall_s/slots_per_sec/setup_s/slot_loop_s/fast_forward_s/
#   finalize_s: wall-clock leaves, zero without --perf and host-dependent
#   with it (ROADMAP 3c).
# - code_version (the commit) and schema_version (the artifact layout):
#   they identify the producer, not the result.
# - strings (names, descriptions, schedule details): labels, not results.
EXACT_KEYS = frozenset(
    """
    seed trials_per_cell total_trials
    n budget max_slots trials completed all_informed completion_rate safety_violations
    count mean std_dev min max epoch phase log2
    slots_total slots_stepped slots_fast_forwarded ff_skip_ratio spans mean_span_len
    ff_gated_segments rng_engine_draws rng_node_draws jam_spent_stepped jam_spent_spans
    observer_events
    events first_slot last_slot scheduled_at applied_trials applied_at_min applied_at_max
    schedule_events crashed_node_slots
    """.split()
)

SERVICE_LINE = re.compile(
    r"service: (\d+) store hit\(s\), (\d+) trial\(s\) resumed from checkpoints, "
    r"simulated (\d+) trial\(s\)"
)


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


# ---------------------------------------------------------------------------
# Digest of an artifact's exact leaves
# ---------------------------------------------------------------------------


def exact_leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if isinstance(value, (dict, list)):
                yield from exact_leaves(value, sub)
            elif key in EXACT_KEYS and isinstance(value, (int, float)) and not isinstance(value, bool):
                yield sub, value
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from exact_leaves(value, f"{path}[{i}]")


def canonical(value):
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def digest(artifact):
    lines = sorted(f"{p}={canonical(v)}" for p, v in exact_leaves(artifact))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Building and launching
# ---------------------------------------------------------------------------


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    return d if d.is_absolute() else ROOT / d


def source_fingerprint():
    """Hash of every file the binaries are built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "tracer" / "Cargo.toml", HERE / "tracer" / "Cargo.lock"]
    for d in (ROOT / "src", ROOT / "crates", HERE / "tracer" / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build():
    """Build rcb and the benchmark's binaries once per source state. Cargo
    is not asked again while the sources are unchanged: outside a git
    checkout the campaign crate's build script watches a .git/HEAD that
    does not exist, so every cargo call would rebuild it (~20 s on 2 vCPUs)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "campaign").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the rcb workspace")
    stamp = target_dir() / "perfbench-build.stamp"
    fingerprint = source_fingerprint()
    binaries = [target_dir() / "release" / b for b in ("rcb", "perfbench-tracer", "perfbench-hostref")]
    if all(b.is_file() for b in binaries) and stamp.is_file() and stamp.read_text() == fingerprint:
        return
    common = ["cargo", "build", "--release", "--offline", "--quiet", "--target-dir", str(target_dir())]
    for cmd in (common + ["--bin", "rcb"], common + ["--manifest-path", str(HERE / "tracer" / "Cargo.toml")]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    stamp.write_text(fingerprint)


_child = {"pid": None}


def _on_alarm(_signum, _frame):
    if _child["pid"] is not None:
        os.kill(_child["pid"], signal.SIGKILL)


class Proc:
    def __init__(self, wall, cpu, rss_mb, code, stderr):
        self.wall, self.cpu, self.rss_mb, self.code, self.stderr = wall, cpu, rss_mb, code, stderr


def launch(argv, work, stdout_name=None):
    """Run one child to completion: wall, rusage CPU and peak RSS, exit code."""
    err = work / "child.stderr"
    out = work / stdout_name if stdout_name else os.devnull
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = [str(a) for a in argv]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _child["pid"] = pid
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    status = None
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _child["pid"] = None
        if status is None:  # interrupted (SIGTERM, Ctrl-C): leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    return Proc(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        os.waitstatus_to_exitcode(status),
        err.read_text(errors="replace"),
    )


# ---------------------------------------------------------------------------
# Workloads and checks
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, cfg, tiny):
        self.name = name
        self.spec = HERE / cfg["spec"]
        self.trials = cfg["smoke_trials"] if tiny else cfg["trials"]
        self.threads = cfg["threads"]
        self.guard = cfg["guard"]
        self.service = cfg.get("smoke_service" if tiny else "service")
        # Recorded digests hold for the stated size only.
        self.digests = {} if tiny else cfg["digests"]
        self.cells = sum(1 for line in self.spec.read_text().splitlines() if line.strip() == "[[cell]]")

    def run_argv(self, rcb, seed, out=None, extra=()):
        argv = [rcb, "run", "--spec", self.spec, "--trials", self.trials, "--seed", seed,
                "--threads", self.threads, "--quiet", *extra]
        return argv + (["--out", out] if out else [])


def shape_problems(w, cells):
    """The workload still stresses its layer: thresholds set from measurement."""
    g, problems = w.guard, []
    for i, c in enumerate(cells):
        p = c["perf"]
        if "min_cell_skip_ratio" in g and p["ff_skip_ratio"] < g["min_cell_skip_ratio"]:
            problems.append(f"cell {i}: skip ratio {p['ff_skip_ratio']:.3f} < {g['min_cell_skip_ratio']}")
        if "max_cell_spans_per_stepped_slot" in g:
            ratio = p["spans"] / max(1, p["slots_stepped"])
            if ratio > g["max_cell_spans_per_stepped_slot"]:
                problems.append(f"cell {i}: {ratio:.3f} spans per stepped slot")
        if "max_cell_slots_per_trial" in g:
            per_trial = p["slots_total"] / max(1, c["trials"])
            if per_trial > g["max_cell_slots_per_trial"]:
                problems.append(f"cell {i}: {per_trial:.1f} covered slots per trial")
        if g.get("every_cell_topology_schedule_or_adaptive"):
            scheduled = c.get("schedule", {}).get("schedule_events", 0) > 0
            if c["topology"] == "complete" and not scheduled and "(adaptive)" not in c["adversary"]:
                problems.append(f"cell {i}: no topology, schedule or adaptive Eve")
    if "max_spans_per_stepped_slot" in g:
        spans = sum(c["perf"]["spans"] for c in cells)
        stepped = sum(c["perf"]["slots_stepped"] for c in cells)
        if spans / max(1, stepped) > g["max_spans_per_stepped_slot"]:
            problems.append(f"workload: {spans / max(1, stepped):.3f} spans per stepped slot")
    return problems


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def artifact_problems(w, art, seed):
    """Shape, telemetry invariants and workload guards of one artifact.
    Returns (problems, trials, failed trials)."""
    if art.get("kind") != "rcb-campaign-report":
        return ["not a campaign artifact"], 0, 0
    cells = art.get("cells", [])
    problems = []
    if len(cells) != w.cells or art.get("total_trials") != w.trials * w.cells or art.get("seed") != seed:
        problems.append("artifact shape differs from the workload (cells, trials or seed)")
    failed = 0
    for i, c in enumerate(cells):
        p, m = c["perf"], c["metrics"]
        covered = m["completion_slots"]["mean"] * m["completion_slots"]["count"]
        if not close(p["slots_stepped"] + p["slots_fast_forwarded"], covered):
            problems.append(f"cell {i}: slots stepped + skipped != slots covered")
        spent = m["eve_spent"]["mean"] * m["eve_spent"]["count"]
        if not close(p["jam_spent_stepped"] + p["jam_spent_spans"], spent):
            problems.append(f"cell {i}: jam spent stepped + spans != Eve's spend")
        failed += min(c["trials"], c["trials"] - c["completed"] + c["safety_violations"])
    return problems + shape_problems(w, cells), w.trials * w.cells, failed


def digest_problems(w, seed, digests):
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"exact leaves differ between runs of one seed: {sorted(set(digests))}")
    recorded = w.digests.get(str(seed))
    if recorded is not None and digests and digests[0] != recorded:
        problems.append(f"exact-leaf digest {digests[0]} != recorded {recorded} for seed {seed}")
    return problems


def read_artifact(path):
    try:
        text = path.read_text()
        return text, json.loads(text)
    except (OSError, ValueError) as e:
        return None, {"error": str(e)}


# ---------------------------------------------------------------------------
# End-to-end mode
# ---------------------------------------------------------------------------


def e2e_invocations(w, rcb, seed, work):
    """One closed batch of the workload: its rcb processes, in order.
    Returns (procs, final artifact, problems)."""
    if w.service is None:
        p = launch(w.run_argv(rcb, seed, out=work / "artifact.json"), work)
        _, art = read_artifact(work / "artifact.json")
        return [p], art, [] if p.code == 0 else [f"rcb exited {p.code}: {p.stderr[-300:]}"]

    state, store = work / "state", work / "store"
    for d in (state, store):
        shutil.rmtree(d, ignore_errors=True)
    flags = ["--state-dir", state, "--checkpoint-every", w.service["checkpoint_every"], "--store", store]
    kill_at = w.service["kill_after_trials"]
    killed = launch(w.run_argv(rcb, seed, extra=flags + ["--max-trials-then-exit", kill_at]), work)
    resumed = launch(w.run_argv(rcb, seed, out=work / "resumed.json", extra=flags + ["--resume"]), work)
    warm = launch(w.run_argv(rcb, seed, out=work / "warm.json", extra=flags + ["--resume"]), work)
    procs = [killed, resumed, warm]
    problems = [f"rcb exited {p.code}: {p.stderr[-300:]}" for p in procs if p.code != 0]
    if f"exited after {kill_at} simulated trial(s)" not in killed.stderr:
        problems.append("the killed run did not stop at --max-trials-then-exit")
    r, h = SERVICE_LINE.search(resumed.stderr), SERVICE_LINE.search(warm.stderr)
    if r is None or int(r.group(2)) == 0:
        problems.append("the resumed run restored no trials from checkpoints")
    if h is None or int(h.group(1)) != w.cells or int(h.group(3)) != 0:
        problems.append("the warm run was not served wholly from the store")
    text, art = read_artifact(work / "resumed.json")
    warm_text, _ = read_artifact(work / "warm.json")
    if text is None or text != warm_text:
        problems.append("resumed and warm artifacts are not byte-identical")
    return procs, art, problems


def host_reference(w, work):
    """Seconds the host-speed kernel takes now, on the workload's threads."""
    p = launch([target_dir() / "release" / "perfbench-hostref", w.threads, HOSTREF_ITERS], work,
               stdout_name="hostref.out")
    if p.code != 0:
        raise BenchError(f"perfbench-hostref exited {p.code}: {p.stderr[-300:]}")
    return float((work / "hostref.out").read_text())


def run_e2e(w, seed, seconds, work):
    rcb = target_dir() / "release" / "rcb"
    problems = []

    # Set-up cost: the workload's own command at one trial per cell, capped
    # at one slot, without service flags. One untimed launch first lets the
    # page cache fill.
    setup_argv = [rcb, "run", "--spec", w.spec, "--trials", 1, "--max-slots", 1, "--seed", seed,
                  "--threads", w.threads, "--quiet", "--out", work / "setup.json"]
    launch(setup_argv, work)
    setup, refs = [], []

    reps, digests, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        refs.append(host_reference(w, work))
        scale = HOSTREF_NOMINAL_S / refs[-1]
        for _ in range(SETUP_LAUNCHES_PER_BATCH):
            p = launch(setup_argv, work)
            if p.code != 0:
                problems.append(f"set-up run exited {p.code}: {p.stderr[-300:]}")
            setup.append((p.wall * scale, p.wall))
        if read_artifact(work / "setup.json")[1].get("kind") != "rcb-campaign-report":
            problems.append("set-up run wrote no artifact")
        procs, art, rep_problems = e2e_invocations(w, rcb, seed, work)
        more, trials, bad = artifact_problems(w, art, seed)
        problems += rep_problems + more
        attempted += trials
        failed += bad
        digests.append(digest(art))
        wall, cpu = sum(p.wall for p in procs), sum(p.cpu for p in procs)
        reps.append((wall * scale, cpu * scale, max(p.rss_mb for p in procs), trials, wall, cpu))
        elapsed = time.perf_counter() - start
        typical = elapsed / len(reps)
        if problems or (len(reps) >= MIN_REPS and elapsed + typical > seconds):
            break
    problems += digest_problems(w, seed, digests)

    def med(i, rows=reps):
        return statistics.median(r[i] for r in rows)

    metrics = {
        "norm_wall_s": med(0),
        "norm_cpu_s": med(1),
        "norm_trials_per_s": statistics.median(r[3] / r[0] for r in reps),
        "peak_rss_mb": med(2),
        "setup_s": med(0, setup),
    }
    notes = [
        f"{len(reps)} closed batch(es) of {w.trials * w.cells} trials at {w.threads} worker(s), "
        f"{len(setup)} set-up launches, exact-leaf digest {digests[0]}",
        f"fail_ratio {failed / max(1, attempted):.6f} ratio ({failed} of {attempted} trials failed)",
        f"raw medians: wall_s {med(4):.4f} s, cpu_s {med(5):.4f} s, "
        f"trials_per_s {statistics.median(r[3] / r[4] for r in reps):.4f} 1/s, setup_s {med(1, setup):.6f} s",
        f"host reference: median {statistics.median(refs):.4f} s over {len(refs)} readings "
        f"({min(refs):.4f}-{max(refs):.4f}), nominal {HOSTREF_NOMINAL_S} s",
    ]
    return metrics, problems, attempted, failed, notes


# ---------------------------------------------------------------------------
# Traced mode
# ---------------------------------------------------------------------------


def run_traced(w, seed, work):
    rcb = target_dir() / "release" / "rcb"
    tracer = target_dir() / "release" / "perfbench-tracer"
    spans_dir = ROOT / ".perfbench-out"
    spans_dir.mkdir(exist_ok=True)
    spans = spans_dir / f"{w.name}-seed{seed}.spans.jsonl"
    argv = [tracer, "--spec", w.spec, "--trials", w.trials, "--seed", seed,
            "--work-dir", work, "--spans-out", spans]
    if w.service is not None:
        argv += ["--service-every", w.service["checkpoint_every"]]
    p = launch(argv, work, stdout_name="tracer.out")
    if p.code != 0:
        return {}, [f"tracer exited {p.code}: {p.stderr[-300:]}"], w.trials * w.cells, w.trials * w.cells, []
    out = json.loads((work / "tracer.out").read_text().splitlines()[-1])
    metrics = dict(out["metrics"])
    metrics["trace.wall_s"] = p.wall
    metrics["trace.self_sum_ratio"] = metrics["trace.self_sum_s"] / p.wall

    problems = []
    if out["invariant_failures"]:
        problems.append(f"{out['invariant_failures']} trial(s) broke a telemetry invariant")
    if 1.0 - metrics["trace.self_sum_ratio"] > SELF_SUM_TOLERANCE:
        problems.append(f"named layers' self times sum to {metrics['trace.self_sum_ratio']:.3f} of the traced wall")

    # The end-to-end artifact itself, from a real rcb process.
    e2e = launch(w.run_argv(rcb, seed, out=work / "artifact.json"), work)
    if e2e.code != 0:
        problems.append(f"rcb exited {e2e.code}: {e2e.stderr[-300:]}")
    _, art = read_artifact(work / "artifact.json")
    more, _, _ = artifact_problems(w, art, seed)
    problems += more
    names = ["artifact.json", "fold.json", "report-1w.json", "report-2w.json"]
    if w.service is not None:
        names += ["service-cold.json", "service-warm.json"]
        texts = {n: read_artifact(work / n)[0] for n in ("report-1w.json", "service-cold.json", "service-warm.json")}
        if len(set(texts.values())) != 1:
            problems.append("service runs are not byte-identical to the plain in-process run")
        if metrics["campaign.store.hit_ratio"] != 1.0:
            problems.append("the warm service run missed the store")
    digests = [digest(read_artifact(work / n)[1]) for n in names]
    if len(set(digests)) != 1:
        problems.append("the traced fold and the in-process reports do not reproduce the artifact: "
                        + ", ".join(f"{n}={d}" for n, d in zip(names, digests)))
    problems += digest_problems(w, seed, digests[:1])

    notes = [
        f"{out['trials']} trials traced, {int(metrics['trace.spans'])} spans in {spans.relative_to(ROOT)}, "
        f"exact-leaf digest {digests[0]}",
        f"trial tail is p{metrics['harness.trial_ms_tail_pct']:g} of {out['trials']} trials",
    ]
    return metrics, problems, out["trials"], out["failed_trials"], notes


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def declared_metrics(trace):
    bench = json.loads(BENCHMARK.read_text())
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def report(name, trace, metrics, problems, attempted, failed, notes):
    """Print every declared metric with its unit, then the JSON result line."""
    declared = declared_metrics(trace)
    missing = [n for n, _ in declared if n not in metrics]
    if missing:
        problems = problems + [f"metrics not produced: {', '.join(missing)}"]
    correct = not problems
    if not correct:
        failed = attempted
    print(f"# {name} ({'traced' if trace else 'end-to-end'})")
    for note in notes:
        print(f"#   {note}")
    for problem in problems:
        print(f"#   CHECK FAILED: {problem}")
    values = {}
    for metric, unit in declared:
        value = float(metrics.get(metric, 0.0))
        values[metric] = {"value": value, "unit": unit}
        print(f"{metric:<42} {value:>16.6g} {unit}")
    result = {"correct": correct, "attempted": max(1, int(attempted)), "failed": int(failed), "metrics": values}
    print(json.dumps(result), flush=True)
    return correct


def run_one(name, cfg, seed, seconds, trace, tiny):
    w = Workload(name, cfg["workloads"][name], tiny)
    work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result = run_traced(w, seed, work)
        else:
            result = run_e2e(w, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return report(name, trace, *result)


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def smoke(cfg):
    """Every workload at a tiny size in both modes, then a tampered artifact."""
    failures = []
    for name in cfg["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(cfg["default_seed"]),
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            run = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.splitlines()
            sys.stdout.write(run.stdout)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(f"{name} trace={trace}: no result line")
                continue
            if run.returncode != 0 or not result["correct"]:
                failures.append(f"{name} trace={trace}: checks failed")
            for metric, unit in declared_metrics(trace):
                printed = any(line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines)
                if not printed or result["metrics"].get(metric, {}).get("unit") != unit:
                    failures.append(f"{name} trace={trace}: {metric} not printed with unit {unit}")

    # A tampered artifact must fail the digest check; a quantile edit must not.
    w = Workload("small-trials", cfg["workloads"]["small-trials"], tiny=True)
    work = ROOT / ".perfbench-work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        seed = cfg["default_seed"]
        launch(w.run_argv(target_dir() / "release" / "rcb", seed, out=work / "a.json"), work)
        _, art = read_artifact(work / "a.json")
        w.digests = {str(seed): digest(art)}
        if digest_problems(w, seed, [digest(art)]):
            failures.append("tamper test: the untouched artifact fails its own digest")
        art["cells"][0]["metrics"]["completion_slots"]["p50"] += 1.0
        if digest_problems(w, seed, [digest(art)]):
            failures.append("tamper test: a p50 edit (excluded leaf) changed the digest")
        art["cells"][0]["perf"]["slots_stepped"] += 1
        if not digest_problems(w, seed, [digest(art)]) or not artifact_problems(w, art, seed)[0]:
            failures.append("tamper test: a tampered slots_stepped leaf passed the checks")
        else:
            print("# tamper test: a tampered slots_stepped leaf fails the digest and invariant checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"# SMOKE FAILED: {failure}")
    print("# smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return not failures


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    # SIGTERM unwinds like Ctrl-C, so launch() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", default="default", help="integer, 'default' or 'heldout'")
    ap.add_argument("--seconds", type=float, help="measuring time of an end-to-end run "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test size (recorded digests do not apply)")
    ap.add_argument("--smoke", action="store_true", help="self-test every workload at a tiny size")
    args = ap.parse_args()

    cfg = json.loads(CONFIG.read_text())
    if args.smoke:
        build()
        return 0 if smoke(cfg) else 1
    seed = {"default": cfg["default_seed"], "heldout": cfg["heldout_seed"]}.get(args.seed, args.seed)
    if not str(seed).isdigit():
        raise BenchError(f"--seed: expected a non-negative integer, 'default' or 'heldout', got {seed}")
    seed = int(seed)
    if args.workload == "all":
        names = list(cfg["workloads"])
    elif args.workload in cfg["workloads"]:
        names = [args.workload]
    else:
        raise BenchError(f"--workload: expected one of {', '.join(cfg['workloads'])} or all")
    seconds = args.seconds if args.seconds is not None else json.loads(BENCHMARK.read_text())["run_seconds"]
    build()
    ok = [run_one(n, cfg, seed, seconds, args.trace, args.tiny) for n in names]
    return 0 if len(names) == 1 or all(ok) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
