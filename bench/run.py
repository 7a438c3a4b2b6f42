"""End-to-end benchmark of the nilweight engine, with a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload global-count --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 -m pytest bench -q                        # the benchmark's own tests

A run imports the engine from `src/`, writes the workload's seeded group
files (`workloads.py`), and sends the engine one task at a time through
`nilweight.cli.run_command`: a single closed-loop client, so a task starts
when the previous one has returned. One pass runs the workload's whole
task list. Further passes follow while another pass of the same length
still fits in `--seconds`, and at least one pass always runs. Every report
is checked by the oracle in `oracle.py`.

Times are in reference seconds (see REFERENCE_LOOP_S below), which cancel
most of a shared host's drift in speed; the raw seconds are printed beside
them. `setup_s` is the median of several set-ups, each a fresh interpreter
importing nilweight plus writing and parsing the workload's group files.
`wall_s` and `cpu_s` are the elapsed and CPU time of one pass's tasks
(their sum, without the calibration and garbage collection between them),
and `task_p50_s` and `task_tail_s` percentiles of its task latencies, each
the median over the run's passes. `peak_rss_mb` is the process's peak resident
memory after the first pass.

With `--trace 1` the run makes one pass untraced and one pass with every
layer wrapped by `tracing.Tracer`, checks that both passes give
byte-identical reports, and reports the per-layer metrics plus
`trace.overhead_s`, the traced minus the untraced pass time. The spans go
to `bench/.run/spans-<workload>.json`.

The lines printed first give every metric the run measured, with its unit
and sample count, the failure ratio, and the metadata (interpreter, git
revision, CPU count, seed, task count, `src/` line count). The last line is
one JSON object holding the metrics BENCHMARK.json declares: its
`end_to_end` list with `--trace 0`, its `per_layer` list with `--trace 1`.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / ".run"
WORKLOADS = ("global-count", "vertex-search", "table-cache")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
# On a shared host the same pass can take 1.5 times as long from one minute
# to the next. A short calibration loop, timed before and after every task,
# tracks that drift: each interval is scaled by REFERENCE_LOOP_S over the
# loop time measured beside it, giving reference seconds, the time the
# interval would take on a host that runs the loop in REFERENCE_LOOP_S.
REFERENCE_LOOP_S = 0.0015


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "nilweight" / "__init__.py").is_file():
        print(f"error: engine source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import nilweight

    if Path(nilweight.__file__).resolve().parent != SRC / "nilweight":
        print(f"error: imported nilweight from {nilweight.__file__}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- calibration -------------------------------------------------------------


def _calibration_loop() -> float:
    """Seconds taken by a fixed slice of tuple, hash and dict work."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(4000):
        key = (i, i >> 1, i & 7)
        table[key] = acc
        acc += hash(key) & 15
    return time.perf_counter() - t0


def calibration_s() -> float:
    """The loop time now: the median of five runs of the loop."""
    return statistics.median(_calibration_loop() for _ in range(5))


class Clock:
    """Times intervals in raw seconds and in reference seconds."""

    def __init__(self):
        self.loop_s = calibration_s()

    def measure(self, fn, *args):
        """(fn(*args), raw seconds, raw CPU seconds, reference seconds per raw second)."""
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn(*args)
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        before, self.loop_s = self.loop_s, calibration_s()
        return result, elapsed, cpu, REFERENCE_LOOP_S * 2 / (before + self.loop_s)


# --- one workload ------------------------------------------------------------


def run_workload(args, work: Path) -> int:
    from nilweight import cli
    from nilweight.corpus import parse_group_file

    import oracle
    import workloads

    inputs, cache_dir = work / "inputs", work / "cache"

    def set_up():
        fresh_import()
        tasks = workloads.generate(args.workload, args.seed, inputs)
        for path in sorted({task.path for task in tasks}):
            parse_group_file(Path(path).read_text())
        return tasks

    clock = Clock()
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        tasks, raw_s, _, scale = clock.measure(set_up)
        setup.append(raw_s * scale)
        raw_setup.append(raw_s)
    judge = oracle.Oracle(oracle.load_reference())
    uses_cache = any(task.command == "chartab" for task in tasks)

    def one_pass(tracer=None):
        judge.new_pass()
        if uses_cache:  # every pass starts with an empty cache directory
            shutil.rmtree(cache_dir, ignore_errors=True)
        return run_pass(
            cli, tasks, str(cache_dir) if uses_cache else None, judge, clock, tracer
        )

    passes = []
    if args.trace:
        from tracing import Tracer

        passes.append(one_pass())
        with Tracer() as tracer:
            traced = one_pass(tracer)
        for i, (plain, seen) in enumerate(zip(passes[0].outputs, traced.outputs)):
            if plain != seen:
                traced.failures.append(f"{tasks[i].label}: report differs with tracing on")
        passes.append(traced)
        metrics = {name: (value, _unit(name)) for name, value in tracer.metrics().items()}
        metrics["trace.overhead_s"] = (traced.wall - passes[0].wall, "s")
        raw = {"trace.overhead_s": traced.raw_wall - passes[0].raw_wall}
        tracer.write(RUN_DIR / f"spans-{args.workload}.json")
    else:
        begin = time.perf_counter()
        passes.append(one_pass())
        # the high-water mark after one pass, so the number of passes a run
        # makes does not move it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while time.perf_counter() - begin + passes[-1].raw_wall <= args.seconds:
            passes.append(one_pass())
        metrics = {name: (value, "s") for name, value in end_to_end(setup, passes, "ref").items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        raw = end_to_end(raw_setup, passes, "raw")

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.outputs) for p in passes)
    describe(args, tasks, passes, metrics, raw, attempted, failures)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in declared["per_layer" if args.trace else "end_to_end"]
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def fresh_import() -> None:
    """Import nilweight from src/ in a fresh interpreter, as a first command does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import nilweight"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


class Pass:
    """Per-task latency and CPU time of one pass, in reference ("ref") and raw seconds."""

    def __init__(self):
        self.latency: dict[str, list[float]] = {"ref": [], "raw": []}
        self.cpu: dict[str, list[float]] = {"ref": [], "raw": []}
        self.outputs: list[tuple[int | None, str]] = []
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.latency["ref"])

    @property
    def raw_wall(self) -> float:
        return sum(self.latency["raw"])


def run_pass(cli, tasks, cache_dir, judge, clock, tracer) -> Pass:
    """Run every task once, in order; judge the reports afterwards."""
    p = Pass()
    clock.loop_s = calibration_s()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        argv = task.argv(cache_dir if task.command == "chartab" else None)
        # every task starts without the garbage of the one before, as a
        # fresh command would; this also steadies the peak memory
        gc.collect()
        outcome, raw_s, cpu_s, scale = clock.measure(_run_task, cli, argv)
        p.latency["raw"].append(raw_s)
        p.latency["ref"].append(raw_s * scale)
        p.cpu["raw"].append(cpu_s)
        p.cpu["ref"].append(cpu_s * scale)
        p.outputs.append(outcome)
    for task, (code, text) in zip(tasks, p.outputs):
        if code is None:
            reason = "raised " + text.strip().splitlines()[-1]
        else:
            reason = judge.check(task, code, text)
        if reason:
            p.failures.append(f"{task.label}: {reason}")
    return p


def _run_task(cli, argv):
    try:
        return cli.run_command(argv)
    except Exception:  # a crashing task is a failed task; the run goes on
        return None, traceback.format_exc()


# --- metrics -----------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it."""
    best = 50
    for pct in range(50, 100):
        if n - math.ceil(pct * n / 100) >= TAIL_BEYOND:
            best = pct
    return best


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def end_to_end(setup, passes, kind: str) -> dict:
    """Time metrics in reference or raw seconds: medians over the run's passes."""
    med = statistics.median
    latency = [p.latency[kind] for p in passes]
    pct = tail_percentile(len(latency[0]))
    return {
        "setup_s": med(setup),
        "wall_s": med(sum(t) for t in latency),
        "cpu_s": med(sum(p.cpu[kind]) for p in passes),
        "task_p50_s": med(med(t) for t in latency),
        "task_tail_s": med(percentile(t, pct) for t in latency),
    }


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


# --- reporting ---------------------------------------------------------------


def metadata(args, tasks, passes) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tasks": len(tasks),
        "passes": len(passes),
        "tail_percentile": tail_percentile(len(tasks)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def describe(args, tasks, passes, metrics, raw, attempted, failures) -> None:
    """The human-readable lines printed before the result line."""
    meta = metadata(args, tasks, passes)
    per_pass = f"{len(tasks)} tasks per pass, median of {len(passes)} passes"
    samples = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "cpu_s": f"median of {len(passes)} passes",
        "task_p50_s": f"p50 of {per_pass}",
        "task_tail_s": f"p{meta['tail_percentile']} of {per_pass}",
        "peak_rss_mb": "after the first pass",
    }
    print(f"workload {args.workload}: {len(tasks)} tasks, {len(passes)} passes, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        raw_s = f"raw {raw[name]:.6g}" if name in raw and unit == "s" else ""
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {raw_s:<14} {samples.get(name, '')}")
    ratio = len(failures) / attempted
    print(f"  {'fail_ratio':<40} {ratio:>14.6g} {'ratio':<6} {len(failures)} of {attempted} tasks")
    for failure in failures:
        print(f"  FAILED {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        status = max(status, child.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
