"""abstainkit benchmark: chains of real CLI invocations on seeded inputs.

Usage, from the root of a checkout that holds `src/abstainkit`:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes rounds for about S seconds. A round generates the workload's
inputs from the seed several times, timing each generation as set-up, then
runs one pass of the workload's invocation chain on them. Each invocation is a
child `python -m abstainkit.cli ...` started only after the previous one exits,
with `src` on PYTHONPATH. Every invocation's outputs are checked; a nonzero
exit or a failed check counts as a failed invocation.

With --trace 0 every pass is untraced and the run reports the end-to-end
metrics listed in BENCHMARK.json. With --trace 1 untraced and traced passes
alternate; traced passes start each child through `bench/launch.py`, and the
run reports the per-layer metrics of BENCHMARK.json (medians over traced
passes) plus `trace.overhead_s`, the traced minus the untraced median wall time.

The second-to-last stdout line is a JSON record of the run: environment, seed,
every pass and set-up sample, and any check failures. The last line is
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
LAUNCHER = os.path.join(HERE, "launch.py")

# Fewest passes a run makes, whatever --seconds says: three untraced passes, or
# two of each kind when traced and untraced passes alternate.
MIN_PASSES = {0: 3, 1: 4}
# Inputs are generated this many times in every round; setup_s is the median
# over all rounds, so it samples the host's speed across the whole run.
SETUP_REPS = 6
RUN_LIMIT_S = 170.0  # children still running at this point are killed
BLAS_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, no BENCHMARK.json)."""


def import_package():
    """Import `abstainkit` from this checkout's `src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "abstainkit", "cli.py")):
        raise SetupError(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    import abstainkit

    if not os.path.abspath(abstainkit.__file__).startswith(SRC + os.sep):
        raise SetupError(f"abstainkit imported from {abstainkit.__file__}, not from {SRC}")


def load_definition():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"BENCHMARK.json: {exc}") from None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed):
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    package = os.path.join(SRC, "abstainkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "seed": seed,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def spawn(cmd, cwd, stdout_path, stderr_path, env, deadline):
    """Run one child to completion; returns (exit code, cpu seconds, max RSS in MB)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_pass(workload, rows, work, traced, deadline, pinned=None):
    """One chain of invocations; returns a dict with timings, failures and spans."""
    from workloads import CheckFailed, check_invocation

    out_dir = os.path.join(work, "out")
    logs = os.path.join(work, "logs")
    for path in (out_dir, logs):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    env = child_env()
    chain = workload.chain(rows)
    children = []
    start = time.perf_counter()
    for k, inv in enumerate(chain):
        stem = os.path.join(logs, f"{k}-{inv.name}")
        if traced:
            cmd = [sys.executable, LAUNCHER, stem + ".spans.json", workload.name, f"{k}-{inv.name}", "--", *inv.args]
        else:
            cmd = [sys.executable, "-m", "abstainkit.cli", *inv.args]
        children.append(spawn(cmd, work, stem + ".out", stem + ".err", env, deadline))
    wall = time.perf_counter() - start

    problems, digests, spans = [], {}, []
    for k, (inv, (code, _, _)) in enumerate(zip(chain, children)):
        stem = os.path.join(logs, f"{k}-{inv.name}")
        with open(stem + ".out") as fh:
            stdout = fh.read()
        if code != 0:
            with open(stem + ".err") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            problems.append(f"{inv.name}: exit code {code} {tail}")
            continue
        if traced:
            with open(stem + ".spans.json") as fh:
                spans.append(json.load(fh)["spans"])
        try:
            digests[inv.name] = check_invocation(inv, work, stdout, None if pinned is None else pinned.get(inv.name, {}))
        except CheckFailed as exc:
            problems.append(f"{inv.name}: {exc}")
    return {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": sum(c[1] for c in children),
        "peak_rss_mb": max(c[2] for c in children),
        "attempted": len(chain),
        "failed": len(problems),
        "problems": problems,
        "digests": digests,
        "spans": spans,
    }


def time_setup(workload, seed, work, rows):
    """Generate the inputs SETUP_REPS times; returns the per-repetition seconds."""
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.generate(seed, work, rows)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(workload, seed, seconds, trace):
    """Run rounds of set-up and one pass for ``seconds``; returns (record, passes)."""
    from workloads import DEFAULT_SEED, load_pinned

    limit = time.monotonic() + RUN_LIMIT_S
    rows = workload.rows
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pinned = load_pinned(workload.name) if seed == DEFAULT_SEED else None
    kinds = (False, True) if trace else (False,)
    setup, passes, rounds = [], [], []
    began = time.monotonic()
    while True:
        done = len(passes)
        typical = statistics.median(rounds) if rounds else 0.0
        enough = done >= MIN_PASSES[trace] and time.monotonic() - began + typical > seconds
        if enough or (rounds and time.monotonic() + typical * 1.5 > limit):
            break
        round_start = time.monotonic()
        setup += time_setup(workload, seed, work, rows)
        passes.append(run_pass(workload, rows, work, kinds[done % len(kinds)], limit, pinned))
        rounds.append(time.monotonic() - round_start)
    record = {"workload": workload.name, "rows": rows, "seconds": seconds, "trace": trace, "setup_s": setup}
    return record, passes


def end_to_end(definition, passes, setup):
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definition["end_to_end"]}


def per_layer(definition, passes):
    from spans import layer_totals

    traced = [layer_totals(p["spans"]) for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    out = {}
    for metric in definition["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        else:
            value = statistics.median(t.get(name, 0.0) for t in traced)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record, passes = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    metrics = per_layer(definition, passes) if args.trace else end_to_end(definition, passes, record["setup_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record["env"] = environment(args.seed)
    record["passes"] = [
        {k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "failed", "problems")} for p in passes
    ]
    record["digests"] = passes[-1]["digests"]
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
