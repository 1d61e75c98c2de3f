"""Census benchmark: run one workload for a while and print its metrics.

Run from the repo root (the package need not be installed):

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Each pass runs every op of the workload once, in a fresh interpreter
(one_pass.py), so the cached endomorphism data starts cold as it does for
a user. With --trace 0 the run makes timed passes for about --seconds (at
least two) and reports the end-to-end metrics as medians over them. With
--trace 1 it runs one timed pass and then one traced pass, and reports the
per-layer metrics. Set-up time is sampled in separate interpreters too.
The seed sets the group order of every pass and names the scratch
directory; no result depends on it.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the run's provenance, every per-pass
value and, for --trace 1, every span.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9  # set-up-only interpreters per run, besides one per pass
MIN_PASSES = 2  # timed passes per --trace 0 run, whatever --seconds says
DEADLINE_S = 170.0  # a run must end within 180 s


class PassError(Exception):
    """A pass interpreter failed before it could report."""


def run_pass(mode, workload, groups, tmp, deadline) -> dict:
    """Start one_pass.py in a fresh interpreter and return its record."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           mode, workload, tmp, repr(t0), ",".join(groups)]
    # A session of its own, so a timeout also stops the census pool's workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise PassError(f"{mode} pass printed no record")
    return json.loads(lines[-1])


# -- determinism gate --------------------------------------------------------------

def determinism_gate(workload, records, state_dir) -> list[str]:
    """Exact counters must read the same in every pass of this run and in
    every earlier run of this workload on the same source in this checkout.
    Returns one message per counter that did not."""
    seen: dict[str, set] = {}
    for rec in records:
        for op in rec.get("ops", ()):
            for counters in (op["counters"], op.get("replay_counters", {})):
                for name, value in counters.items():
                    seen.setdefault(f"{op['group']} {name}", set()).add(value)
    problems = [f"{key} read {sorted(values)} within one run"
                for key, values in sorted(seen.items()) if len(values) > 1]
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"{source_digest()[:16]}-{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    except FileNotFoundError:
        earlier = {}
    for key, values in sorted(seen.items()):
        if len(values) == 1:
            value = next(iter(values))
            before = earlier.setdefault(key, value)
            if before != value:
                problems.append(f"{key} read {value}, but {before} in an earlier run")
    fd, tmp = tempfile.mkstemp(dir=state_dir, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(earlier, fh, sort_keys=True)
    os.replace(tmp, path)
    return [f"determinism gate: counter {p}; the counter broke, this is not timing noise"
            for p in problems]


# -- provenance --------------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the package sources, which names the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    root = os.path.join("src", "nearrings")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(root, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


# -- metrics -----------------------------------------------------------------------

def end_to_end(passes, setup_samples) -> dict:
    med = statistics.median
    return {
        "wall_s": med(p["wall_s"] for p in passes),
        "classes_per_s": med(p["verified_classes"] / p["wall_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "setup_s": med(setup_samples),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def another_pass(passes, start, seconds, deadline) -> bool:
    """Whether to start another timed pass: at least MIN_PASSES, then only
    while the pass is expected to end within `seconds` of the first one."""
    now = time.monotonic()
    expected = statistics.median(p["wall_s"] for p in passes)
    if now + expected > deadline - 10:
        return False
    return len(passes) < MIN_PASSES or now - start + expected <= seconds


def declared_metrics(section) -> list[dict]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "nearrings", "cli.py")):
        print("error: src/nearrings not found; run from the repo root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    provenance = {"git_sha": git_sha(), "src_sha256": source_digest(),
                  "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                  "seed": args.seed, "workload": args.workload, "trace": args.trace,
                  "loadavg_before": loadavg()}
    scratch = os.path.abspath(".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=scratch)
    try:
        def one(mode, k):
            order = rng.sample(workload.groups, len(workload.groups))
            pass_dir = os.path.join(tmp, f"{mode}{k}")
            os.mkdir(pass_dir)
            rec = run_pass(mode, args.workload, order, pass_dir, deadline)
            rec.update(mode=mode, order=order)
            return rec

        one("setup", "warm")  # compiles bytecode once; not a sample
        setups = [one("setup", k)["setup_s"] for k in range(SETUP_SAMPLES)]
        start = time.monotonic()
        passes = [one("timed", 0)]
        while not args.trace and another_pass(passes, start, args.seconds, deadline):
            passes.append(one("timed", len(passes)))
        traced = [one("traced", 0)] if args.trace else []
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it

    records = passes + traced
    ops = [op for rec in records for op in rec["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    problems = determinism_gate(args.workload, records,
                                os.path.abspath(".perfbench_state"))
    for op in failed:
        print(f"op failed: {args.workload} {op['group']}: {op['error']}", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)

    setup_samples = setups + [p["setup_s"] for p in records]
    if args.trace:
        values = dict(traced[0]["layers"])
        if values:
            values["trace.overhead_s"] = values["cli.main_s"] - statistics.median(
                p["wall_s"] for p in passes)
        declared = declared_metrics("per_layer")
    else:
        values = end_to_end(passes, setup_samples)
        declared = declared_metrics("end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    provenance["loadavg_after"] = loadavg()
    print(json.dumps({"detail": {"provenance": provenance, "setup_samples": setup_samples,
                                 "error_rate": len(failed) / len(ops),
                                 "determinism": problems, "passes": records}}))
    print(json.dumps({"correct": not failed and not problems and len(metrics) == len(declared),
                      "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
