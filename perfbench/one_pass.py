"""One pass of a workload in a fresh interpreter, started by run.py.

    python3 perfbench/one_pass.py MODE WORKLOAD TMPDIR T0 GROUP[,GROUP...]

MODE is one of
  setup   import the CLI, build the groups and exit;
  timed   run the workload's ops back to back, then check every output;
  traced  per op: the layer calls and the CLI command, each under a span.
T0 is the parent's time.monotonic() taken just before it started this
interpreter (CLOCK_MONOTONIC is system-wide), so set-up time includes
interpreter start. PYTHONPATH must hold the repo's src directory. The only
line written to stdout is one JSON record; CLI output goes to files in
TMPDIR.
"""

import contextlib
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

from nearrings.catalog import write_catalog
from nearrings.checks import run_suite, summarize_reports
from nearrings.cli import main as cli_main
from nearrings.core import CandidateMultiplication, validate
from nearrings.groups import build_group, endomorphisms

from workloads import WORKLOADS, catalog_path, stdout_path

# `nearrings.census` as an attribute is the re-exported function, not the module.
_census = importlib.import_module("nearrings.census")
SearchSpec, candidate_stream, census = (
    _census.SearchSpec, _census.candidate_stream, _census.census)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# The layer calls each CLI command makes; cli.self_s is cli.main_s minus these.
CLI_PATH = {
    "census": ("census.census", "catalog.write"),
    "lemmas": ("census.census", "core.validate", "checks.run_suite"),
}


class Mismatch(Exception):
    """An op's output differs from the golden value."""


def _expect(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_cli(argv, out_path):
    """One CLI command with stdout sent to out_path: (exit code, error text)."""
    with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        try:
            return cli_main(argv), None
        except SystemExit as exc:  # argparse usage errors
            return exc.code, None
        except Exception:
            return None, traceback.format_exc()


# -- output checks ---------------------------------------------------------------

def check_catalog(path, gold) -> int:
    """Check a catalog's records and summary counts; return its size in bytes.

    The hash leaves out the summary line, which carries nodes_visited.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.rstrip(b"\n").rfind(b"\n") + 1
    _expect("catalog record sha256", hashlib.sha256(data[:cut]).hexdigest(),
            gold["record_sha256"])
    _expect("catalog summary counts", json.loads(data[cut:])["summary"]["counts"],
            gold["counts"])
    return len(data)


def check_suite(summary, gold) -> int:
    """Check a suite summary; return its number of applicable verdicts."""
    _expect("suite instances", summary["instances"], gold["suite"]["instances"])
    _expect("suite applicable counts", summary["applicable"], gold["suite"]["applicable"])
    _expect("suite failures", summary["failures"], [])
    _expect("suite overall", summary["overall"], "pass")
    return sum(summary["applicable"].values())


def check_cli_output(workload, group, tmp, gold) -> dict:
    """Check one op's output; return the exact counters it shows."""
    with open(stdout_path(tmp, group), encoding="utf-8") as fh:
        out = json.load(fh)
    if workload.command == "lemmas":
        applicable = check_suite(out["summary"], gold)
        _expect("report count", len(out["reports"]), out["summary"]["instances"])
        return {"census.classes": out["summary"]["instances"],
                "checks.applicable_verdicts": applicable}
    _expect("counts", out["counts"], gold["counts"])
    return {"census.attempts": out["meta"]["nodes_visited"],
            "census.classes": out["counts"]["total"],
            "catalog.bytes": check_catalog(catalog_path(tmp, group), gold)}


def _checked(op, fn, *args):
    """Fill op["counters"] from fn(*args), or op["error"] if it fails."""
    if op["error"] is None and op["exit"] != 0:
        op["error"] = f"exit code {op['exit']}"
    if op["error"] is not None:
        return
    try:
        op["counters"] = fn(*args)
    except Mismatch as exc:
        op["error"] = f"output differs from golden: {exc}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op["error"] = f"unreadable output: {exc!r}"


# -- timed pass ----------------------------------------------------------------

def timed_pass(workload, groups, tmp, golden) -> dict:
    """The closed loop: ops back to back, outputs checked after the last one."""
    ops = []
    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    for group in groups:
        t = time.perf_counter()
        code, error = run_cli(workload.argv(group, tmp), stdout_path(tmp, group))
        ops.append({"group": group, "seconds": time.perf_counter() - t,
                    "exit": code, "error": error, "counters": {}})
    wall = time.perf_counter() - start
    cpu = (_cpu(resource.RUSAGE_SELF) - self0) + (_cpu(resource.RUSAGE_CHILDREN) - kids0)
    record = {"wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
              "worker_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
    for op in ops:
        _checked(op, check_cli_output, workload, op["group"], tmp, golden[op["group"]])
    record["verified_classes"] = sum(op["counters"]["census.classes"]
                                     for op in ops if op["error"] is None)
    record["ops"] = ops
    return record


# -- traced pass ---------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id.

    Spans come from one thread and nest, so a span's children never
    overlap and the time they cover is the sum of their durations.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, op):
        rec = {"id": len(self.spans), "name": name, "op": op,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter() - self._origin}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            rec["seconds"] = rec["end"] - rec["start"]
            self._open.pop()

    def finish(self) -> list:
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["seconds"]
        for s in self.spans:
            s["self_s"] = s["seconds"] - covered.get(s["id"], 0.0)
        return self.spans


def _replay(tracer, op_id, workload, group, g, tmp, gold) -> dict:
    """Each layer's public call on one group, under a span; the exact counters."""
    with tracer.span("census.stream", op_id) as st:
        st["raw_tables"] = sum(1 for _ in candidate_stream(g))
    _expect("raw tables", st["raw_tables"], gold["raw_tables"])

    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    with tracer.span("census.census", op_id) as s:
        result = census(SearchSpec(g, worker_count=workload.workers))
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    kids_cpu = _cpu(resource.RUSAGE_CHILDREN) - kids0
    # The processes that run the search: the pool, or this process itself
    # when the census runs in-process with one worker.
    pooled = workload.workers > 1
    s.update(attempts=result.nodes_visited, classes=result.counts["total"],
             workers=workload.workers, cpu_s=self_cpu + kids_cpu,
             worker_cpu_s=kids_cpu if pooled else self_cpu,
             peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF),
             worker_peak_rss_mb=_peak_rss_mb(
                 resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF))
    _expect("replayed census counts", result.counts, gold["counts"])

    path = os.path.join(tmp, f"replay-{group}.jsonl")
    with tracer.span("catalog.write", op_id) as w:
        write_catalog(path, result)
    w["bytes"] = check_catalog(path, gold)

    with tracer.span("core.validate", op_id) as v:
        validated = [validate(CandidateMultiplication(g, rep), name=f"{group}[{i}]")
                     for i, rep in enumerate(result.representatives)]
        v["calls"] = len(validated)
    del result
    with tracer.span("checks.run_suite", op_id) as c:
        reports = [run_suite(r) for r in validated]
        c["instances"] = len(reports)
    c["applicable_verdicts"] = check_suite(summarize_reports(reports), gold)
    return {"census.attempts": s["attempts"], "census.raw_tables": st["raw_tables"],
            "census.classes": s["classes"],
            "checks.applicable_verdicts": c["applicable_verdicts"],
            "catalog.bytes": w["bytes"]}


def traced_pass(workload, groups, tmp, golden) -> dict:
    """Per op: cold endomorphisms, the CLI command, then the replayed layers."""
    tracer = Tracer()
    ops = []
    for op_id, (group, g) in enumerate(groups.items()):
        gold = golden[group]
        op = {"group": group, "error": None, "counters": {}, "replay_counters": {}}
        ops.append(op)
        with tracer.span("op", op_id):
            with tracer.span("groups.endomorphisms", op_id) as s:
                s["end_size"] = len(endomorphisms(g))
                s["aut_size"] = len(endomorphisms(g, invertible_only=True))
            with tracer.span("cli.main", op_id):
                op["exit"], op["error"] = run_cli(workload.argv(group, tmp),
                                                  stdout_path(tmp, group))
            _checked(op, check_cli_output, workload, group, tmp, gold)
            if op["error"] is None:
                try:
                    _expect("|End|", s["end_size"], gold["end_size"])
                    _expect("|Aut|", s["aut_size"], gold["aut_size"])
                    op["replay_counters"] = _replay(tracer, op_id, workload, group, g,
                                                    tmp, gold)
                except Mismatch as exc:
                    op["error"] = f"replayed layer differs from golden: {exc}"
                except Exception:
                    op["error"] = traceback.format_exc()
    spans = tracer.finish()
    return {"ops": ops, "spans": spans,
            "layers": layer_metrics(spans, workload) if not any(
                op["error"] for op in ops) else {}}


def layer_metrics(spans, workload) -> dict:
    """Per-layer metrics of a traced pass, summed over its ops."""
    def total(name, key="seconds"):
        return sum(s[key] for s in spans if s["name"] == name)

    def peak(name, key):
        return max(s[key] for s in spans if s["name"] == name)

    census_s, stream_s = total("census.census"), total("census.stream")
    attempts, raw = total("census.census", "attempts"), total("census.stream", "raw_tables")
    classes = total("census.census", "classes")
    validate_s, calls = total("core.validate"), total("core.validate", "calls")
    suite_s, instances = total("checks.run_suite"), total("checks.run_suite", "instances")
    main_s = total("cli.main")
    on_path = sum(s["seconds"] for s in spans if s["name"] in CLI_PATH[workload.command])
    return {
        "groups.endomorphisms_s": total("groups.endomorphisms"),
        "groups.end_size": total("groups.endomorphisms", "end_size"),
        "groups.aut_size": total("groups.endomorphisms", "aut_size"),
        "census.census_s": census_s,
        "census.stream_s": stream_s,
        "census.attempts": attempts,
        "census.attempts_per_s": attempts / stream_s,
        "census.raw_tables": raw,
        "census.classes": classes,
        "census.tables_per_attempt": raw / attempts,
        "census.raw_per_class": raw / classes,
        "census.rest_s": census_s - stream_s,
        "census.peak_rss_mb": peak("census.census", "peak_rss_mb"),
        "census.worker_cpu_s": total("census.census", "worker_cpu_s"),
        "census.worker_peak_rss_mb": peak("census.census", "worker_peak_rss_mb"),
        "census.parallel_efficiency":
            total("census.census", "cpu_s") / (workload.workers * census_s),
        "core.validate_s": validate_s,
        "core.validate_calls": calls,
        "core.validate_us_per_call": validate_s / calls * 1e6,
        "checks.run_suite_s": suite_s,
        "checks.instances": instances,
        "checks.applicable_verdicts": total("checks.run_suite", "applicable_verdicts"),
        "checks.ms_per_instance": suite_s / instances * 1e3,
        "catalog.write_s": total("catalog.write"),
        "catalog.bytes": total("catalog.write", "bytes"),
        "cli.main_s": main_s,
        "cli.self_s": main_s - on_path,
    }


def main(argv) -> int:
    mode, name, tmp, t0, group_list = argv
    groups = {spec: build_group(spec) for spec in group_list.split(",")}
    setup_s = time.monotonic() - float(t0)
    record = {"setup_s": setup_s}
    if mode != "setup":
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)["groups"]
        run = timed_pass if mode == "timed" else traced_pass
        record.update(run(WORKLOADS[name], groups, tmp, golden))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
