import hashlib
import importlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

import nearrings
from conftest import SWEEP_SPECS
from corpus import FILE_ENTRIES
from nearrings.catalog import (
    _dump,
    parse_nearring_file,
    parse_nearring_json,
    serialize_nearring,
    write_catalog,
    write_census_reports,
)
from nearrings.census import SearchSpec, census_rows, census_suite
from nearrings.checks import run_suite, summarize_reports
from nearrings.cli import main
from nearrings.core import PropertyFlags, builtin, count_flags
from nearrings.errors import AxiomViolation, InputError
from nearrings.groups import build_group


def write_entry(tmp_path, cid):
    spec, mul, _ = FILE_ENTRIES[cid]
    path = tmp_path / f"{cid}.json"
    path.write_text(json.dumps({"name": f"corpus-{cid}", "group": spec, "mul": mul}))
    return str(path)


def read_catalog(path):
    """A catalog file's records and its trailing summary."""
    *records, last = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    return records, last["summary"]


def record_counts(records):
    return count_flags(PropertyFlags(**rec["flags"]) for rec in records)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- round trips -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["s3-paper", "map-z2", "ring:Z6", "zero:Q8", "ring:Z2"])
def test_serialize_parse_round_trip(tmp_path, name):
    r = builtin(name)
    path = tmp_path / "nr.json"
    path.write_text(serialize_nearring(r))
    back = parse_nearring_file(path)
    assert back == r


def test_example_pipes_into_check(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "example", "s3-paper")
    assert code == 0
    path = tmp_path / "ex.json"
    path.write_text(out)
    back = parse_nearring_file(path)
    assert back == builtin("s3-paper")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "zero-symmetric:   yes" in out
    assert "semidistributive: yes" in out
    assert "distributive:     no" in out
    assert "identity:         none" in out


EXAMPLE_SHA256 = {
    "s3-paper": "bba0f3b5f021bd0725990704b640cca4d2b2aab7a074bb227d17b12d479cd6d5",
    "map-z2": "3701c3bc7a653002fe2c39384bcd9b582a7a2177df89dd12c2d249989d3da782",
    "ring:Z6": "ef1878199641d340552a8d4406ab866095191f852769453fbcf719cc2fe46477",
    "zero:Q8": "954b385a25d064821addc9c646549038160c6f01730cdc8ead7f3b0db8d78b07",
    "ring:Z2": "dbaa53d042ddf2d670108a6edf1f5dc3bb0a4dfab705546c30e163c43d84d34c",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_SHA256))
def test_cmd_example_is_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "example", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_SHA256[name]


# `check --format json` is part of the machine contract; recorded before
# `ideals` stopped prefiltering normal subgroups. S3 has three subgroups
# of order 2 that are not normal, and none is an ideal.
S3_PAPER_CHECK_JSON = (
    '{"distributive_elements": [0, 1, 2], "flags": {"abelian_addition": false, '
    '"distributive": false, "has_identity": false, "semidistributive": true, '
    '"zero_symmetric": true}, "group": "S3", "ideals": [[0], [0, 1, 2], '
    '[0, 1, 2, 3, 4, 5]], "identity": null, "name": "s3-paper", "units": null}\n')


def test_cmd_check_json_is_pinned(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(serialize_nearring(builtin("s3-paper")))
    code, out, _ = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0
    assert out == S3_PAPER_CHECK_JSON


def test_example_unknown_name(capsys):
    code, _, err = run_cli(capsys, "example", "unknown-thing")
    assert code == 2
    assert "error" in err


# -- parsing errors ----------------------------------------------------------------

def test_parse_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "Z6", "mul": [[9] * 6] * 6}))
    with pytest.raises(InputError):
        parse_nearring_file(path)


def test_parse_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"group": "Z2", "mul": [[0, 0], [0]]}))
    with pytest.raises(InputError):
        parse_nearring_file(path)


@pytest.mark.parametrize("obj, message", [
    ([["Z2"], [[0, 0], [0, 0]]], "must contain a JSON object"),
    ({"group": "Z2"}, 'needs "group" and "mul" fields'),
    ({"group": "Z2", "mul": [[0, 0], [0, 0]], "name": 7}, '"name" must be a string'),
])
def test_parse_rejects_malformed_objects(obj, message):
    with pytest.raises(InputError, match=message):
        parse_nearring_json(obj)


@pytest.mark.parametrize("obj", [
    {"group": "Z2", "mul": ["00", "01"]},
    {"group": "Z2", "mul": [[0, 0], [0, 1.0]]},
    {"group": "Z2", "mul": [[0, 0], [0, 1.5]]},
    {"group": "Z2", "mul": [[False, False], [False, True]]},
    {"group": "Z2", "mul": {"0": [0, 0]}},
    {"group": {"order": True, "add": [[0]]}, "mul": [[0]]},
])
def test_check_rejects_non_integer_tables(tmp_path, capsys, obj):
    path = tmp_path / "nonint.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError):
        parse_nearring_file(path, permissive=True)
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "error" in err


def test_parse_rejects_axiom_violation_with_triple(tmp_path):
    r = builtin("s3-paper")
    rows = [list(row) for row in r.mul]
    rows[3][3] = 1
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps({"group": "S3", "mul": rows}))
    with pytest.raises(AxiomViolation) as err:
        parse_nearring_file(path)
    assert err.value.axiom == "associativity"
    assert err.value.witness == (3, 3, 4)


def test_cli_exit_2_on_parse_problems(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    for cmd in ("check", "ideals", "lemmas"):
        code, _, err = run_cli(capsys, cmd, str(path))
        assert code == 2
        assert "error" in err
    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "census", "Z99")
    assert code == 2


def test_cli_check_rejects_invalid_table_strictly(tmp_path, capsys):
    path = write_entry(tmp_path, "arithmetic")  # not a valid nearring
    code, _, err = run_cli(capsys, "check", path)
    assert code == 2
    assert "axiom" in err


# -- census + catalogs ----------------------------------------------------------------

def test_cmd_census_z2(tmp_path, capsys):
    out_path = tmp_path / "z2.jsonl"
    code, out, _ = run_cli(capsys, "census", "Z2", "--out", str(out_path))
    assert code == 0
    assert "total" in out and "3" in out
    records, summary = read_catalog(out_path)
    assert summary["counts"]["total"] == 3
    assert len(records) == 3
    assert record_counts(records) == summary["counts"]


def test_cmd_census_json_format(tmp_path, capsys):
    out_path = tmp_path / "z3.jsonl"
    code, out, _ = run_cli(capsys, "census", "Z3", "--format", "json",
                           "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["total"] == 5
    assert payload["catalog"] == str(out_path)
    assert payload["meta"]["workers"] == 1


def test_cmd_census_filter(tmp_path, capsys):
    out_path = tmp_path / "z3f.jsonl"
    code, out, _ = run_cli(capsys, "census", "Z3", "--filter", "identity",
                           "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["total"] == 1
    records, _ = read_catalog(out_path)
    assert len(records) == 1


def test_cmd_census_refuses_oversized_endomorphism_monoid(tmp_path, capsys):
    # |End(Z2xZ2xZ2xZ2)| = 65536: refused before End(G) is enumerated.
    out_path = tmp_path / "e16.jsonl"
    code, _, err = run_cli(capsys, "census", "Z2xZ2xZ2xZ2", "--out", str(out_path))
    assert code == 2
    assert "|End(Z2xZ2xZ2xZ2)| exceeds 1024" in err
    assert str(1024 ** 2) in err
    assert not out_path.exists()
    assert not list(tmp_path.glob(".catalog-*.tmp"))


def _die(*args):
    os._exit(1)


def _assert_no_child_left():
    # Every forked census worker has been reaped: none is left running or
    # as a zombie.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cmd_census_dead_worker_exits_2(tmp_path, capsys, monkeypatch, four_cpus):
    # Workers are forked, so they inherit the patched entry function and
    # die at once. Only forked workers run it: the parent splits the tree
    # and searches its own share with the search itself. `nearrings.census`
    # as an attribute is the function, not the module.
    monkeypatch.setattr(importlib.import_module("nearrings.census"), "_worker", _die)
    out_path = tmp_path / "s3.jsonl"
    code, _, err = run_cli(capsys, "census", "S3", "--workers", "2", "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:")
    assert "2 workers" in err
    # The catalog streams into its temp file while the workers run; the
    # failed census leaves neither it nor the catalog behind.
    assert not out_path.exists()
    assert not list(tmp_path.glob(".catalog-*.tmp"))
    _assert_no_child_left()


def test_cmd_census_worker_failing_after_its_frames_exits_2(tmp_path, capsys, monkeypatch,
                                                            four_cpus):
    # The worker writes every frame of its paths, so the merge completes;
    # its nonzero exit status must still fail the census.
    module = importlib.import_module("nearrings.census")
    work = module._worker

    def work_then_fail(*args):
        work(*args)
        os._exit(3)

    monkeypatch.setattr(module, "_worker", work_then_fail)
    out_path = tmp_path / "d8.jsonl"
    code, _, err = run_cli(capsys, "census", "D8", "--workers", "2", "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:")
    assert "2 workers" in err and "exit status 3" in err
    assert not out_path.exists()
    assert not list(tmp_path.glob(".catalog-*.tmp"))
    _assert_no_child_left()


def test_one_worker_commands_never_import_the_pool(tmp_path):
    # A fresh interpreter, since the test runner may load concurrent.futures
    # itself. No command imports a process pool, not even a census with
    # workers, which forks them directly: two such censuses back to back
    # leave no thread behind, and with DeprecationWarning an error, a fork
    # from a multi-threaded process (warned of from Python 3.12) fails.
    src = os.path.dirname(os.path.dirname(nearrings.__file__))
    script = (
        "import contextlib, io, json, os, sys, threading\n"
        "from nearrings.cli import main\n"
        "assert main(['census', 'S3', '--out', sys.argv[1]]) == 0\n"
        "assert main(['lemmas', '--census', 'Z3']) == 0\n"
        "os.cpu_count = lambda: 4\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "for g in ('D8', 'Z2xZ6'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(['census', g, '--workers', '2', '--format', 'json',\n"
        "                     '--out', sys.argv[1]]) == 0\n"
        "    assert json.loads(out.getvalue())['meta']['workers'] == 2\n"
        "for name in ('concurrent.futures', 'multiprocessing', 'pickle'):\n"
        "    assert name not in sys.modules, name\n"
        "assert threading.active_count() == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script,
         str(tmp_path / "out.jsonl")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _terminate_census(tmp_path, signum, *options):
    """Start `nearrings census Z16` in a session of its own, send it signum
    once it has written to its temp file, and return its exit status,
    stderr and session id. With workers the signal goes to the whole
    process group, as a terminal sends Ctrl-C."""
    src = os.path.dirname(os.path.dirname(nearrings.__file__))
    # Two CPUs, both usable, so that `--workers 2` forks a worker on any
    # host; SIGINT raises KeyboardInterrupt even where it was inherited
    # ignored.
    script = ("import os, signal, sys\n"
              "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
              "os.cpu_count = lambda: 2\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from nearrings.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "census", "Z16", *options,
         "--out", str(tmp_path / "z16.jsonl")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not any(p.stat().st_size for p in tmp_path.glob(".catalog-*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        if options:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, err, proc.pid


def test_sigterm_removes_the_catalog_temp_file(tmp_path, capsys):
    # Z16's census takes about a minute, so it is still streaming into
    # its temp file when the signal arrives; it must exit with the shell's
    # status for the signal, 143 for SIGTERM (through SystemExit) and 130
    # for SIGINT (through KeyboardInterrupt), with no traceback and no temp
    # file left. With workers, the census also kills and reaps them: no
    # process is left in its session.
    for signum, status in ((signal.SIGTERM, 143), (signal.SIGINT, 130)):
        for options in ((), ("--workers", "2")):
            code, err, pgid = _terminate_census(tmp_path, signum, *options)
            assert code == status, (signum, options)
            assert "Traceback" not in err
            assert not list(tmp_path.glob(".catalog-*.tmp"))
            assert not (tmp_path / "z16.jsonl").exists()
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
    # In process, the handler in place before the census is restored.
    before = signal.getsignal(signal.SIGTERM)
    assert run_cli(capsys, "census", "Z2", "--out", str(tmp_path / "z2.jsonl"))[0] == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_catalog_file_mode_follows_umask(tmp_path, capsys):
    # The catalog's temp file is made by mkstemp with mode 0o600; the
    # catalog must get the mode of any new file, 0o666 less the umask.
    out_path = tmp_path / "s3.jsonl"
    old = os.umask(0o022)
    try:
        code, _, _ = run_cli(capsys, "census", "S3", "--out", str(out_path))
    finally:
        os.umask(old)
    assert code == 0
    assert out_path.stat().st_mode & 0o777 == 0o644


def test_catalog_reread_reproduces_counts(tmp_path, capsys, census_of):
    out_path = tmp_path / "s3.jsonl"
    code, _, _ = run_cli(capsys, "census", "S3", "--out", str(out_path))
    assert code == 0
    records, summary = read_catalog(out_path)
    assert record_counts(records) == summary["counts"]
    assert summary["counts"] == census_of("S3").counts
    assert summary["convention"] == "left"
    assert summary["version"]


def _traced_peak(fn, *args) -> int:
    """The peak size of the memory blocks Python allocates during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["D8", "Z2xZ6"])
def test_write_catalog_streams_records(tmp_path, census_of, spec):
    # Records go to the file as they are joined: a list of lines or the
    # joined file string would each take at least the file's size.
    result = census_of(spec)
    path = tmp_path / "catalog.jsonl"
    peak = _traced_peak(write_catalog, path, result)
    assert peak < path.stat().st_size / 4


def test_cmd_census_streams_its_catalog(tmp_path, capsys):
    # Each record is written as the census finds its class, joined from
    # the index tuple: no class list and no decoded table is held. End(G)
    # is enumerated and cached before tracing starts. Measured on the
    # 3,501 classes of Z2xZ6: a peak of about 445 KB, against about
    # 1,129 KB when the census held and decoded every class before the
    # catalog's first record.
    census_rows(build_group("Z2xZ6"))
    path = tmp_path / "z2xz6.jsonl"
    peak = _traced_peak(main, ["census", "Z2xZ6", "--out", str(path)])
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_SHA256["Z2xZ6"][1]
    assert peak < 640 * 1024


def test_catalog_lines_exclude_timing(census_of, tmp_path):
    path = tmp_path / "z2.jsonl"
    write_catalog(path, census_of("Z2"))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert not any("elapsed" in line or "workers" in line for line in lines)


# SHA-256 of the whole `census ... --out` catalog file, summary line
# included, recorded before catalog records were joined from fragments.
# The raw order-3 table takes the dict branch of group_spec_json.
RAW_Z3 = '{"order": 3, "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}'
CATALOG_SHA256 = {
    "S3": (("S3",),
           "ab9714dea8b7060bfc822d969cdfbc0d011acf3d01ef6403cd7a36d03094247f"),
    "D8": (("D8",),
           "318671ff8b985f65398d11461224fbc12b58e9395025aaf0e2341e31f3877541"),
    "Q8": (("Q8",),
           "c0ee50e6229ed640eddfc40e54ad64c43f9456db24538c37763cb9ff40d44c3d"),
    "Z2xZ6": (("Z2xZ6",),
              "63a7e407032790c2de017027d0560c14b20d8725bc525e78275fa61420235eaf"),
    "raw-Z3": ((RAW_Z3,),
               "8fb27e69eabe32dfe70a39ad2b7fd655ee1e26c8f3e22c8f0d06465e9db33350"),
    "Z2xZ4-identity": (("Z2xZ4", "--filter", "identity"),
                       "045fe04c37ca112586c8be0b3666aef0c3c16b78bbdfc998d3d031545d9b3c8c"),
    "D8-no-iso": (("D8", "--no-iso"),
                  "a8697b96569432f5da1c4bf68022119896f55a077ae5ccfea2ad7a0473a6cc70"),
}


@pytest.mark.parametrize("name", list(CATALOG_SHA256))
def test_cmd_census_catalog_is_pinned(tmp_path, capsys, name):
    args, sha = CATALOG_SHA256[name]
    out_path = tmp_path / "catalog.jsonl"
    code, _, _ = run_cli(capsys, "census", *args, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_catalog_lines_are_canonical_json(census_of, spec, tmp_path):
    # Records joined from fragments must read back to the same text that
    # one canonical dump of the parsed record gives.
    path = tmp_path / "catalog.jsonl"
    write_catalog(path, census_of(spec))
    for line in path.read_text(encoding="utf-8").splitlines():
        assert line == _dump(json.loads(line))


# -- lemmas ------------------------------------------------------------------------

def test_cmd_lemmas_on_valid_file(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(serialize_nearring(builtin("ring:Z6")))
    code, out, _ = run_cli(capsys, "lemmas", str(path))
    assert code == 0
    assert "pass" in out


def test_cmd_lemmas_json_shape(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(serialize_nearring(builtin("s3-paper")))
    code, out, _ = run_cli(capsys, "lemmas", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert len(payload["verdicts"]) == 9
    assert all("check_id" in v for v in payload["verdicts"])


def test_cmd_lemmas_census_mode(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--census", "Z3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["instances"] == 5
    assert payload["summary"]["overall"] == "pass"
    assert payload["summary"]["applicable"]["arithmetic"] == 2


# SHA-256 of the whole `lemmas --census G --format json` stdout: every
# verdict, witness and note of every class, not only the summary.
LEMMAS_CENSUS_SHA256 = {
    "S3": "84408593bd79dcf67f39115b396140d24d89bd2e0d694da455d29adf9b45f7c3",
    "D8": "3abd9034de97672c5b7f8e1f6bc62d753b338514296453972d532eba9822bb01",
    "Q8": "ed8e81843ac9252416b05ac60d5970b4fcff951eb3f188966ef7924b65545424",
    "Z6": "fe41a7510026e4c2d985b1bdb5ee063b0c932587e9c9369454ba444d65563c38",
    # Abelian, with annihilators other than {0}.
    "Z12": "bc16e3d3256af82f06dae87ffe2ded1e8507df2e9595429b979956cc82e7d4c3",
    "Z2xZ6": "73dbce088a5cd3a9fbd849613ab904a4ac67b3f4f78c0f213e69868880375bae",
}


@pytest.mark.parametrize("spec", sorted(LEMMAS_CENSUS_SHA256))
def test_cmd_lemmas_census_json_is_pinned(capsys, spec):
    code, out, _ = run_cli(capsys, "lemmas", "--census", spec, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LEMMAS_CENSUS_SHA256[spec]


def test_write_census_reports_equals_whole_document_dump():
    # The census pins above hold only passing, shared verdicts; the corpus
    # files add failing reports whose verdicts carry witnesses.
    reports = list(census_suite(SearchSpec(build_group("S3"))))
    reports += [
        run_suite(parse_nearring_json({"group": spec, "mul": mul}, permissive=True))
        for spec, mul, _ in FILE_ENTRIES.values()
    ]
    out = io.StringIO()
    summary = write_census_reports(out, iter(reports))
    assert summary == summarize_reports(reports)
    assert summary["overall"] == "fail"
    assert out.getvalue() == json.dumps(
        {"reports": [rep.as_dict() for rep in reports], "summary": summary},
        sort_keys=True) + "\n"


def test_write_census_reports_without_reports():
    out = io.StringIO()
    summary = write_census_reports(out, iter(()))
    assert json.loads(out.getvalue()) == {"reports": [], "summary": summary}
    assert summary["instances"] == 0


def test_write_census_reports_streams_reports(tmp_path):
    # The census itself runs before tracing starts; each report is then
    # written as the suite yields it, so neither a list of reports nor the
    # document string is held.
    reports = census_suite(SearchSpec(build_group("Z12")))
    first = next(reports)
    path = tmp_path / "z12.json"
    with open(path, "w", encoding="utf-8") as fh:
        peak = _traced_peak(write_census_reports, fh, itertools.chain([first], reports))
    assert json.loads(path.read_text())["summary"]["instances"] > 1
    assert peak < path.stat().st_size / 4


def test_census_suite_holds_classes_compactly():
    # census_suite keeps every class before its first report, as 16-bit
    # indices in one flat array. Measured on the 3,501 classes of Z2xZ6
    # after a warm-up pass that caches End(G) and fills the verdict
    # caches: a peak of 260 to 410 KiB, as what ran before in the process
    # varies, against 630 to 770 KiB when each class was held as a tuple
    # of Python ints.
    spec = SearchSpec(build_group("Z2xZ6"))
    census_rows(spec.group)
    for _ in census_suite(spec):
        pass
    peak = _traced_peak(lambda: sum(1 for _ in census_suite(spec)))
    assert peak < 512 * 1024


def test_cmd_lemmas_census_text(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--census", "Z6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "checked 60 census instances on Z6"
    assert lines[-1] == "  overall: pass"


def test_cmd_lemmas_census_refused_group_prints_nothing(capsys):
    # The census refuses the group before its first class exists, so the
    # streamed JSON document has not begun.
    code, out, err = run_cli(capsys, "lemmas", "--census", "Z2xZ2xZ2xZ2", "--format", "json")
    assert code == 2
    assert err.startswith("error:")
    assert "|End(Z2xZ2xZ2xZ2)| exceeds 1024" in err
    assert out == ""


def test_cmd_lemmas_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "f.json", "--census", "Z3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cid", sorted(FILE_ENTRIES))
def test_cmd_lemmas_exit_1_on_corpus_files(tmp_path, capsys, cid):
    path = write_entry(tmp_path, cid)
    code, out, _ = run_cli(capsys, "lemmas", path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    failing = {v["check_id"] for v in payload["verdicts"]
               if v["applicable"] and not v["holds"]}
    assert cid in failing
    target = next(v for v in payload["verdicts"] if v["check_id"] == cid)
    assert "witness" in target


# -- ideals + oracle -----------------------------------------------------------------

def test_cmd_ideals(tmp_path, capsys):
    path = tmp_path / "z6.json"
    path.write_text(serialize_nearring(builtin("ring:Z6")))
    code, out, _ = run_cli(capsys, "ideals", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ideals"] == [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    assert payload["simple"] is False


def test_cmd_ideals_text(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(serialize_nearring(builtin("s3-paper")))
    code, out, _ = run_cli(capsys, "ideals", str(path))
    assert code == 0
    assert out.splitlines() == ["3 ideal(s) of s3-paper:", "  {0}", "  {0, a, 2a}",
                                "  {0, a, 2a, b, a+b, 2a+b}"]


def test_cmd_oracle_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", "Z4")
    assert code == 0
    assert out.splitlines()[0] == "oracle check on Z4"
    assert out.splitlines()[-1] == "  counts match: True, representatives match: True"


def test_cmd_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "Z2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts_match"] and payload["representatives_match"]
    code, _, err = run_cli(capsys, "oracle", "Z8")
    assert code == 2  # oracle is capped at order 7
