import importlib
import json
import os

import pytest

from corpus import FILE_ENTRIES
from nearrings.catalog import (
    catalog_lines,
    counts_from_records,
    parse_nearring_file,
    read_catalog,
    serialize_nearring,
)
from nearrings.cli import main
from nearrings.core import builtin
from nearrings.errors import AxiomViolation, InputError


def write_entry(tmp_path, cid):
    spec, mul, _ = FILE_ENTRIES[cid]
    path = tmp_path / f"{cid}.json"
    path.write_text(json.dumps({"name": f"corpus-{cid}", "group": spec, "mul": mul}))
    return str(path)


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
    assert counts_from_records(records) == summary["counts"]


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


def _die(args):
    os._exit(1)


def test_cmd_census_dead_worker_exits_2(tmp_path, capsys, monkeypatch):
    # Workers are forked, so they inherit the patched task and die at once.
    # `nearrings.census` as an attribute is the function, not the module.
    monkeypatch.setattr(importlib.import_module("nearrings.census"), "_worker_task", _die)
    out_path = tmp_path / "s3.jsonl"
    code, _, err = run_cli(capsys, "census", "S3", "--workers", "2", "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:")
    assert "2 workers" in err
    assert not out_path.exists()


def test_catalog_reread_reproduces_counts(tmp_path, capsys, census_of):
    out_path = tmp_path / "s3.jsonl"
    code, _, _ = run_cli(capsys, "census", "S3", "--out", str(out_path))
    assert code == 0
    records, summary = read_catalog(out_path)
    assert counts_from_records(records) == summary["counts"]
    assert summary["counts"] == census_of("S3").counts
    assert summary["convention"] == "left"
    assert summary["version"]


def test_catalog_lines_exclude_timing(census_of):
    lines = catalog_lines(census_of("Z2"))
    assert not any("elapsed" in line or "workers" in line for line in lines)


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


def test_cmd_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "Z2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts_match"] and payload["representatives_match"]
    code, _, err = run_cli(capsys, "oracle", "Z4")
    assert code == 2  # oracle is capped at order 3
