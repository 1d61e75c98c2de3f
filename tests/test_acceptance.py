"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time

from conftest import SWEEP_SPECS
from corpus import FILE_ENTRIES, no_order_two_nearring, reverify_witness
from nearrings.catalog import write_catalog
from nearrings.census import SearchSpec, brute_force_oracle, census
from nearrings.checks import run_suite, summarize_reports
from nearrings.cli import main as cli_main
from nearrings.core import (
    CandidateMultiplication,
    annihilator,
    build_unchecked,
    builtin,
    distributive_elements,
    units,
    validate,
)
from nearrings.groups import build_group, exponent


def _suite_over(census_result):
    g = census_result.group
    label = g.label()
    for i, rep in enumerate(census_result.representatives):
        yield validate(CandidateMultiplication(g, rep), name=f"{label}[{i}]")


def test_criterion_1_s3_census_reproduction():
    """Exactly 39 classes on S3, 4 semidistributive, 2 distributive."""
    t0 = time.perf_counter()
    result = census(SearchSpec(build_group("S3"), worker_count=1))
    elapsed = time.perf_counter() - t0
    observed = {k: result.counts[k] for k in ("total", "semidistributive", "distributive")}
    assert observed == {"total": 39, "semidistributive": 4, "distributive": 2}
    assert elapsed < 60.0, f"S3 census took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (S3 census 39/4/2): PASS ({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence():
    """Census and the row-tuple oracle agree on every group of order <= 6
    but S3."""
    t0 = time.perf_counter()
    expected_totals = {"Z1": 1, "Z2": 3, "Z3": 5, "Z4": 12, "Z2xZ2": 23,
                       "Z5": 10, "Z6": 60}
    for spec, total in expected_totals.items():
        g = build_group(spec)
        searched = census(SearchSpec(g))
        oracle = brute_force_oracle(g)
        assert searched.counts == oracle.counts, spec
        assert searched.representatives == oracle.representatives, spec
        assert oracle.counts["total"] == total, spec
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"
    print("\nACCEPTANCE 2 (oracle equivalence Z1/Z2/Z3/Z4/Z2xZ2/Z5/Z6 = "
          f"1/3/5/12/23/10/60): PASS ({elapsed:.2f}s)")


def test_criterion_3_worked_example_verification():
    """The s3-paper builtin validates and classifies as expected."""
    r = builtin("s3-paper")  # already validated on construction
    assert r.flags.zero_symmetric
    assert r.flags.semidistributive
    assert not r.flags.distributive
    assert r.identity is None
    assert distributive_elements(r) == (0, 1, 2)
    assert annihilator(r) == (0, 1, 2)
    print("\nACCEPTANCE 3 (s3-paper classification): PASS")


def test_criterion_4_function_nearring_remark():
    """map-z2 is semidistributive, not distributive, with 0*s of order 2."""
    m = builtin("map-z2")
    assert m.flags.semidistributive
    assert not m.flags.distributive
    zero_products = {m.mul[0][s] for s in range(m.order)}
    assert any(v != 0 and m.group.orders[v] == 2 for v in zero_products)
    print("\nACCEPTANCE 4 (map-z2 semidistributive, not distributive, 0*s of order 2): PASS")


def test_criterion_5_soundness_sweep(census_of):
    """Zero failing verdicts over every supported group of order <= 8
    (S3 included), with the named checks non-vacuous."""
    t0 = time.perf_counter()
    reports = []
    for spec in SWEEP_SPECS:
        result = census_of(spec)
        for flags, r in zip(result.rep_flags, _suite_over(result)):
            # the census classifies without validating; its flags must
            # match those of the full validation
            assert flags == r.flags, r.name
            reports.append(run_suite(r))
    summary = summarize_reports(reports)
    assert summary["failures"] == []
    for cid in ("abelian-addition", "identity-exponent", "primary-ideals",
                "odd-order-distributive", "no-order-two"):
        assert summary["applicable"][cid] > 0, f"{cid} was vacuous over the sweep"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 (order<=8 sweep, {summary['instances']} instances, "
          f"zero failures): PASS ({elapsed:.1f}s)")


def test_criterion_6_fault_injection(tmp_path, capsys):
    """Every check has a corpus entry that fails with a re-verifiable
    witness; file-representable entries drive `lemmas` to exit code 1.

    The no-order-two check admits no failing file: its hypothesis scans
    (semidistributivity columns, identity, odd additive orders) already
    force right distributivity for any table on the supported groups,
    because with 2 invertible the column equation c(2r+s) = 2c(r) + c(s)
    makes every column additive. Its corpus entry therefore corrupts the
    cached flags of a valid table, which only the library path can
    express; the witness still re-verifies against the raw tables.
    """
    from nearrings.checks import CHECKS

    by_id = dict(CHECKS)
    for cid, (spec, mul, _notes) in FILE_ENTRIES.items():
        r = build_unchecked(build_group(spec), mul)
        verdict = by_id[cid](r)
        assert verdict.applicable and not verdict.holds, cid
        reverify_witness(r, verdict)
        path = tmp_path / f"{cid}.json"
        path.write_text(json.dumps({"group": spec, "mul": mul}))
        code = cli_main(["lemmas", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1, cid
        payload = json.loads(out)
        failing = {v["check_id"] for v in payload["verdicts"]
                   if v["applicable"] and not v["holds"]}
        assert cid in failing

    r = no_order_two_nearring()
    verdict = by_id["no-order-two"](r)
    assert verdict.applicable and not verdict.holds
    reverify_witness(r, verdict)
    print("\nACCEPTANCE 6 (fault injection, 9 checks, 8 via CLI exit 1): PASS")


def test_criterion_7_catalog_determinism(tmp_path, four_cpus):
    """Byte-identical catalogs across repeated runs and worker counts."""
    for spec in ("S3", "Z8"):
        g = build_group(spec)
        blobs = set()
        for attempt in range(2):
            for workers in (1, 2, 8):
                result = census(SearchSpec(g, worker_count=workers))
                path = tmp_path / f"{spec}-{attempt}-{workers}.jsonl"
                write_catalog(path, result)
                blobs.add(path.read_bytes())
        assert len(blobs) == 1, f"catalog bytes differ for {spec}"
    print("\nACCEPTANCE 7 (byte-identical catalogs, workers 1/2/8, two runs): PASS")


def test_criterion_8_exponent_lemma_at_scale(census_of):
    """Over every sweep instance with identity: the additive exponent
    equals the additive order of the identity and of every unit."""
    checked = 0
    for spec in SWEEP_SPECS:
        result = census_of(spec)
        exp = exponent(result.group)
        for r in _suite_over(result):
            if r.identity is None:
                continue
            checked += 1
            assert r.group.orders[r.identity] == exp, r.name
            for u in units(r):
                assert r.group.orders[u] == exp, (r.name, u)
    assert checked > 0
    print(f"\nACCEPTANCE 8 (exponent lemma over {checked} instances with identity): PASS")
