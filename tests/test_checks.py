import pytest

from corpus import FILE_ENTRIES, no_order_two_nearring, reverify_witness
from nearrings.checks import (
    CHECK_IDS,
    CHECKS,
    check_abelian_addition,
    check_annihilator_ideal,
    check_arithmetic,
    check_faithful_module_ring,
    check_identity_exponent,
    check_no_order_two,
    check_odd_distributive,
    check_primary_ideals,
    check_simple_is_ring,
    run_suite,
    summarize_reports,
)
from nearrings.core import build_unchecked, builtin
from nearrings.groups import build_group


CHECK_BY_ID = dict(CHECKS)


# -- behaviour on genuine instances -------------------------------------------


def test_arithmetic_on_examples():
    assert check_arithmetic(builtin("s3-paper")).holds
    z6 = builtin("ring:Z6")
    v = check_arithmetic(z6)
    assert v.applicable and v.holds
    assert z6.mul[2][3] == 0  # coprime orders 3 and 2 multiply to zero
    s3 = builtin("s3-paper")
    assert s3.mul[3][1] == 0  # b and a have coprime orders 2 and 3
    m = check_arithmetic(builtin("map-z2"))
    assert m.applicable and m.holds


def test_abelian_on_examples():
    s3 = check_abelian_addition(builtin("s3-paper"))
    assert not s3.applicable and s3.holds  # no identity: vacuous
    z6 = check_abelian_addition(builtin("ring:Z6"))
    assert z6.applicable and z6.holds


def test_exponent_on_examples():
    for name in ("ring:Z6", "ring:Z4", "map-z2"):
        v = check_identity_exponent(builtin(name))
        assert v.applicable and v.holds
    no_id = check_identity_exponent(builtin("s3-paper"))
    assert not no_id.applicable


def test_odd_distributive_on_examples():
    v = check_odd_distributive(builtin("ring:Z9"))
    assert v.applicable and v.holds
    zero = check_odd_distributive(builtin("zero:Z5"))
    assert not zero.applicable  # zero multiplication has no identity


def test_p_ideals_on_examples():
    v = check_primary_ideals(builtin("ring:Z6"))
    assert v.applicable and v.holds
    v7 = check_primary_ideals(builtin("ring:Z7"))
    assert v7.applicable and v7.holds


def test_annihilator_on_examples():
    for name in ("s3-paper", "ring:Z6", "zero:Z4"):
        v = check_annihilator_ideal(builtin(name))
        assert v.applicable and v.holds


def test_faithful_module_on_examples():
    v = check_faithful_module_ring(builtin("ring:Z6"))
    assert v.applicable and v.holds
    s3 = check_faithful_module_ring(builtin("s3-paper"))
    assert not s3.applicable  # annihilator is {0,a,2a}: not faithful


def test_simple_on_examples():
    v5 = check_simple_is_ring(builtin("ring:Z5"))
    assert v5.applicable and v5.holds
    v6 = check_simple_is_ring(builtin("ring:Z6"))
    assert not v6.applicable  # four ideals


def test_no_order_two_on_examples():
    v9 = check_no_order_two(builtin("ring:Z9"))
    assert v9.applicable and v9.holds
    v2 = check_no_order_two(builtin("ring:Z2"))
    assert not v2.applicable  # 1 has additive order 2


def test_suite_s3_paper_applicability_pattern():
    rep = run_suite(builtin("s3-paper"))
    assert rep.overall
    applicable = {v.check_id for v in rep.verdicts if v.applicable}
    assert applicable == {"arithmetic", "annihilator-ideal"}


def test_suite_ring_z6_applicability_pattern():
    rep = run_suite(builtin("ring:Z6"))
    assert rep.overall
    not_applicable = {v.check_id for v in rep.verdicts if not v.applicable}
    assert not_applicable == {"simple-ring", "no-order-two"}


def test_suite_verdict_order_and_report_shape():
    rep = run_suite(builtin("ring:Z2"))
    assert rep.instance == "ring:Z2"
    assert tuple(v.check_id for v in rep.verdicts) == CHECK_IDS
    d = rep.as_dict()
    assert d["overall"] == "pass"
    assert len(d["verdicts"]) == 9


def test_witness_present_iff_applicable_and_failing():
    instances = [builtin(n) for n in ("s3-paper", "map-z2", "ring:Z6", "zero:S3")]
    instances += [
        build_unchecked(build_group(spec), mul)
        for spec, mul, _ in FILE_ENTRIES.values()
    ]
    for r in instances:
        for v in run_suite(r).verdicts:
            assert (v.witness is not None) == (v.applicable and not v.holds)
            if not v.applicable:
                assert v.holds  # vacuously true


# -- fault injection -----------------------------------------------------------


@pytest.mark.parametrize("cid", sorted(FILE_ENTRIES))
def test_fault_corpus_fires_and_reverifies(cid):
    spec, mul, _notes = FILE_ENTRIES[cid]
    r = build_unchecked(build_group(spec), mul)
    v = CHECK_BY_ID[cid](r)
    assert v.applicable, f"{cid} hypothesis scans must pass on the corpus table"
    assert not v.holds, f"{cid} must fail on the corpus table"
    reverify_witness(r, v)


def test_fault_corpus_no_order_two_via_flag_corruption():
    r = no_order_two_nearring()
    v = check_no_order_two(r)
    assert v.applicable and not v.holds
    reverify_witness(r, v)


def test_fault_corpus_makes_suite_fail():
    for cid, (spec, mul, _notes) in FILE_ENTRIES.items():
        r = build_unchecked(build_group(spec), mul)
        rep = run_suite(r)
        assert not rep.overall
        failed = {v.check_id for v in rep.verdicts if v.applicable and not v.holds}
        assert cid in failed


def test_summarize_reports():
    reports = [run_suite(builtin(n)) for n in ("ring:Z6", "s3-paper")]
    summary = summarize_reports(reports)
    assert summary["instances"] == 2
    assert summary["overall"] == "pass"
    assert summary["applicable"]["arithmetic"] == 2
    assert summary["applicable"]["abelian-addition"] == 1
    assert summary["failures"] == []
    bad = build_unchecked(build_group("Z4"), FILE_ENTRIES["identity-exponent"][1], name="bad")
    summary2 = summarize_reports([run_suite(bad)])
    assert summary2["overall"] == "fail"
    assert {"instance": "bad", "check_id": "identity-exponent"} in summary2["failures"]
