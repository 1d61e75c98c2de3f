import itertools

import pytest

from nearrings.core import (
    CandidateMultiplication,
    annihilator,
    build_unchecked,
    builtin,
    classify_table,
    distributive_elements,
    ideal_violation,
    ideals,
    is_ideal,
    law_failure,
    law_failures,
    units,
    validate,
)
from corpus import FILE_ENTRIES
from nearrings.errors import AxiomViolation, InputError, PreconditionError
from nearrings.groups import build_group

# Each table law at one triple (a, b, c): (left side, right side).
PLAIN_LAWS = {
    "associativity": lambda add, mul, a, b, c: (
        mul[mul[a][b]][c], mul[a][mul[b][c]]),
    "left-distributivity": lambda add, mul, a, b, c: (
        mul[a][add[b][c]], add[mul[a][b]][mul[a][c]]),
    "right-distributivity": lambda add, mul, a, b, c: (
        mul[add[a][b]][c], add[mul[a][c]][mul[b][c]]),
    "semidistributivity": lambda add, mul, a, b, c: (
        mul[add[add[a][b]][a]][c], add[add[mul[a][c]][mul[b][c]]][mul[a][c]]),
}


def brute_force_is_ideal(r, members):
    """Definition-level recheck sharing no code with ideal_violation."""
    s = set(members)
    n = r.order
    add, neg, mul = r.group.add, r.group.neg, r.mul
    if 0 not in s:
        return False
    if any(add[a][b] not in s for a in s for b in s):
        return False
    if any(add[add[g][a]][neg[g]] not in s for g in range(n) for a in s):
        return False
    if any(mul[x][a] not in s for x in range(n) for a in s):
        return False
    for x in range(n):
        for a in s:
            for y in range(n):
                if add[mul[add[x][a]][y]][neg[mul[x][y]]] not in s:
                    return False
    return True


def reference_ideal_violation(r, members):
    """The plain triple-loop ideal scan, sharing no code with
    ideal_violation: the first failing condition in the same scan order
    (subgroup, normality, left-product, translate-difference), with the
    same witness."""
    n, add, neg, mul = r.order, r.group.add, r.group.neg, r.mul
    s = set(members)
    if 0 not in s:
        return {"condition": "subgroup", "elements": (0,), "detail": "missing 0"}
    ordered = sorted(s)
    for a in ordered:
        for b in ordered:
            if add[a][b] not in s:
                return {"condition": "subgroup", "elements": (a, b), "value": add[a][b]}
    for h in range(n):
        for a in ordered:
            v = add[add[h][a]][neg[h]]
            if v not in s:
                return {"condition": "normality", "elements": (h, a), "value": v}
    for x in range(n):
        for a in ordered:
            if mul[x][a] not in s:
                return {"condition": "left-product", "elements": (x, a), "value": mul[x][a]}
    for x in range(n):
        for a in ordered:
            for y in range(n):
                v = add[mul[add[x][a]][y]][neg[mul[x][y]]]
                if v not in s:
                    return {"condition": "translate-difference", "elements": (x, a, y),
                            "value": v}
    return None


def witness_conditions(r):
    """Compare ideal_violation with the reference on every subset of r;
    return the set of conditions met (None for an ideal)."""
    seen = set()
    for size in range(r.order + 1):
        for members in itertools.combinations(range(r.order), size):
            got = ideal_violation(r, members)
            assert got == reference_ideal_violation(r, members), members
            seen.add(got["condition"] if got else None)
    return seen


@pytest.fixture(scope="module")
def s3_paper():
    return builtin("s3-paper")


@pytest.fixture(scope="module")
def ring_z6():
    return builtin("ring:Z6")


@pytest.mark.parametrize("law", sorted(PLAIN_LAWS))
@pytest.mark.parametrize("cid", sorted(FILE_ENTRIES))
def test_law_kernel_matches_plain_scan(cid, law):
    spec, mul, _ = FILE_ENTRIES[cid]
    g = build_group(spec)
    expected = []
    for a, b, c in itertools.product(range(g.order), repeat=3):
        lhs, rhs = PLAIN_LAWS[law](g.add, mul, a, b, c)
        if lhs != rhs:
            expected.append(((a, b, c), lhs, rhs))
    assert list(law_failures(g, mul, law)) == expected
    assert law_failure(g, mul, law) == (expected[0] if expected else None)


def test_s3_paper_table(s3_paper):
    # Rows for 0, a, 2a are all zero; row b maps the reflection columns to b.
    assert s3_paper.mul[0] == (0, 0, 0, 0, 0, 0)
    assert s3_paper.mul[2] == (0, 0, 0, 0, 0, 0)
    assert s3_paper.mul[3] == (0, 0, 0, 3, 3, 3)
    assert s3_paper.mul[3][4] == 3  # b*(a+b) = b
    assert s3_paper.identity is None


def test_s3_paper_flags(s3_paper):
    f = s3_paper.flags
    assert f.zero_symmetric
    assert f.semidistributive
    assert not f.distributive
    assert not f.has_identity
    assert not f.abelian_addition
    assert classify_table(s3_paper.group, s3_paper.mul, s3_paper.identity) == f


def test_ring_z6_identity_and_flags(ring_z6):
    assert ring_z6.identity == 1
    f = ring_z6.flags
    assert f.zero_symmetric and f.semidistributive and f.distributive and f.has_identity


def test_single_cell_mutation_reports_axiom(s3_paper):
    rows = [list(r) for r in s3_paper.mul]
    rows[3][3] = 1  # b*b was b; now a
    mutated = tuple(tuple(r) for r in rows)
    with pytest.raises(AxiomViolation) as err:
        validate(CandidateMultiplication(s3_paper.group, mutated))
    # Associativity is scanned before left distributivity. First failing
    # triple in row-major order: (b*b)*(a+b) = a*(a+b) = 0 versus
    # b*(b*(a+b)) = b*b = a. Hand-checked against the mutated table.
    assert err.value.axiom == "associativity"
    assert err.value.witness == (3, 3, 4)


def test_zero_multiplication_classifies_fully(s3_paper):
    z = builtin("zero:S3")
    assert z.flags.zero_symmetric
    assert z.flags.semidistributive
    assert z.flags.distributive
    assert not z.flags.has_identity


def test_map_z2_flags_and_dichotomy():
    m = builtin("map-z2")
    assert m.flags.semidistributive
    assert not m.flags.distributive
    assert not m.flags.zero_symmetric
    assert m.identity == 1
    # some s with 0*s of additive order 2 (the constant-one function)
    orders = [m.group.orders[m.mul[0][s]] for s in range(4)]
    assert 2 in orders


def test_map_z2_against_direct_construction():
    """Rebuild Map(Z2) from scratch and compare tables."""
    m = builtin("map-z2")
    funcs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {f: i for i, f in enumerate(funcs)}
    # left distributivity forces f*g = g after f: (f*g)(x) = g(f(x))
    expected = tuple(
        tuple(idx[(funcs[j][funcs[i][0]], funcs[j][funcs[i][1]])] for j in range(4))
        for i in range(4)
    )
    assert m.mul == expected


def test_mul_by_zero_is_zero_everywhere(s3_paper, ring_z6):
    for r in (s3_paper, ring_z6, builtin("map-z2"), builtin("zero:Q8")):
        assert all(r.mul[x][0] == 0 for x in range(r.order))


def test_distributive_implies_semidistributive():
    for name in ("ring:Z4", "ring:Z6", "ring:Z7", "zero:Z2xZ2", "s3-paper", "map-z2"):
        f = builtin(name).flags
        assert (not f.distributive) or f.semidistributive


def test_units(ring_z6):
    assert units(ring_z6) == (1, 5)
    assert units(builtin("ring:Z5")) == (1, 2, 3, 4)
    m = builtin("map-z2")
    assert m.identity in units(m)
    with pytest.raises(PreconditionError):
        units(builtin("s3-paper"))


def test_units_closed_under_multiplication(ring_z6):
    for r in (ring_z6, builtin("ring:Z8"), builtin("map-z2")):
        us = set(units(r))
        assert all(r.mul[a][b] in us for a in us for b in us)


def test_distributive_elements(s3_paper, ring_z6):
    assert distributive_elements(s3_paper) == (0, 1, 2)
    # witness for the reflections failing: (a+b)*b = a+b but a*b + b*b = b
    g, mul = s3_paper.group, s3_paper.mul
    assert mul[g.add[1][3]][3] == 4
    assert g.add[mul[1][3]][mul[3][3]] == 3
    assert distributive_elements(ring_z6) == (0, 1, 2, 3, 4, 5)


def test_is_ideal(ring_z6, s3_paper):
    assert is_ideal(ring_z6, {0, 3})
    assert not is_ideal(ring_z6, {0, 1})
    assert is_ideal(s3_paper, {0, 1, 2})


def test_ideal_violation_witness(ring_z6):
    v = ideal_violation(ring_z6, {0, 1})
    assert v["condition"] == "subgroup"


@pytest.mark.parametrize("name", ["ring:Z4", "ring:Z6", "s3-paper", "map-z2", "zero:Z6"])
def test_is_ideal_matches_brute_force_over_all_subsets(name):
    r = builtin(name)
    n = r.order
    for size in range(n + 1):
        for members in itertools.combinations(range(n), size):
            assert is_ideal(r, members) == brute_force_is_ideal(r, members)
    witness_conditions(r)


def test_ideal_violation_witness_matches_reference_on_census_classes(census_of):
    # The builtins above never fail the translate-difference condition;
    # the census classes of these groups fail every condition somewhere.
    seen = set()
    for spec in ("Z4", "Z2xZ2", "S3"):
        c = census_of(spec)
        for rep in c.representatives:
            seen |= witness_conditions(build_unchecked(c.group, rep))
    assert seen == {None, "subgroup", "normality", "left-product", "translate-difference"}


def test_zero_set_still_fails_left_product_on_corrupt_table():
    # {0} skips the translate-difference scan, which cannot fail on it;
    # the left-product scan before it must still catch x*0 != 0. Row 2
    # is a constant map, so 2*0 = 1 and the table is not zero-symmetric.
    g = build_group("Z3")
    r = build_unchecked(g, ((0, 0, 0), (0, 1, 2), (1, 1, 1)))
    want = {"condition": "left-product", "elements": (2, 0), "value": 1}
    assert ideal_violation(r, (0,)) == want
    assert reference_ideal_violation(r, (0,)) == want
    # On a zero-symmetric table {0} is always an ideal.
    assert ideal_violation(builtin("s3-paper"), (0,)) is None


def test_left_product_witness_is_the_first_in_x_major_order():
    # {0, 2} is a subgroup of Z4, so the scan reaches the left products.
    # Member 0's column fails only at x = 3 and member 2's at x = 1: a
    # scan member by member would name (3, 0), but the witness is the
    # first failure in x-major order, (1, 2).
    g = build_group("Z4")
    r = build_unchecked(g, ((0, 0, 0, 0), (0, 0, 3, 0), (0, 0, 0, 0), (1, 0, 0, 0)))
    want = {"condition": "left-product", "elements": (1, 2), "value": 3}
    assert ideal_violation(r, (0, 2)) == want
    assert reference_ideal_violation(r, (0, 2)) == want


def test_ideals(ring_z6, s3_paper):
    assert ideals(ring_z6) == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]
    assert ideals(builtin("ring:Z5")) == [(0,), (0, 1, 2, 3, 4)]
    assert ideals(s3_paper) == [(0,), (0, 1, 2), (0, 1, 2, 3, 4, 5)]
    assert ideals(builtin("zero:Z1")) == [(0,)]


def test_annihilator(ring_z6, s3_paper):
    assert annihilator(ring_z6) == (0,)
    z2 = builtin("zero:Z2")
    assert annihilator(z2) == (0, 1)
    assert annihilator(s3_paper) == (0, 1, 2)


def test_annihilator_of_regular_module_is_ideal():
    for name in ("ring:Z6", "s3-paper", "map-z2", "zero:Z4", "ring:Z7"):
        r = builtin(name)
        assert is_ideal(r, annihilator(r))


def test_builtin_unknown():
    with pytest.raises(InputError):
        builtin("nope")
    with pytest.raises(InputError):
        builtin("ring:Z99")


def test_unchecked_constructor_keeps_table_and_lies():
    g = build_group("Z4")
    mul = tuple((2, 2, 2, 2) for _ in range(4))  # constant, not a nearring
    r = build_unchecked(g, mul)
    assert r.mul[0][0] == 2
    assert r.flags == classify_table(g, mul)


def test_flags_cache_agrees_with_recomputation():
    for name in ("s3-paper", "map-z2", "ring:Z6", "zero:S3", "ring:Z2"):
        r = builtin(name)
        assert classify_table(r.group, r.mul, r.identity) == r.flags


def test_distributive_instances_ideals_match_ring_reading(census_of):
    # In a distributive nearring the kernel-style conditions (normality and
    # (r+a)s - rs membership) collapse to plain two-sided absorption, so
    # both readings of "ideal" must pick out the same subgroups.
    from nearrings.groups import subgroups

    for spec in ("Z4", "Z6", "Z2xZ2"):
        c = census_of(spec)
        for rep, flags in zip(c.representatives, c.rep_flags):
            if not flags.distributive:
                continue
            r = validate(CandidateMultiplication(c.group, rep))
            add, neg = c.group.add, c.group.neg
            ring_style = [
                s for s in subgroups(c.group)
                if all(add[add[h][a]][neg[h]] in s for h in range(r.order) for a in s)
                and all(r.mul[x][a] in set(s) and r.mul[a][x] in set(s)
                        for x in range(r.order) for a in s)
            ]
            assert ideals(r) == ring_style
