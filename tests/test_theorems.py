"""The paper's two theorems as counts over the census, and the lex-least
witnesses that show each hypothesis is needed.

Theorem 1: a semidistributive nearring with identity has abelian
addition. Theorem 2: it is a ring (distributive) when no element has
additive order 2. I = has an identity, S = semidistributive, D =
distributive; every count is of isomorphism classes.
"""

import pytest

from conftest import SWEEP_SPECS
from nearrings.checks import run_suite
from nearrings.core import CandidateMultiplication, law_failure, validate

# group -> (I∧S, I∧S∧¬D, I∧¬S, S∧¬I), for every named group of order <= 15
THEOREM_COUNTS = {
    "Z1": (1, 0, 0, 0),
    "Z2": (1, 0, 0, 2),
    "Z3": (1, 0, 0, 1),
    "Z4": (1, 0, 0, 2),
    "Z2xZ2": (5, 2, 0, 18),
    "Z5": (1, 0, 0, 1),
    "Z6": (1, 0, 0, 5),
    "S3": (0, 0, 0, 4),
    "Z7": (1, 0, 0, 1),
    "Z8": (1, 0, 0, 3),
    "Z2xZ4": (7, 4, 3, 61),
    "Z2xZ2xZ2": (35, 28, 0, 799),
    "D8": (0, 0, 7, 61),
    "Q8": (0, 0, 0, 16),
    "Z9": (1, 0, 0, 2),
    "Z3xZ3": (3, 0, 7, 5),
    "Z10": (1, 0, 0, 5),
    "D10": (0, 0, 0, 4),
    "Z11": (1, 0, 0, 1),
    "Z12": (1, 0, 0, 5),
    "Z2xZ6": (5, 2, 4, 41),
    "D12": (0, 0, 1, 69),
    "Z13": (1, 0, 0, 1),
    "Z14": (1, 0, 0, 5),
    "D14": (0, 0, 0, 4),
    "Z15": (1, 0, 0, 3),
}

# The named groups of order 9 to 15; SWEEP_SPECS holds those of order <= 8.
ORDERS_9_TO_15 = ("Z9", "Z3xZ3", "Z10", "D10", "Z11", "Z12", "Z2xZ6", "D12",
                  "Z13", "Z14", "D14", "Z15")

NONABELIAN = ("S3", "D8", "Q8", "D10", "D12", "D14")


def hypothesis_counts(rep_flags):
    """(I∧S, I∧S∧¬D, I∧¬S, S∧¬I) over a census's class flags."""
    i_s = i_s_not_d = i_not_s = s_not_i = 0
    for f in rep_flags:
        if f.has_identity and f.semidistributive:
            i_s += 1
            i_s_not_d += not f.distributive
        elif f.has_identity:
            i_not_s += 1
        elif f.semidistributive:
            s_not_i += 1
    return i_s, i_s_not_d, i_not_s, s_not_i


def test_table_covers_the_named_groups():
    assert set(THEOREM_COUNTS) == set(SWEEP_SPECS + ORDERS_9_TO_15)


@pytest.mark.parametrize("spec", THEOREM_COUNTS)
def test_theorems_as_counts(census_of, spec):
    c = census_of(spec)
    counts = hypothesis_counts(c.rep_flags)
    assert counts == THEOREM_COUNTS[spec]
    i_s, i_s_not_d, _, s_not_i = counts
    assert c.group.abelian == (spec not in NONABELIAN)
    if not c.group.abelian:
        assert i_s == 0  # Theorem 1
        assert s_not_i > 0  # Theorem 1 needs the identity
    if 2 not in c.group.orders:
        assert i_s_not_d == 0  # Theorem 2


def test_each_hypothesis_is_needed():
    # Theorem 1 needs semidistributivity: I∧¬S classes on nonabelian groups.
    assert THEOREM_COUNTS["D8"][2] == 7 and THEOREM_COUNTS["D12"][2] == 1
    # Theorem 2 needs "no element of order 2": I∧S∧¬D only where one exists.
    assert all(THEOREM_COUNTS[s][1] > 0 for s in ("Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z2xZ6"))


# S∧¬D per group: 0 on every named abelian group with no element of order
# 2, and positive on Z2xZ2 and Z6, which have one.
S_NOT_D_COUNTS = {
    "Z3": 0, "Z5": 0, "Z7": 0, "Z9": 0, "Z3xZ3": 0, "Z11": 0, "Z13": 0, "Z15": 0,
    "Z2xZ2": 15, "Z6": 2,
}


@pytest.mark.parametrize("spec", S_NOT_D_COUNTS)
def test_theorem_2_without_the_identity(census_of, spec):
    """On an abelian group with no element of order 2, every
    semidistributive nearring is distributive, with or without an
    identity. From (a+b+a)c = ac+bc+ac: a = b = 0 gives 0c = 3(0c), so
    0c = 0; b = 0 then gives (2a)c = 2(ac), so (2a+b)c = (2a)c + bc; and
    x -> 2x is onto, since it is one-to-one without an element of order 2.
    Z2xZ2 and Z6 show that the order-2 condition is needed here too."""
    c = census_of(spec)
    count = sum(f.semidistributive and not f.distributive for f in c.rep_flags)
    assert count == S_NOT_D_COUNTS[spec]
    assert c.group.abelian and (2 in c.group.orders) == (count > 0)


# -- sharpness witnesses, re-checked on the image-space path -------------------

# The lex-least I∧¬S class of D8: nonabelian, with identity 1, and not
# semidistributive, so Theorem 1 cannot be applied to it.
D8_WITNESS = (844, (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6, 7),
    (0, 2, 0, 2, 0, 2, 0, 2),
    (0, 3, 2, 1, 4, 7, 6, 5),
    (0, 4, 0, 4, 0, 4, 0, 4),
    (0, 5, 0, 5, 0, 5, 0, 5),
    (0, 6, 0, 6, 0, 6, 0, 6),
    (0, 7, 0, 7, 0, 7, 0, 7),
))

# The lex-least I∧S∧¬D class of Z2xZ2: every element has order 2, so
# Theorem 2 cannot be applied to it.
Z2XZ2_WITNESS = (11, ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2), (0, 1, 2, 3)))


def _first_class(c, pred):
    return next(i for i, f in enumerate(c.rep_flags) if pred(f))


def _recheck(c, index, mul, law, failure):
    """Pin class `index` of census c to the table mul, validate that table
    from scratch (validate computes its flags with classify_table) against
    the census flags, pin the law's first failing triple, and run the
    suite on it."""
    assert c.representatives[index] == mul
    r = validate(CandidateMultiplication(c.group, mul))
    assert r.flags == c.rep_flags[index]
    assert law_failure(c.group, mul, law) == failure
    rep = run_suite(r)
    verdicts = {v.check_id: v for v in rep.verdicts}
    assert rep.overall
    assert not verdicts["no-order-two"].applicable
    return r, verdicts


def test_d8_witness_needs_semidistributivity(census_of):
    c = census_of("D8")
    index, mul = D8_WITNESS
    assert _first_class(c, lambda f: f.has_identity and not f.semidistributive) == index
    r, verdicts = _recheck(c, index, mul, "semidistributivity", ((1, 0, 5), 2, 0))
    assert r.identity == 1 and not r.flags.semidistributive and not r.group.abelian
    assert not verdicts["abelian-addition"].applicable


def test_z2xz2_witness_needs_no_order_two(census_of):
    c = census_of("Z2xZ2")
    index, mul = Z2XZ2_WITNESS
    assert _first_class(
        c, lambda f: f.has_identity and f.semidistributive and not f.distributive) == index
    r, _ = _recheck(c, index, mul, "right-distributivity", ((1, 2, 1), 1, 0))
    assert r.identity is not None and r.flags.semidistributive and not r.flags.distributive
