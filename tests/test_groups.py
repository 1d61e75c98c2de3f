import itertools
from math import gcd, prod

import pytest

from conftest import relabelled
from nearrings.errors import AxiomViolation, InputError, PreconditionError
from nearrings.groups import (
    _validate_table,
    build_group,
    endomorphisms,
    exponent,
    is_homomorphism,
    p_component,
    subgroups,
    times,
)

ALL_SPECS = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z12", "Z15", "Z16",
    "Z2xZ2", "Z2xZ3", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ2xZ4", "Z4xZ4",
    "D2", "D4", "D6", "D8", "D10", "D12", "D16", "Q8", "S3",
]


def brute_force_endomorphisms(g):
    """Independent n^n oracle for the endomorphism list: the definition on
    every map, sharing no generator argument with `_walk`."""
    n = g.order
    found = []
    for images in itertools.product(range(n), repeat=n):
        if definitional_is_homomorphism(g, g, images):
            found.append(images)
    return sorted(found)


def definitional_is_homomorphism(source, target, images):
    n = source.order
    return all(images[source.add[x][y]] == target.add[images[x]][images[y]]
               for x in range(n) for y in range(n))


def homomorphisms_checked(g, h):
    """|Hom(g, h)|, with is_homomorphism checked against the definition on
    every map from g to h."""
    found = 0
    for images in itertools.product(range(h.order), repeat=g.order):
        expected = definitional_is_homomorphism(g, h, images)
        assert is_homomorphism(g, h, images) == expected, images
        found += expected
    return found


# Every map between the groups of each pair, maps with images[0] != 0
# included, against the definition; the pairs of distinct groups keep the
# source and target tables apart. The counts are |Hom(source, target)|.
# Q8's generators -1, i and j hold a redundant one, -1 = i + i.
@pytest.mark.parametrize("source,target,count", [
    ("Z4", "Z4", 4), ("Z2xZ2", "Z2xZ2", 16), ("S3", "S3", 10),
    ("Z4", "Z2xZ2", 4), ("Z2xZ2", "Z4", 4), ("S3", "Z6", 2), ("Q8", "Z2", 4),
])
def test_is_homomorphism_matches_definition_on_all_maps(source, target, count):
    assert homomorphisms_checked(build_group(source), build_group(target)) == count


def test_cyclic_tables():
    z4 = build_group("Z4")
    assert z4.add[1][3] == 0
    assert z4.add[2][3] == 1


def test_s3_element_ordering():
    # Ordering 0, a, 2a, b, a+b, 2a+b: a+b lands at index 4, b+a at 2a+b.
    s3 = build_group("S3")
    assert s3.names == ("0", "a", "2a", "b", "a+b", "2a+b")
    assert s3.add[1][3] == 4
    assert s3.add[3][1] == 5
    assert s3.add[3][3] == 0  # b has order 2
    assert times(s3, 1, 3) == 0  # a has order 3


def test_raw_table_rejects_non_latin():
    with pytest.raises(AxiomViolation) as err:
        build_group({"order": 2, "add": [[0, 1], [1, 1]]})
    assert err.value.axiom == "latin-square"


# Each table fails exactly one group axiom, the first in the scan order
# rows and columns, neutral 0, associativity. A missing inverse has no
# case: a row that is a permutation of 0..n-1 always holds 0.
@pytest.mark.parametrize("add, axiom, witness, detail", [
    ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], "latin-square", (0,),
     "column 0 is not a permutation"),
    ([[1, 0], [0, 1]], "identity", (0,), "element 0 is not neutral"),
    # A loop of order 5: a Latin square with neutral 0 that is not associative.
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
      [4, 2, 0, 1, 3]], "associativity", (1, 1, 2), ""),
])
def test_raw_table_rejects_axiom_failures(add, axiom, witness, detail):
    with pytest.raises(AxiomViolation) as err:
        build_group({"order": len(add), "add": add})
    assert (err.value.axiom, err.value.witness, err.value.detail) == (axiom, witness, detail)


def test_raw_table_rejects_bad_shape_and_range():
    with pytest.raises(InputError):
        build_group({"order": 2, "add": [[0, 1]]})
    with pytest.raises(InputError):
        build_group({"order": 2, "add": [[0, 5], [1, 0]]})
    with pytest.raises(InputError):
        build_group("Z99")
    with pytest.raises(InputError):
        build_group("K4")


@pytest.mark.parametrize("obj", [
    {"order": True, "add": [[0]]},
    {"order": 2.0, "add": [[0, 1], [1, 0]]},
    {"order": 2, "add": ["01", "10"]},
    {"order": 2, "add": [[0, 1.0], [1, 0]]},
    {"order": 2, "add": [[0, 1.5], [1, 0]]},
    {"order": 2, "add": [[False, True], [True, False]]},
    {"order": 2, "add": "0110"},
])
def test_raw_table_rejects_non_integer_entries(obj):
    with pytest.raises(InputError):
        build_group(obj)


def test_raw_table_accepts_valid_group():
    z3 = build_group({"order": 3, "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    assert z3.spec is None
    assert z3.add == build_group("Z3").add


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_named_families_satisfy_group_axioms(spec):
    g = build_group(spec)
    _validate_table(g.add)  # latin square, identity 0, associativity


def test_element_orders():
    z6 = build_group("Z6")
    s3 = build_group("S3")
    assert z6.orders[2] == 3
    assert s3.orders[3] == 2  # b·2 = 0
    assert z6.orders[0] == 1
    assert s3.orders[0] == 1


def test_exponent():
    assert exponent(build_group("Z6")) == 6
    assert exponent(build_group("Z2xZ2")) == 2
    assert exponent(build_group("S3")) == 6
    assert exponent(build_group("Z1")) == 1


def test_endomorphisms_z2():
    assert endomorphisms(build_group("Z2")) == ((0, 0), (0, 1))


def test_endomorphisms_s3_against_brute_force():
    s3 = build_group("S3")
    ours = endomorphisms(s3)
    assert list(ours) == brute_force_endomorphisms(s3)
    assert len(ours) == 10
    autos = endomorphisms(s3, invertible_only=True)
    assert len(autos) == 6
    assert all(len(set(im)) == s3.order for im in autos)


@pytest.mark.parametrize("spec", ["Z1", "Z4", "Z6", "Z2xZ2", "S3", "D8", "Q8"])
def test_endomorphism_monoid_closure(spec):
    g = build_group(spec)
    images = set(endomorphisms(g))
    assert tuple(range(g.order)) in images  # identity map present
    for f in images:
        for h in images:
            assert tuple(f[y] for y in h) in images  # f after h
    autos = set(endomorphisms(g, invertible_only=True))
    for f in autos:
        inverse = tuple(f.index(x) for x in range(g.order))
        assert inverse in autos


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def end_count(spec):
    """|End(G)| in closed form: prod of gcd(a_i, a_j) over every ordered
    pair of cyclic factors of Z_a1 x ... x Z_ar; k^2 + 1 for D_2k with k
    odd and (k + 2)^2 with k even; 28 for Q8."""
    if spec == "Q8":
        return 28
    if spec == "S3" or spec.startswith("D"):
        k = 3 if spec == "S3" else int(spec[1:]) // 2
        return k * k + 1 if k % 2 else (k + 2) ** 2
    factors = [int(f[1:]) for f in spec.split("x")]
    return prod(gcd(a, b) for a in factors for b in factors)


def subgroup_count(spec):
    """The number of subgroups: tau(n) for Z_n and tau(k) + sigma(k) for
    D_2k (S3 = D6); the other groups are pinned."""
    pinned = {"Z2xZ2": 5, "Z2xZ3": 4, "Z2xZ4": 8, "Z3xZ3": 6, "Z2xZ2xZ2": 16,
              "Z2xZ2xZ4": 27, "Z4xZ4": 15, "Q8": 6}
    if spec in pinned:
        return pinned[spec]
    if spec == "S3" or spec.startswith("D"):
        k = 3 if spec == "S3" else int(spec[1:]) // 2
        return len(divisors(k)) + sum(divisors(k))
    return len(divisors(int(spec[1:])))


@pytest.mark.parametrize("spec,count", [(spec, end_count(spec)) for spec in ALL_SPECS])
def test_endomorphism_counts_small(spec, count):
    # Closed forms, independent of the enumerator; the n^n scan below
    # cross-checks the maps themselves for orders <= 4.
    assert len(endomorphisms(build_group(spec))) == count


@pytest.mark.parametrize("spec,count", [(spec, subgroup_count(spec)) for spec in ALL_SPECS])
def test_subgroup_counts(spec, count):
    assert len(subgroups(build_group(spec))) == count


# Seeds whose relabelling gives the raw table at least 3 generators (4
# for Z2xZ2xZ4 and Z4xZ4 with seed 3), where the named Z4xZ4 and D16 have
# 2, so the enumerator walks longer image tuples than on the named group.
# The named Q8 has 3 as well: -1, i and j, of which -1 = i + i.
@pytest.mark.parametrize("spec,seed", [
    ("Z2xZ2xZ4", 0), ("Z2xZ2xZ4", 3), ("Z4xZ4", 3), ("Z4xZ4", 4),
    ("D16", 1), ("D16", 3), ("Q8", 14), ("Q8", 28),
])
def test_endomorphisms_of_relabelled_raw_tables(spec, seed):
    g = build_group(spec)
    raw, perm = relabelled(g, seed)
    assert len(raw.generators) >= 3
    conjugates = []
    for f in endomorphisms(g):
        image = [0] * g.order
        for x in range(g.order):
            image[perm[x]] = perm[f[x]]
        conjugates.append(tuple(image))
    assert list(endomorphisms(raw)) == sorted(conjugates)


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_endomorphisms_match_brute_force_small(spec):
    g = build_group(spec)
    assert list(endomorphisms(g)) == brute_force_endomorphisms(g)


def is_normal(g, members):
    return all(g.add[g.add[h][a]][g.neg[h]] in members for h in range(g.order) for a in members)


def test_subgroups_z6():
    z6 = build_group("Z6")
    subs = subgroups(z6)
    assert subs == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]
    assert all(is_normal(z6, s) for s in subs)  # Z6 is abelian


def test_subgroups_s3():
    s3 = build_group("S3")
    allsubs = subgroups(s3)
    assert len(allsubs) == 6  # trivial, <a>, three <reflection>, whole
    normals = [s for s in allsubs if is_normal(s3, s)]
    assert normals == [(0,), (0, 1, 2), (0, 1, 2, 3, 4, 5)]


def test_subgroups_trivial():
    assert len(subgroups(build_group("Z1"))) == 1


def test_p_component():
    z6 = build_group("Z6")
    assert p_component(z6, 2) == (0, 3)
    assert p_component(z6, 3) == (0, 2, 4)
    assert p_component(z6, 5) == (0,)
    with pytest.raises(PreconditionError):
        p_component(build_group("S3"), 2)
    with pytest.raises(InputError):
        p_component(z6, 4)


@pytest.mark.parametrize("spec", ["Z1", "Z4", "Z6", "Z12", "Z2xZ4", "Z2xZ2xZ2", "Z15"])
def test_p_components_give_direct_sum(spec):
    g = build_group(spec)
    sizes = []
    n = g.order
    d = 2
    primes = []
    while d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    for p in primes:
        sizes.append(len(p_component(g, p)))
    assert prod(sizes, start=1) == g.order


def test_times_wraps():
    z4 = build_group("Z4")
    assert times(z4, 1, 5) == 1
    assert times(z4, 2, 2) == 0
    assert times(z4, 3, 0) == 0
