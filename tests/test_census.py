import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_SPECS
from nearrings.census import (
    MAX_ENDOMORPHISMS,
    SearchSpec,
    _conjugation_tables,
    _endo_data,
    brute_force_oracle,
    candidate_stream,
    canonicalize,
    census,
    census_suite,
    relabel,
)
from nearrings.checks import run_suite, summarize_reports
from nearrings.core import CandidateMultiplication, validate
from nearrings.errors import InputError
from nearrings.groups import build_group, endomorphisms


def stream_tables(spec):
    g = build_group(spec)
    return g, [c.mul for c in candidate_stream(g)]


def test_candidate_stream_z2():
    g, tables = stream_tables("Z2")
    assert tables == [
        ((0, 0), (0, 0)),  # zero multiplication, always first
        ((0, 0), (0, 1)),  # the two-element field
        ((0, 1), (0, 1)),  # x*y = y for all x
    ]


def test_candidate_stream_z3_matches_raw_scan():
    g, tables = stream_tables("Z3")
    assert len(tables) == 7
    # independent filter over all 3^9 tables
    raw = []
    add = g.add
    for flat in itertools.product(range(3), repeat=9):
        mul = tuple(flat[i * 3:(i + 1) * 3] for i in range(3))
        if all(mul[mul[x][y]][z] == mul[x][mul[y][z]]
               and mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
               for x in range(3) for y in range(3) for z in range(3)):
            raw.append(mul)
    assert sorted(tables) == sorted(raw)


@pytest.mark.parametrize("spec", ["Z1", "Z4", "Z6", "S3", "Z2xZ2"])
def test_stream_soundness_every_candidate_validates(spec):
    g = build_group(spec)
    count = 0
    for cand in candidate_stream(g):
        validate(cand)
        count += 1
    assert count >= 1  # the zero table at minimum


def test_zero_table_streams_first():
    for spec in ("Z1", "Z5", "Q8", "S3"):
        g = build_group(spec)
        first = next(iter(candidate_stream(g)))
        assert first.mul == tuple((0,) * g.order for _ in range(g.order))


def test_canonicalize_identifies_isomorphic_z3_tables():
    g = build_group("Z3")
    only_x1 = ((0, 0, 0), (0, 1, 2), (0, 0, 0))  # x*y = y iff x = 1
    only_x2 = ((0, 0, 0), (0, 0, 0), (0, 1, 2))  # x*y = y iff x = 2
    assert canonicalize(g, only_x1) == canonicalize(g, only_x2)


def test_canonicalize_fixes_zero_and_is_idempotent():
    g = build_group("S3")
    zero = tuple((0,) * 6 for _ in range(6))
    assert canonicalize(g, zero) == zero
    for cand in itertools.islice(candidate_stream(g), 25):
        c = canonicalize(g, cand.mul)
        assert canonicalize(g, c) == c


@st.composite
def table_and_automorphism(draw):
    spec = draw(st.sampled_from(["Z2", "Z3", "Z4", "Z2xZ2", "S3"]))
    g = build_group(spec)
    tables = [c.mul for c in candidate_stream(g)]
    t = draw(st.sampled_from(tables))
    auts = endomorphisms(g, invertible_only=True)
    theta = draw(st.sampled_from(auts))
    return g, t, theta


@settings(max_examples=60, deadline=None)
@given(table_and_automorphism())
def test_canonical_form_invariant_under_relabeling(data):
    g, t, theta = data
    assert canonicalize(g, relabel(g, t, theta)) == canonicalize(g, t)


def test_relabeled_table_is_still_a_nearring():
    g = build_group("S3")
    auts = endomorphisms(g, invertible_only=True)
    for cand in itertools.islice(candidate_stream(g), 10):
        for theta in auts:
            validate(CandidateMultiplication(g, relabel(g, cand.mul, theta)))


# -- census ---------------------------------------------------------------------

def test_census_z2(census_of):
    c = census_of("Z2")
    assert c.counts["total"] == 3
    assert c.representatives == tuple(sorted(c.representatives))


def test_census_z3(census_of):
    c = census_of("Z3")
    assert c.counts["total"] == 5
    assert c.counts["with_identity"] == 1


def test_census_s3_reproduces_published_counts(census_of):
    c = census_of("S3")
    assert c.counts["total"] == 39
    assert c.counts["semidistributive"] == 4
    assert c.counts["distributive"] == 2
    # No multiplication on this group admits an identity: an identity
    # would force abelian addition.
    assert c.counts["with_identity"] == 0


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3"])
def test_oracle_equivalence(spec, census_of):
    ours = census_of(spec)
    oracle = brute_force_oracle(build_group(spec))
    assert ours.counts == oracle.counts
    assert ours.representatives == oracle.representatives


def test_oracle_rejects_large_groups():
    with pytest.raises(InputError):
        brute_force_oracle(build_group("Z4"))


def test_census_counts_monotone(census_of):
    for spec in ("Z2", "Z3", "Z4", "Z6", "S3", "Q8", "Z2xZ2"):
        counts = census_of(spec).counts
        assert counts["distributive"] <= counts["semidistributive"] <= counts["total"]
        assert counts["with_identity"] <= counts["total"]


def test_census_without_iso_reduction(census_of):
    raw = census_of("Z3", iso_reduction=False)
    iso = census_of("Z3")
    assert raw.counts["total"] == 7
    assert iso.counts["total"] == 5
    assert len(raw.representatives) == 7


def test_census_filters():
    g = build_group("Z3")
    c = census(SearchSpec(g, filters=("with_identity",)))
    assert c.counts["total"] == 1
    assert len(c.representatives) == 1
    # the lone representative is the modular ring up to relabeling
    assert c.rep_flags[0].distributive


def test_census_worker_determinism(census_of):
    # Aut acts nontrivially on End of each of these groups, so roots are
    # really filtered before they are split over the workers.
    for spec, workers in (("S3", (2, 8)), ("D8", (2, 3)), ("Q8", (2, 3))):
        g = build_group(spec)
        base = census_of(spec)
        for w in workers:
            c = census(SearchSpec(g, worker_count=w))
            assert c.representatives == base.representatives
            assert c.counts == base.counts
            assert c.nodes_visited == base.nodes_visited


def test_representatives_are_canonical(census_of):
    # Image-space canonicalize shares no code with the orderly search.
    for spec in SWEEP_SPECS:
        c = census_of(spec)
        for rep in c.representatives:
            assert canonicalize(c.group, rep) == rep, spec


def test_census_suite_z2(census_of):
    reports = list(census_suite(SearchSpec(build_group("Z2"))))
    assert len(reports) == 3
    assert all(r.overall for r in reports)
    assert [r.instance for r in reports] == ["Z2[0]", "Z2[1]", "Z2[2]"]
    # census_suite runs the suite on the census's classes without
    # re-validating them; every report must equal the one the full
    # validate path gives.
    for label in ("Z2", "Z6", "S3", "Q8", "Z12"):
        g = build_group(label)
        reports = list(census_suite(SearchSpec(g)))
        reps = census_of(label).representatives
        assert len(reports) == len(reps), label
        for i, (rep, report) in enumerate(zip(reps, reports)):
            expected = run_suite(validate(CandidateMultiplication(g, rep),
                                          name=f"{label}[{i}]"))
            assert report.as_dict() == expected.as_dict(), (label, i)


def test_census_suite_z7_odd_order_instances_are_rings():
    reports = list(census_suite(SearchSpec(build_group("Z7"))))
    summary = summarize_reports(reports)
    assert summary["overall"] == "pass"
    # wherever the odd-order check applied, it held, i.e. those instances
    # are rings; non-vacuity of the check on this group:
    assert summary["applicable"]["odd-order-distributive"] >= 1


def test_odd_order_censuses_make_rings(census_of):
    # On odd-order groups every semidistributive class with an identity is
    # distributive, and in the suite both the odd-order and the
    # no-order-two checks fire and hold on those instances.
    from nearrings.checks import run_suite

    for spec in ("Z3", "Z5", "Z7", "Z9", "Z15", "Z3xZ3"):
        c = census_of(spec)
        seen = 0
        for rep, flags in zip(c.representatives, c.rep_flags):
            if not (flags.semidistributive and flags.has_identity):
                continue
            seen += 1
            assert flags.distributive, (spec, rep)
            verdicts = {v.check_id: v for v in
                        run_suite(validate(CandidateMultiplication(c.group, rep))).verdicts}
            assert verdicts["odd-order-distributive"].applicable
            assert verdicts["odd-order-distributive"].holds
            assert verdicts["no-order-two"].applicable
            assert verdicts["no-order-two"].holds
        assert seen >= 1, spec


def test_translation_embedding_over_census_instances(census_of):
    # every census class with an identity admits the translation embedding,
    # and applying unit translations to the identity recovers the units
    from nearrings.core import translation_embedding, units

    for spec in ("Z4", "Z2xZ2", "Z6"):
        c = census_of(spec)
        seen = 0
        for rep in c.representatives:
            r = validate(CandidateMultiplication(c.group, rep))
            if r.identity is None:
                continue
            emb = translation_embedding(r)
            seen += 1
            recovered = tuple(sorted(t.images[r.identity] for t in emb.unit_translations))
            assert recovered == units(r)
        assert seen >= 1


# -- index-space search and reduction ---------------------------------------------

# Attempted choices per group, with and without reduction. The closure's
# propagation order must not change either search tree; a deliberate
# search change updates these. Without reduction element 0 takes every
# row, so that tree is the full search. Z2xZ2xZ2 has no unreduced pin:
# that search alone takes longer than the rest of the sweep.
NODES_VISITED = {
    "Z1": 1, "Z2": 6, "Z3": 18, "Z4": 56, "Z2xZ2": 614, "Z5": 105, "Z6": 564,
    "S3": 895, "Z7": 553, "Z8": 2544, "Z2xZ4": 105102, "Z2xZ2xZ2": 21121038,
    "D8": 130622, "Q8": 48335,
}
NODES_VISITED_NO_ISO = {
    "Z1": 1, "Z2": 6, "Z3": 18, "Z4": 56, "Z2xZ2": 944, "Z5": 105, "Z6": 564,
    "S3": 1240, "Z7": 553, "Z8": 2544, "Z2xZ4": 119232, "D8": 152568,
    "Q8": 48356,
}


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_search_tree_is_pinned(spec, census_of):
    assert census_of(spec).nodes_visited == NODES_VISITED[spec]
    if spec in NODES_VISITED_NO_ISO:
        unreduced = census_of(spec, iso_reduction=False)
        assert unreduced.nodes_visited == NODES_VISITED_NO_ISO[spec]


def test_census_refuses_oversized_endomorphism_monoid():
    # Z2xZ2xZ4 (|End| = 1024) is the largest named group the limit admits.
    assert len(endomorphisms(build_group("Z2xZ2xZ4"))) <= MAX_ENDOMORPHISMS
    cached = endomorphisms.cache_info().currsize
    with pytest.raises(InputError, match=r"\|End\(Z2xZ2xZ2xZ2\)\| exceeds 1024"):
        census(SearchSpec(build_group("Z2xZ2xZ2xZ2")))
    # Refused from the lazy stream: End(G) was never enumerated in full.
    assert endomorphisms.cache_info().currsize == cached


@pytest.mark.parametrize("spec", ["S3", "D8", "Z2xZ4"])
def test_conjugation_tables_match_relabel(spec):
    g = build_group(spec)
    endos, _ = _endo_data(g)
    assert all(a < b for a, b in zip(endos, endos[1:]))
    index = {im: i for i, im in enumerate(endos)}
    tables = [c.mul for c in itertools.islice(candidate_stream(g), 50)]
    for theta, conj in _conjugation_tables(g):
        for t in tables:
            idx = [index[row] for row in t]
            moved = tuple(endos[conj[idx[theta[x]]]] for x in range(g.order))
            assert moved == relabel(g, t, theta)


@pytest.mark.parametrize("spec", ["Z4", "Z2xZ2", "Z6", "S3", "Q8", "D8", "Z2xZ4"])
def test_burnside_counts_the_orbit_reduction(spec, census_of):
    # Classes = (1/|Aut|) * sum over theta of the raw tables theta fixes,
    # counted with image-space relabel only.
    raw = census_of(spec, iso_reduction=False).representatives
    g = build_group(spec)
    auts = endomorphisms(g, invertible_only=True)
    fixed = sum(relabel(g, t, theta) == t for theta in auts for t in raw)
    assert fixed % len(auts) == 0
    assert fixed // len(auts) == census_of(spec).counts["total"]
