import importlib
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_SPECS, relabelled
from nearrings.census import (
    FILTER_NAMES,
    MAX_ENDOMORPHISMS,
    _FRAME_LEAVES,
    SearchSpec,
    _IndexClassifier,
    _RowLaw,
    _Screen,
    _endo_data,
    _enumerate_classes,
    _root_triples,
    _search,
    brute_force_oracle,
    candidate_stream,
    canonicalize,
    census,
    census_classes,
    census_suite,
    relabel,
)
from nearrings.catalog import write_catalog
from nearrings.checks import run_suite, summarize_reports
from nearrings.core import (
    FLAG_TABLE,
    CandidateMultiplication,
    classify_table,
    find_identity,
    validate,
)
from nearrings.errors import InputError
from nearrings.groups import MAX_ORDER, FiniteGroup, build_group, endomorphisms


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


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6"])
def test_oracle_equivalence(spec, census_of):
    ours = census_of(spec)
    oracle = brute_force_oracle(build_group(spec))
    assert ours.counts == oracle.counts
    assert ours.representatives == oracle.representatives


def test_oracle_shares_no_search_code(census_of, monkeypatch):
    ours = census_of("Z2xZ2")

    def _forbidden(*args, **kwargs):
        raise AssertionError("the oracle called search code")

    census_module = importlib.import_module("nearrings.census")
    groups_module = importlib.import_module("nearrings.groups")
    for module, name in [(census_module, "_search"), (census_module, "_endo_data"),
                         (census_module, "endomorphisms"),
                         (census_module, "iter_endomorphisms"),
                         (groups_module, "endomorphisms"),
                         (groups_module, "iter_endomorphisms"),
                         (groups_module, "_walk")]:
        monkeypatch.setattr(module, name, _forbidden)
    oracle = brute_force_oracle(build_group("Z2xZ2"))
    assert oracle.counts == ours.counts
    assert oracle.representatives == ours.representatives


@pytest.mark.parametrize("kwargs, message", [
    ({"filters": ("abelian",)}, "unknown filter 'abelian'"),
    ({"worker_count": 0}, "worker_count must be >= 1"),
])
def test_search_spec_rejects_bad_fields(kwargs, message):
    with pytest.raises(InputError, match=message):
        SearchSpec(build_group("Z2"), **kwargs)


def test_oracle_rejects_large_groups():
    with pytest.raises(InputError):
        brute_force_oracle(build_group("Z8"))


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


@pytest.mark.parametrize("spec", ["S3", "Z2xZ4", "D8"])
def test_filtered_census_is_the_filtered_full_census(spec, census_of):
    # Filters run on index tuples before decoding; the kept classes must be
    # exactly those of the full census whose flags hold every filter.
    g = build_group(spec)
    full = census_of(spec)
    attr = {key: a for key, a, _ in FLAG_TABLE}
    for filters in [(f,) for f in FILTER_NAMES] + [("with_identity", "semidistributive")]:
        c = census(SearchSpec(g, filters=filters))
        kept = [(rep, fl) for rep, fl in zip(full.representatives, full.rep_flags)
                if all(getattr(fl, attr[f]) for f in filters)]
        assert list(zip(c.representatives, c.rep_flags)) == kept, (spec, filters)
        assert c.counts["total"] == len(kept)


def test_census_worker_determinism(census_of, four_cpus):
    # Aut acts nontrivially on End of each of these groups, so the lex
    # test at the root really cuts rows in the forked search.
    for spec, workers in (("S3", (2, 8)), ("D8", (2, 3)), ("Q8", (2, 3))):
        g = build_group(spec)
        base = census_of(spec)
        for w in workers:
            c = census(SearchSpec(g, worker_count=w))
            assert c.workers > 1
            assert c.representatives == base.representatives
            assert c.counts == base.counts
            assert c.nodes_visited == base.nodes_visited


@pytest.mark.parametrize("spec, iso", [
    ("Z1", True), ("Z2", True), ("S3", True), ("Q8", True), ("D8", True),
    ("Z2xZ6", True), ("D8", False)])
def test_catalog_is_identical_for_any_worker_count(spec, iso, census_of, four_cpus, tmp_path):
    # Z1's root completes its only table; the unreduced D8 census has no
    # automorphism triples.
    g = build_group(spec)
    base = tmp_path / "w1.jsonl"
    write_catalog(base, census_of(spec, iso_reduction=iso))
    for w in (2, 3):
        path = tmp_path / f"w{w}.jsonl"
        write_catalog(path, census(SearchSpec(g, iso_reduction=iso, worker_count=w)))
        assert path.read_bytes() == base.read_bytes()


@pytest.mark.parametrize("spec", ["D8", "Z2xZ6"])
def test_parallel_classes_arrive_in_lex_order(spec, four_cpus):
    # The forked search's leaves are handed on in the order it writes
    # them, with no sort, over more than one frame.
    kept = []
    _, workers = _enumerate_classes(build_group(spec), True, 2, kept.append)
    assert workers == 2
    assert len(kept) > _FRAME_LEAVES
    assert kept == sorted(kept)


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # The census module reads os.cpu_count and the CPUs this process may
    # run on when it counts its processes; here the CPU count is the cap.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    g = build_group("D8")
    kept, alone = [], []
    _, workers = _enumerate_classes(g, True, 8, kept.append)
    assert workers == 2
    _enumerate_classes(g, True, 1, alone.append)
    assert kept == alone


def test_pool_forks_one_child_for_more_workers(monkeypatch, four_cpus):
    # Four usable CPUs and three workers asked for: one forked search and
    # this process, which hands on the one-worker leaves.
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    g = build_group("D8")
    kept, alone = [], []
    nodes, workers = _enumerate_classes(g, True, 3, kept.append)
    assert workers == 2
    assert len(forks) == 1
    assert (nodes, kept) == (_enumerate_classes(g, True, 1, alone.append)[0], alone)


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    # Four CPUs, but an affinity mask of one: the census forks no worker.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    g = build_group("D8")
    kept, alone = [], []
    _, workers = _enumerate_classes(g, True, 2, kept.append)
    assert workers == 1
    _enumerate_classes(g, True, 1, alone.append)
    assert kept == alone


def test_census_without_fork_runs_in_one_process(census_of, monkeypatch, four_cpus, tmp_path):
    # Where os.fork is missing the census forks no worker and reports one.
    monkeypatch.delattr(os, "fork")
    c = census(SearchSpec(build_group("D8"), worker_count=2))
    assert c.workers == 1
    write_catalog(tmp_path / "w1.jsonl", census_of("D8"))
    write_catalog(tmp_path / "w2.jsonl", c)
    assert (tmp_path / "w2.jsonl").read_bytes() == (tmp_path / "w1.jsonl").read_bytes()


class _Stop(Exception):
    pass


def test_consumer_error_with_workers_propagates_and_reaps_them(four_cpus):
    # The consumer raises while forked workers are still searching: the
    # error reaches the caller, and every worker is killed and reaped.
    seen = []

    def emit(t, f):
        seen.append(t)
        if len(seen) == 100:
            raise _Stop

    with pytest.raises(_Stop):
        census_classes(SearchSpec(build_group("Z2xZ6"), worker_count=2), emit)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


INDEX_SPACE_CASES = [(spec, True) for spec in ("S3", "D8", "Q8", "Z2xZ4", "Z2xZ6", "Z12")]
INDEX_SPACE_CASES += [(spec, False) for spec in ("S3", "Z2xZ2", "Z6")]


@pytest.mark.parametrize("spec, iso", INDEX_SPACE_CASES,
                         ids=[spec if iso else f"{spec}-no-iso" for spec, iso in INDEX_SPACE_CASES])
def test_index_space_flags_match_classify_table(spec, iso, census_of):
    # The census classifies index tuples with n^2 row-sum lookups. On every
    # class its flags and identity must equal the n^3 image-space scans of
    # the decoded table. Z2xZ6, D8 and Z2xZ4 have classes that are
    # semidistributive but not distributive, so the two laws are told
    # apart; S3, D8 and Q8 are nonabelian. The unreduced tables are not
    # canonical, so the identity, read off the one row that is the
    # identity map, also meets tables no lex-least class gives: Z2xZ2 has
    # 24 with an identity and Z6 has 2.
    g = build_group(spec)
    c = census_of(spec, iso_reduction=iso)
    endos, index, _ = _endo_data(g)
    classifier = _IndexClassifier(g, endos, index)
    for rep, flags in zip(c.representatives, c.rep_flags):
        assert flags == classify_table(g, rep), (spec, rep)
        assert classifier.identity(tuple(index[row] for row in rep)) == find_identity(g, rep)
    if spec in ("Z2xZ6", "D8", "Z2xZ4"):
        assert any(f.semidistributive and not f.distributive for f in c.rep_flags)


def test_d12_golden_counts():
    # Recorded with the image-space classify_table before the census
    # classified in index space, and nodes_visited once the root, like
    # every node, attempted all |End| = 64 rows; D12 is the largest search
    # tree in the suite (about 1.5 s).
    c = census(SearchSpec(build_group("D12")))
    assert c.counts == {"total": 48137, "with_identity": 1, "zero_symmetric": 46347,
                        "semidistributive": 69, "distributive": 17}
    assert c.nodes_visited == 1561344


# -- index-space search and reduction ---------------------------------------------

# Attempted choices per group, with and without reduction. The closure's
# propagation order must not change either search tree; a deliberate
# search change updates these. With reduction, every partial table is cut
# as soon as an automorphism fixing its row 0 relabels its assigned
# entries to something smaller; this cuts cyclic groups too, since
# End(Zn) is commutative and every root keeps all of Aut. Every node,
# the root included, counts |End| attempts. Without reduction there is
# no automorphism to test, so that tree is the full search. Z2xZ2xZ2 has no unreduced pin: that search
# alone takes longer than the rest of the sweep.
NODES_VISITED = {
    "Z1": 1, "Z2": 6, "Z3": 18, "Z4": 52, "Z2xZ2": 384, "Z5": 75, "Z6": 522,
    "S3": 510, "Z7": 259, "Z8": 1424, "Z2xZ4": 35616, "Z2xZ2xZ2": 459264,
    "D8": 36036, "Q8": 7812,
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


def _closure_accepts(rows, pos, e, endos, compose):
    """Whether the partial table `rows` (element -> endomorphism index)
    with row e at pos propagates phi_(phi_y(z)) = phi_y o phi_z without a
    conflict: a complete closure, failing at the first conflict, over the
    composition table `compose` of image vectors."""
    # Most rows conflict with an assigned entry on a pair with pos, so those
    # pairs are checked first, before the table is copied.
    img, row = endos[e], compose[e]
    for z, h in rows.items():
        have = rows.get(img[z])
        if have is not None and have != row[h]:
            return False
        have = rows.get(endos[h][pos])
        if have is not None and have != compose[h][e]:
            return False
    rows = dict(rows)
    rows[pos] = e
    queue = [pos]
    for y in queue:
        f = rows[y]
        for z, h in list(rows.items()):
            for w, v in ((endos[f][z], compose[f][h]), (endos[h][y], compose[h][f])):
                have = rows.get(w)
                if have is None:
                    rows[w] = v
                    queue.append(w)
                elif have != v:
                    return False
    return True


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "Z2xZ4", "Z2xZ6", "Z12", "Z3xZ3"])
def test_screen_admits_every_row_close_accepts(spec, monkeypatch):
    # At every node of the reduced and unreduced searches, each row the
    # bitmask screen drops must be one the closure rejects, by a closure
    # check of its own that shares no code with the screen. Leaves and
    # nodes_visited alone would miss a dropped row whose subtree the lex
    # test cuts at once.
    module = importlib.import_module("nearrings.census")
    g = build_group(spec)
    endos, index, _ = _endo_data(g)
    compose = [[index[tuple(f[v] for v in h)] for h in endos] for f in endos]
    nodes = [0]
    rows = module._Screen.rows

    def checked_rows(self, assign, distinct, pos, allowed):
        mask = rows(self, assign, distinct, pos, allowed)
        nodes[0] += 1
        partial = {x: e for x, e in enumerate(assign) if e is not None}
        for e in range(len(endos)):
            if not mask >> e & 1:
                assert not _closure_accepts(partial, pos, e, endos, compose), (assign, pos, e)
        return mask

    monkeypatch.setattr(module._Screen, "rows", checked_rows)
    for iso in (True, False):
        nodes[0] = 0
        c = census(SearchSpec(g, iso_reduction=iso))
        assert nodes[0] > 0
        pinned = NODES_VISITED if iso else NODES_VISITED_NO_ISO
        if spec in pinned:
            assert c.nodes_visited == pinned[spec]


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "Z2xZ4"])
def test_close_leaves_every_partial_table_closed(spec, monkeypatch):
    # `close` checks the closure law once per distinct row of the partial
    # table, not once per element. The lex test runs after every close
    # that succeeds, so there every pair of assigned y, z must satisfy
    # t[t[y](z)] = t[y] o t[z], with the composite built here from the
    # image vectors one element at a time, sharing no table with the
    # search.
    module = importlib.import_module("nearrings.census")
    g = build_group(spec)
    endos, index, _ = _endo_data(g)
    composite = {}
    lex_test, nodes = module._lex_test, [0]

    def checked_lex_test(t, active):
        nodes[0] += 1
        assigned = [(x, e) for x, e in enumerate(t) if e is not None]
        for y, f in assigned:
            for z, h in assigned:
                if (f, h) not in composite:
                    composite[f, h] = index[tuple(endos[f][v] for v in endos[h])]
                assert t[endos[f][z]] == composite[f, h], (t, y, z)
        return lex_test(t, active)

    monkeypatch.setattr(module, "_lex_test", checked_lex_test)
    for iso, pinned in ((True, NODES_VISITED), (False, NODES_VISITED_NO_ISO)):
        nodes[0] = 0
        assert census(SearchSpec(g, iso_reduction=iso)).nodes_visited == pinned[spec]
        assert nodes[0] > 0


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_root_keeps_the_least_idempotent_conjugates(spec, monkeypatch):
    # Element 0 is an ordinary position: close rejects each row e with
    # e o e != e, since e(0) = 0, and the lex test at the root cuts each row
    # that some automorphism conjugates to a smaller one. The rows the root
    # test sees and passes are pinned in image space, from the automorphisms
    # of `groups`, sharing nothing with the conjugation tables.
    module = importlib.import_module("nearrings.census")
    g = build_group(spec)
    n = g.order
    idempotent = {e for e in endomorphisms(g) if tuple(e[v] for v in e) == e}
    least = set()
    for e in idempotent:
        for theta in endomorphisms(g, invertible_only=True):
            inv = [0] * n
            for x, v in enumerate(theta):
                inv[v] = x
            if tuple(inv[e[theta[x]]] for x in range(n)) < e:
                break
        else:
            least.add(e)
    endos, _, comp = _endo_data(g)
    lex_test, seen, passed = module._lex_test, set(), set()

    def recorded_lex_test(t, active):
        if active is not root:
            return None
        sub = lex_test(t, active)
        seen.add(endos[t[0]])
        if sub is not None:
            passed.add(endos[t[0]])
        return sub

    monkeypatch.setattr(module, "_lex_test", recorded_lex_test)
    for iso, kept in ((True, least), (False, idempotent)):
        # The root alone gets the triples object, and the search is cut
        # below it, since the unreduced Z2xZ2xZ2 search is too long for a
        # test.
        root = _root_triples(g, iso)
        seen.clear()
        passed.clear()
        _search(endos, comp, root, _Screen(endos, comp), lambda leaf: None)
        assert seen == idempotent
        assert passed == kept


def test_census_refuses_oversized_endomorphism_monoid():
    # Z2xZ2xZ4 (|End| = 1024) is the largest named group the limit admits.
    assert len(endomorphisms(build_group("Z2xZ2xZ4"))) <= MAX_ENDOMORPHISMS
    cached = endomorphisms.cache_info().currsize
    with pytest.raises(InputError, match=r"\|End\(Z2xZ2xZ2xZ2\)\| exceeds 1024"):
        census(SearchSpec(build_group("Z2xZ2xZ2xZ2")))
    # Refused from the lazy stream: End(G) was never enumerated in full.
    assert endomorphisms.cache_info().currsize == cached


def composed(endos, e, f):
    """The image vector of endos[e] o endos[f], composed entry by entry."""
    return tuple(endos[e][y] for y in endos[f])


@pytest.mark.parametrize("spec, seed", [
    ("Z2xZ2xZ2", None), ("Z4xZ4", None), ("D8", None), ("Q8", None), ("D12", None),
    ("D12", 2),
])
def test_composition_table_composes_image_vectors(spec, seed):
    # comp is composed with bytes.translate; every entry must be the index
    # of the composed image vectors, over End(G) as `groups` lists it. With
    # a seed, the group is a raw table under a seeded relabelling.
    g = build_group(spec)
    if seed is not None:
        g = relabelled(g, seed)[0]
    endos, index, comp = _endo_data(g)
    assert endos == tuple(sorted(endomorphisms(g)))
    m = len(endos)
    assert len(comp) == m and all(len(row) == m for row in comp)
    for e in range(m):
        for f in range(m):
            assert comp[e][f] == index[composed(endos, e, f)], (e, f)


def test_composition_table_of_the_largest_admitted_monoid():
    # Z2xZ2xZ4 has |End| = 1024 = MAX_ENDOMORPHISMS; its 2^20 entries are
    # checked on a seeded sample of pairs, and on every pair with the zero
    # map or the identity.
    g = build_group("Z2xZ2xZ4")
    endos, index, comp = _endo_data(g)
    m = len(endos)
    assert m == MAX_ENDOMORPHISMS
    one = index[tuple(range(g.order))]
    rng = random.Random(29)
    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(20000)]
    pairs += [(e, f) for e in range(m) for f in (0, one)]
    pairs += [(e, f) for e in (0, one) for f in range(m)]
    for e, f in pairs:
        assert comp[e][f] == index[composed(endos, e, f)], (e, f)


@pytest.mark.parametrize("spec", ["S3", "Z2xZ6"])
def test_row_law_pairs_put_the_zero_pairs_last(spec):
    # Both laws hold at every pair with a = 0 or b = 0 on a zero-symmetric
    # table, so those are tested last; every pair is still tested once.
    g = build_group(spec)
    endos, index, _ = _endo_data(g)
    n = g.order
    law = _RowLaw(endos, index, g.add)
    assert sorted(law.pairs) == [(a, b, g.add[a][b]) for a in range(n) for b in range(n)]
    tail = 2 * n - 1
    assert all(a and b for a, b, _ in law.pairs[:-tail])
    assert all(not (a and b) for a, b, _ in law.pairs[-tail:])


def test_census_refuses_groups_above_max_order():
    # The spec grammar refuses such a group, so it is built by hand.
    n = MAX_ORDER + 1
    g = FiniteGroup(n, tuple(tuple((x + y) % n for y in range(n)) for x in range(n)),
                    tuple(str(x) for x in range(n)), None, (1,))
    with pytest.raises(InputError, match=r"group order 17 exceeds 16"):
        census(SearchSpec(g))
    with pytest.raises(InputError, match=r"group order 17 exceeds 16"):
        next(candidate_stream(g))


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "Z2xZ4"])
def test_conjugation_tables_match_relabel(spec):
    g = build_group(spec)
    endos, index, _ = _endo_data(g)
    assert all(a < b for a, b in zip(endos, endos[1:]))
    tables = [c.mul for c in itertools.islice(candidate_stream(g), 50)]
    triples = _root_triples(g, True)
    # The automorphisms of `groups`, found independently of comp, after the
    # identity, which is the least bijective image vector and no triple.
    auts = endomorphisms(g, invertible_only=True)
    assert auts[0] == tuple(range(g.order))
    assert [theta for theta, _, _ in triples] == list(auts[1:])
    assert all(x == 0 for _, _, x in triples)
    for theta, conj, _ in triples:
        for t in tables:
            idx = [index[row] for row in t]
            moved = tuple(endos[conj[idx[theta[x]]]] for x in range(g.order))
            assert moved == relabel(g, t, theta)


@pytest.mark.parametrize("spec", ["Z2xZ2", "S3", "Z8", "Z12", "D8", "Q8"])
def test_representatives_are_the_orbit_minima(spec, census_of):
    # The orbit minima of the full unpruned search, by image-space
    # canonicalize, are exactly the classes the pruned search keeps, and
    # they come out strictly increasing with no sort. D8 and Q8 are
    # nonabelian and their roots have nontrivial stabilisers, so every
    # kept leaf there rests on the lex test of its complete table.
    g = build_group(spec)
    reps = list(census_of(spec).representatives)
    raw = census_of(spec, iso_reduction=False).representatives
    assert reps == sorted({canonicalize(g, t) for t in raw})
    assert all(a < b for a, b in zip(reps, reps[1:]))


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
