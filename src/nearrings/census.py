"""Exhaustive, isomorphism-reduced enumeration of nearring multiplications.

A multiplication satisfying the left distributive law is exactly a choice
of an additive endomorphism phi_x per element x (the left translation
row), and associativity is exactly the closure law
phi_(phi_x(y)) = phi_x o phi_y. The search therefore assigns endomorphism
indices to elements in index order with incremental constraint
propagation, instead of scanning all n^(n^2) raw tables. A raw n^(n^2)
oracle is kept for orders up to 3 as an independent verification path.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    FLAG_TABLE,
    CandidateMultiplication,
    PropertyFlags,
    classify_table,
    count_flags,
    validate,
)
from .checks import run_suite
from .errors import InputError
from .groups import MAX_ORDER, FiniteGroup, Table, endomorphisms

_FLAG_ATTR = {key: attr for key, attr, _ in FLAG_TABLE}

FILTER_NAMES = tuple(_FLAG_ATTR)


@dataclass(frozen=True)
class SearchSpec:
    group: FiniteGroup
    filters: tuple[str, ...] = ()
    iso_reduction: bool = True
    worker_count: int = 1

    def __post_init__(self):
        for f in self.filters:
            if f not in FILTER_NAMES:
                raise InputError(f"unknown filter {f!r}; known: {', '.join(FILTER_NAMES)}")
        if self.worker_count < 1:
            raise InputError("worker_count must be >= 1")


@dataclass
class CensusResult:
    group: FiniteGroup
    convention: str
    iso_reduction: bool
    filters: tuple[str, ...]
    counts: dict[str, int]
    representatives: tuple[Table, ...]
    rep_flags: tuple[PropertyFlags, ...]
    nodes_visited: int
    elapsed: float = 0.0
    workers: int = 1
    oracle: bool = False


@lru_cache(maxsize=None)
def _endo_data(g: FiniteGroup):
    """Endomorphism image vectors, their index map, and the composition table."""
    endos = tuple(m.images for m in endomorphisms(g))
    index = {im: i for i, im in enumerate(endos)}
    n = g.order
    comp = tuple(
        tuple(index[tuple(e[f[y]] for y in range(n))] for f in endos)
        for e in endos
    )
    return endos, comp


def _search(add, endos, comp, roots, counter):
    """DFS over endomorphism assignments with closure propagation.

    `counter[0]` accumulates the number of attempted choices; forced
    assignments made by propagation are not counted. Yields complete
    multiplication tables in deterministic DFS order.
    """
    n = len(add)
    assign: list[int | None] = [None] * n

    def close(x0: int, e0: int, trail: list[int],
              assign=assign, endos=endos, comp=comp) -> bool:
        stack = [(x0, e0)]
        pop = stack.pop
        push = stack.append
        while stack:
            y, f = pop()
            cur = assign[y]
            if cur is not None:
                if cur != f:
                    return False
                continue
            assign[y] = f
            trail.append(y)
            fimg = endos[f]
            fcomp = comp[f]
            for z, gidx in enumerate(assign):
                if gidx is None:
                    continue
                push((fimg[z], fcomp[gidx]))
                push((endos[gidx][y], comp[gidx][f]))
        return True

    def extend(pos: int):
        while pos < n and assign[pos] is not None:
            pos += 1
        if pos == n:
            yield tuple(endos[assign[x]] for x in range(n))
            return
        choices = roots if pos == 0 else range(len(endos))
        for e in choices:
            counter[0] += 1
            trail: list[int] = []
            if close(pos, e, trail):
                yield from extend(pos + 1)
            for y in trail:
                assign[y] = None

    yield from extend(0)


def candidate_stream(g: FiniteGroup):
    """All multiplications on g satisfying associativity and left
    distributivity, as a deterministic stream of candidates."""
    if g.order > MAX_ORDER:
        raise InputError(f"group order {g.order} exceeds {MAX_ORDER}")
    endos, comp = _endo_data(g)
    counter = [0]
    for table in _search(g.add, endos, comp, range(len(endos)), counter):
        yield CandidateMultiplication(g, table)


# -- canonical forms -----------------------------------------------------------

def relabel(g: FiniteGroup, mul: Table, theta) -> Table:
    """Transport a table along an additive automorphism:
    mul'[x][y] = theta^-1(mul[theta(x)][theta(y)])."""
    n = g.order
    inv = [0] * n
    for i, v in enumerate(theta):
        inv[v] = i
    return tuple(
        tuple(inv[mul[theta[x]][theta[y]]] for y in range(n)) for x in range(n)
    )


def canonicalize(g: FiniteGroup, mul: Table) -> Table:
    """Lexicographically least relabeling of the table over Aut(g).

    Idempotent, and constant exactly on isomorphism classes of nearrings
    sharing the additive group g.
    """
    auts = [m.images for m in endomorphisms(g, invertible_only=True)]
    return min(relabel(g, mul, th) for th in auts)


def _iso_representatives(g: FiniteGroup, tables) -> list[Table]:
    """Lex-least orbit representatives under Aut(g).

    Scans tables in sorted order and expands each unseen orbit once; since
    the table set is closed under relabeling, the first unseen member of
    an orbit is its minimum, so this agrees with per-table canonicalize()
    at a fraction of the cost.
    """
    auts = [m.images for m in endomorphisms(g, invertible_only=True)]
    seen: set[Table] = set()
    reps: list[Table] = []
    for t in sorted(tables):
        if t in seen:
            continue
        seen.update(relabel(g, t, th) for th in auts)
        reps.append(t)
    return reps


# -- census ---------------------------------------------------------------------

def _worker_task(args):
    add, endos, comp, roots = args
    counter = [0]
    tables = sorted(_search(add, endos, comp, roots, counter))
    return tables, counter[0]


def _enumerate_tables(g: FiniteGroup, worker_count: int):
    endos, comp = _endo_data(g)
    all_roots = list(range(len(endos)))
    if worker_count <= 1 or len(all_roots) <= 1:
        counter = [0]
        tables = sorted(_search(g.add, endos, comp, all_roots, counter))
        return tables, counter[0], 1
    buckets = [all_roots[w::worker_count] for w in range(worker_count)]
    buckets = [b for b in buckets if b]
    tasks = [(g.add, endos, comp, tuple(b)) for b in buckets]
    tables: list[Table] = []
    nodes = 0
    with ProcessPoolExecutor(max_workers=len(buckets)) as pool:
        for sub, count in pool.map(_worker_task, tasks):
            tables.extend(sub)
            nodes += count
    tables.sort()
    return tables, nodes, len(buckets)


def census(spec: SearchSpec) -> CensusResult:
    """Drain the candidate stream, reduce up to isomorphism, classify, and
    count. The result is independent of worker_count."""
    g = spec.group
    if g.order > MAX_ORDER:
        raise InputError(f"group order {g.order} exceeds {MAX_ORDER}")
    t0 = time.perf_counter()
    tables, nodes, workers = _enumerate_tables(g, spec.worker_count)
    if spec.iso_reduction:
        reps = _iso_representatives(g, tables)
    else:
        reps = list(tables)
    # The stream is associative and left distributive by construction (a
    # tested invariant), so only the flags are computed here; census_suite
    # validates every class in full.
    flags = [classify_table(g, t) for t in reps]
    if spec.filters:
        keep = [
            i for i, f in enumerate(flags)
            if all(getattr(f, _FLAG_ATTR[name]) for name in spec.filters)
        ]
        reps = [reps[i] for i in keep]
        flags = [flags[i] for i in keep]
    counts = count_flags(flags)
    return CensusResult(
        group=g,
        convention="left",
        iso_reduction=spec.iso_reduction,
        filters=tuple(spec.filters),
        counts=counts,
        representatives=tuple(reps),
        rep_flags=tuple(flags),
        nodes_visited=nodes,
        elapsed=time.perf_counter() - t0,
        workers=workers,
    )


def brute_force_oracle(g: FiniteGroup) -> CensusResult:
    """Independent census for orders up to 3 by scanning all n^(n^2) tables.

    Filters by associativity and left distributivity with direct loops,
    sharing nothing with the endomorphism-encoded search.
    """
    n = g.order
    if n > 3:
        raise InputError("the exhaustive oracle only supports orders up to 3")
    add = g.add
    rng = range(n)
    valid: list[Table] = []
    for flat in itertools.product(rng, repeat=n * n):
        mul = tuple(flat[i * n:(i + 1) * n] for i in rng)
        ok = True
        for x in rng:
            for y in rng:
                for z in rng:
                    if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                        ok = False
                        break
                    if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            valid.append(mul)
    reps = sorted({canonicalize(g, t) for t in valid})
    flags = [classify_table(g, t) for t in reps]
    return CensusResult(
        group=g,
        convention="left",
        iso_reduction=True,
        filters=(),
        counts=count_flags(flags),
        representatives=tuple(reps),
        rep_flags=tuple(flags),
        nodes_visited=n ** (n * n),
        oracle=True,
    )


def census_suite(spec: SearchSpec):
    """Validate every census representative in full and run the check
    suite on it, yielding one report per class, named "<group>[i]"."""
    result = census(spec)
    label = result.group.label()
    for i, rep in enumerate(result.representatives):
        r = validate(CandidateMultiplication(result.group, rep),
                     name=f"{label}[{i}]")
        yield run_suite(r)
