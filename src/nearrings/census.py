"""Exhaustive, isomorph-free enumeration of nearring multiplications.

A multiplication satisfying the left distributive law is exactly a choice
of an additive endomorphism phi_x per element x (the left translation
row), and associativity is exactly the closure law
phi_(phi_x(y)) = phi_x o phi_y. The search therefore assigns endomorphism
indices to elements in index order with incremental constraint
propagation, instead of scanning all n^(n^2) raw tables. The propagation
fails fast: each forced assignment is checked as soon as it is derived.

A table is a tuple of indices into the endomorphisms sorted by image
vector, so index tuples sort exactly like the tables they encode. The
census is orderly (isomorph-free generation in McKay's sense): every
automorphism theta fixes element 0, so relabeling conjugates row 0, and
the lex-least table of a class has a row 0 that is least in its
conjugacy class. Element 0 takes only those rows, and a leaf is kept
only if no automorphism fixing its row 0 relabels it to a smaller tuple,
through one conjugation table per automorphism (n lookups). No raw table
is stored, so memory grows with the classes found; only kept tables
(or, without reduction, every table) are decoded to image tables.
Groups with more than MAX_ENDOMORPHISMS endomorphisms are refused before
End(G) is enumerated in full. `relabel` and `canonicalize` work on image
tables, as an independent path, and a raw n^(n^2) oracle is kept for
orders up to 3.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    FLAG_TABLE,
    CandidateMultiplication,
    Nearring,
    PropertyFlags,
    classify_table,
    count_flags,
    find_identity,
)
from .checks import run_suite
from .errors import InputError, NearringError
from .groups import MAX_ORDER, FiniteGroup, Table, endomorphisms, iter_endomorphisms

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
    iso_reduction: bool
    filters: tuple[str, ...]
    counts: dict[str, int]
    representatives: tuple[Table, ...]
    rep_flags: tuple[PropertyFlags, ...]
    nodes_visited: int
    elapsed: float = 0.0
    workers: int = 1
    oracle: bool = False


# Largest |End(G)| whose composition table (|End|^2 entries) is built.
# Z2xZ2xZ4 has 1024; the only named group above it is Z2xZ2xZ2xZ2 with
# 65536, whose table would hold 4.3e9 entries.
MAX_ENDOMORPHISMS = 1024


@lru_cache(maxsize=None)
def _endo_data(g: FiniteGroup):
    """Endomorphism image vectors, sorted, and the composition table
    comp[e][f] = index of e o f."""
    # Count on the lazy stream first, so an oversized End(G) is refused
    # after MAX_ENDOMORPHISMS + 1 maps instead of all of them.
    extra = itertools.islice(iter_endomorphisms(g), MAX_ENDOMORPHISMS, None)
    if next(extra, None) is not None:
        raise InputError(
            f"|End({g.label()})| exceeds {MAX_ENDOMORPHISMS}: its composition "
            f"table would hold more than {MAX_ENDOMORPHISMS ** 2} entries; the "
            f"census supports |End| <= {MAX_ENDOMORPHISMS}")
    endos = endomorphisms(g)
    index = {im: i for i, im in enumerate(endos)}
    n = g.order
    comp = tuple(
        tuple(index[tuple(e[f[y]] for y in range(n))] for f in endos)
        for e in endos
    )
    return endos, comp


def _decode(endos, t) -> Table:
    """The multiplication table of an index tuple: row x is endos[t[x]]."""
    return tuple(map(endos.__getitem__, t))


def _search(add, endos, comp, roots, counter):
    """DFS over endomorphism assignments with closure propagation.

    `counter[0]` accumulates the number of attempted choices; forced
    assignments made by propagation are not counted. Yields each complete
    assignment as a tuple t of endomorphism indices (row x of the table is
    endos[t[x]]) in deterministic DFS order.
    """
    n = len(add)
    assign: list[int | None] = [None] * n
    # Assigned elements in assignment order: the propagation queue and the
    # undo trail at once.
    done: list[int] = []

    def close(x0: int, e0: int, assign=assign, done=done,
              endos=endos, comp=comp) -> bool:
        """Assign e0 to x0 and propagate phi_(phi_y(z)) = phi_y o phi_z.

        Each forced pair is checked as soon as it is derived: a free target
        is assigned and queued, a conflicting one fails at once. Elements
        already in `done` are closed among themselves, so each queued
        element is paired once with itself and every element before it.
        The fixpoint, or the existence of a conflict, does not depend on
        the order, so neither does the search tree.
        """
        assign[x0] = e0
        done.append(x0)
        i = len(done) - 1
        while i < len(done):
            y = done[i]
            i += 1
            f = assign[y]
            fimg = endos[f]
            fcomp = comp[f]
            for z in done[:i]:
                h = assign[z]
                w = fimg[z]
                v = fcomp[h]
                cur = assign[w]
                if cur is None:
                    assign[w] = v
                    done.append(w)
                elif cur != v:
                    return False
                w = endos[h][y]
                v = comp[h][f]
                cur = assign[w]
                if cur is None:
                    assign[w] = v
                    done.append(w)
                elif cur != v:
                    return False
        return True

    def extend(pos: int):
        while pos < n and assign[pos] is not None:
            pos += 1
        if pos == n:
            yield tuple(assign)
            return
        choices = roots if pos == 0 else range(len(endos))
        mark = len(done)
        for e in choices:
            counter[0] += 1
            if close(pos, e):
                yield from extend(pos + 1)
            for y in done[mark:]:
                assign[y] = None
            del done[mark:]

    yield from extend(0)


def candidate_stream(g: FiniteGroup):
    """All multiplications on g satisfying associativity and left
    distributivity, as a deterministic stream of candidates."""
    if g.order > MAX_ORDER:
        raise InputError(f"group order {g.order} exceeds {MAX_ORDER}")
    endos, comp = _endo_data(g)
    counter = [0]
    for t in _search(g.add, endos, comp, range(len(endos)), counter):
        yield CandidateMultiplication(g, _decode(endos, t))


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
    return min(relabel(g, mul, th) for th in endomorphisms(g, invertible_only=True))


def _conjugation_tables(g: FiniteGroup):
    """Per theta in Aut(g): theta and the table conj with
    endos[conj[e]] = theta^-1 o endos[e] o theta.

    Row x of relabel(g, t, theta) is theta^-1 o t[theta(x)] o theta, so on
    index tuples relabeling is t'[x] = conj[t[theta[x]]]: n lookups.
    """
    endos, _ = _endo_data(g)
    index = {im: i for i, im in enumerate(endos)}
    n = g.order
    out = []
    for theta in endomorphisms(g, invertible_only=True):
        inv = [0] * n
        for i, v in enumerate(theta):
            inv[v] = i
        conj = tuple(index[tuple(inv[e[theta[y]]] for y in range(n))]
                     for e in endos)
        out.append((theta, conj))
    return out


def _roots(g: FiniteGroup, iso_reduction: bool):
    """Element 0's admissible rows, each with its stabiliser: the
    (theta, conj) pairs of the automorphisms other than the identity that
    fix that row.

    With reduction a row is admissible when it is least in its conjugacy
    class, since relabeling conjugates row 0; without it every row is,
    with an empty stabiliser, so every leaf is kept.
    """
    endos, _ = _endo_data(g)
    if not iso_reduction:
        return {e: () for e in range(len(endos))}
    identity = tuple(range(g.order))
    conjs = [c for c in _conjugation_tables(g) if c[0] != identity]
    return {e: tuple(c for c in conjs if c[1][e] == e)
            for e in range(len(endos))
            if all(conj[e] >= e for _, conj in conjs)}


def _is_least(t, stabiliser) -> bool:
    """Whether no automorphism in the stabiliser of t[0] relabels the
    index tuple t to a smaller one; compared entry by entry, stopping at
    the first difference. Entry 0 is fixed, so the scan starts at 1."""
    n = len(t)
    for theta, conj in stabiliser:
        for x in range(1, n):
            v = conj[t[theta[x]]]
            if v != t[x]:
                if v < t[x]:
                    return False
                break
    return True


# -- census ---------------------------------------------------------------------

def _worker_task(args):
    """Search the given roots; return the kept index tuples, sorted, and
    the attempt count."""
    add, endos, comp, roots = args
    counter = [0]
    kept = sorted(t for t in _search(add, endos, comp, roots, counter)
                  if _is_least(t, roots[t[0]]))
    return kept, counter[0]


def _enumerate_classes(g: FiniteGroup, iso_reduction: bool, worker_count: int):
    """The kept index tuples, sorted, the attempt count, and the number
    of workers used."""
    endos, comp = _endo_data(g)
    roots = _roots(g, iso_reduction)
    if worker_count <= 1 or len(roots) <= 1:
        kept, nodes = _worker_task((g.add, endos, comp, roots))
        return kept, nodes, 1
    rows = list(roots)
    buckets = [rows[w::worker_count] for w in range(worker_count)]
    buckets = [b for b in buckets if b]
    tasks = [(g.add, endos, comp, {e: roots[e] for e in b}) for b in buckets]
    kept: list[tuple[int, ...]] = []
    nodes = 0
    try:
        with ProcessPoolExecutor(max_workers=len(buckets)) as pool:
            for sub, count in pool.map(_worker_task, tasks):
                kept.extend(sub)
                nodes += count
    except BrokenProcessPool as exc:
        raise NearringError(
            f"a census worker process died (pool of {len(buckets)} workers): {exc}") from exc
    kept.sort()
    return kept, nodes, len(buckets)


def census(spec: SearchSpec) -> CensusResult:
    """Enumerate the classes (or, without reduction, every table),
    classify, and count. The result is independent of worker_count."""
    g = spec.group
    if g.order > MAX_ORDER:
        raise InputError(f"group order {g.order} exceeds {MAX_ORDER}")
    t0 = time.perf_counter()
    tables, nodes, workers = _enumerate_classes(g, spec.iso_reduction,
                                                spec.worker_count)
    endos, _ = _endo_data(g)
    reps = [_decode(endos, t) for t in tables]
    # The stream is associative and left distributive by construction (a
    # tested invariant), so only the flags are computed here.
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
        iso_reduction=True,
        filters=(),
        counts=count_flags(flags),
        representatives=tuple(reps),
        rep_flags=tuple(flags),
        nodes_visited=n ** (n * n),
        oracle=True,
    )


def census_suite(spec: SearchSpec):
    """Run the check suite on every census class, yielding one report per
    class, named "<group>[i]".

    The suite runs on the classified classes as the census built them,
    with no re-validation: every row is an endomorphism (left
    distributivity), every leaf satisfies the closure law (associativity),
    and the flags come from the classify_table that validate calls.
    """
    result = census(spec)
    g = result.group
    label = g.label()
    for i, (rep, flags) in enumerate(zip(result.representatives, result.rep_flags)):
        yield run_suite(Nearring(g, rep, find_identity(g, rep), flags, f"{label}[{i}]"))
