"""Exhaustive, isomorph-free enumeration of nearring multiplications.

A multiplication satisfying the left distributive law is exactly a choice
of an additive endomorphism phi_x per element x (the left translation
row), and associativity is exactly the closure law
phi_(phi_x(y)) = phi_x o phi_y. The search therefore assigns endomorphism
indices to elements in index order with incremental constraint
propagation, instead of scanning all n^(n^2) raw tables. The propagation
fails fast: each forced assignment is checked as soon as it is derived.
Every node tries only the rows that pass a bitmask screen (`_Screen`):
two necessary conditions of the closure law that compare a row only with
entries assigned before the attempt, decided for all rows at once, as
the finite model finders SEM and Mace4 filter domains by propagation; at
the root nothing is assigned, so every row passes. `close` stays the
authority on every row that passes, so the search tree, and the attempt
count of one per candidate row, are those of a loop over every row.

A table is a tuple of indices into the endomorphisms sorted by image
vector, so index tuples sort exactly like the tables they encode. The
census is orderly (isomorph-free generation in the sense of Read and
Faradzev): every partial table, the root's included, is put to the
lex-leader test against the automorphisms other than the identity,
through one conjugation table per automorphism, comparing entries from
x = 0 at the root and, below it, from the first entry each automorphism
has not yet found equal. Element 0 is an ordinary position. Every
automorphism theta fixes it, so relabeling conjugates row 0: at the
root, entry 0 cuts each row that some automorphism conjugates to a
smaller one, and drops the automorphisms that move row 0, which leaves
its stabiliser; `close` has already rejected each row e with
e o e != e, since e(0) = 0. Where one already relabels the assigned
entries to something smaller, the subtree is cut, since every completion
keeps those entries; an automorphism that relabels them to something
larger is dropped for the subtree. The test also runs after the
assignment that completes a table, so every leaf has passed it complete
and is kept as it comes.

The search hands each leaf to a consumer as it is found and stores no
table. `census_classes` is the one producer every output reads: it
classifies and filters each leaf as it arrives and hands the kept class
on, so a consumer that writes each class out (`nearrings census`) holds
only the search's own state, while `census()` keeps every class as a
table and `census_suite` as 16-bit indices in one flat array.

A census with several workers splits the tree two levels deep, at the
root and at the first position it leaves free, and searches below the
surviving paths in K processes, K at most the CPU count: the parent
takes every K-th path and forks K - 1 children for the others, each
searching its share and writing the leaves down a pipe of its own. The
split and the search below a path are two conditions of the one DFS
step that also runs the whole search. The paths are in DFS order and
the parent reads them in that order, so the leaves, its own and the
children's, are in lex order with no sort, and the zero-map root, which
holds most of the search, is shared out like any other. A child that is
ahead of the parent blocks on its full pipe, so no process holds more
than a frame of leaves. Where `os.fork` is missing, the census runs in
one process.

Kept classes are classified as index tuples too: a law of the form
(a+b)c = ac+bc says row a+b is the pointwise sum of rows a and b, so
distributivity and semidistributivity take n^2 lookups of sums of
endomorphisms instead of an n^3 table scan, and zero symmetry and the
identity are read off the rows. The catalog is joined from index
tuples; only `census()` and `census_suite` decode classes to image
tables, and only those that pass the filters. `core.classify_table`
stays the image-space path and the independent reference.

Groups with more than MAX_ENDOMORPHISMS endomorphisms are refused before
End(G) is enumerated in full. `relabel` and `canonicalize` work on image
tables, as an independent path. `brute_force_oracle` is a second,
independent enumerator for every group of order up to 7: it scans all
n-tuples of the additive endomorphisms it finds with direct loops and
reduces each associative table over the automorphisms by `relabel`.
"""

from __future__ import annotations

import itertools
import marshal
import os
import signal
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, partial

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
    """A census's counts and search data and, from `census()`, its classes
    as tables. A streamed census (`census_classes`) hands its classes to a
    consumer instead, and its representatives and rep_flags are empty."""

    group: FiniteGroup
    iso_reduction: bool
    filters: tuple[str, ...]
    counts: dict[str, int]
    representatives: tuple[Table, ...]
    rep_flags: tuple[PropertyFlags, ...]
    nodes_visited: int
    elapsed: float = 0.0
    workers: int = 1


# Largest |End(G)| whose composition table (|End|^2 entries) is built.
# Z2xZ2xZ4 has 1024; the only named group above it is Z2xZ2xZ2xZ2 with
# 65536, whose table would hold 4.3e9 entries.
MAX_ENDOMORPHISMS = 1024


@lru_cache(maxsize=None)
def _endo_data(g: FiniteGroup):
    """Endomorphism image vectors, sorted, their index {image: i} and the
    composition table comp[e][f] = index of e o f."""
    if g.order > MAX_ORDER:
        raise InputError(f"group order {g.order} exceeds {MAX_ORDER}")
    # One pass over the lazy stream, so an oversized End(G) is refused
    # after MAX_ENDOMORPHISMS + 1 maps instead of all of them.
    endos = tuple(sorted(itertools.islice(iter_endomorphisms(g), MAX_ENDOMORPHISMS + 1)))
    if len(endos) > MAX_ENDOMORPHISMS:
        raise InputError(
            f"|End({g.label()})| exceeds {MAX_ENDOMORPHISMS}: its composition "
            f"table would hold more than {MAX_ENDOMORPHISMS ** 2} entries; the "
            f"census supports |End| <= {MAX_ENDOMORPHISMS}")
    index = {im: i for i, im in enumerate(endos)}
    n = g.order
    comp = tuple(
        tuple(index[tuple(e[f[y]] for y in range(n))] for f in endos)
        for e in endos
    )
    return endos, index, comp


def _decode(endos, t) -> Table:
    """The multiplication table of an index tuple: row x is endos[t[x]]."""
    return tuple(map(endos.__getitem__, t))


class _Screen:
    """Bitmask pre-screen of a DFS node's candidate rows.

    A mask is a Python int over endomorphism indices, bit e for row e.
    `broken` and `rows` apply two necessary conditions of the closure law
    phi_(phi_y(z)) = phi_y o phi_z for a row e tried at a free position
    pos, each comparing e only with entries assigned before the attempt:

    (A) for assigned z and w with e(z) = w, e o t[z] = t[w] (y = pos);
    (B) for assigned z and w = t[z](pos), t[z] o e = t[w] (z and y = pos
        swapped).

    (A) does not depend on pos, so the DFS carries its mask down and
    extends it only with the pairs that touch newly assigned elements.
    `close` fails on every row either condition drops and stays the
    authority on every row that passes. The masks are built on first use,
    never as |End|^2 masks up front: at[z][w] = {e : e(z) = w} per census,
    and per row h, right[h][c] = {e : e o h = c} and left[h][c] =
    {e : h o e = c}.
    """

    def __init__(self, endos, comp):
        n = len(endos[0])
        self.endos = endos
        self.at = [[0] * n for _ in range(n)]
        for e, img in enumerate(endos):
            bit = 1 << e
            for z, w in enumerate(img):
                self.at[z][w] |= bit
        self.right = _CompositionMasks(lambda h: (row[h] for row in comp))
        self.left = _CompositionMasks(comp.__getitem__)

    def broken(self, assign, done, since):
        """The rows that (A) drops on the pairs (z, w) of assigned
        elements with z or w in done[since:]."""
        at, right = self.at, self.right
        new = done[since:]
        bad = 0
        for i, z in enumerate(done):
            atz = at[z]
            rz = right[assign[z]]
            for w in (done if i >= since else new):
                a = atz[w]
                if a:
                    bad |= a & ~rz.get(assign[w], 0)
        return bad

    def rows(self, assign, done, pos, allowed):
        """The rows of `allowed`, the carried (A) mask, that (B) keeps
        at pos."""
        endos, left = self.endos, self.left
        mask = allowed
        for z in done:
            h = assign[z]
            c = assign[endos[h][pos]]
            if c is not None:
                mask &= left[h].get(c, 0)
                if not mask:
                    break
        return mask


class _CompositionMasks(dict):
    """Row h -> {c: mask of the rows e whose composite with h is c}, where
    values(h) lists the composite index for each e in order; each entry
    is computed on first use."""

    def __init__(self, values):
        super().__init__()
        self.values = values

    def __missing__(self, h):
        masks: dict[int, int] = {}
        for e, c in enumerate(self.values(h)):
            masks[c] = masks.get(c, 0) | (1 << e)
        self[h] = masks
        return masks


def _bits(mask):
    """The set bits of mask, from low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(endos, comp, conjs, screen, emit, path=(), split=False):
    """DFS over endomorphism assignments with closure propagation and
    partial lex-leader pruning: calls emit(leaf) on each leaf as it is
    found and returns the attempt count.

    After every successful assignment, the root's and the one that
    completes the table included, `_lex_test` checks the partial table
    against the (theta, conj, x) triples still open on this branch,
    starting from `conjs` at the root: a subtree is cut where one relabels
    the assigned entries to something smaller, and a triple decided larger
    is not passed down. So every leaf has passed the test complete and is
    least under every automorphism. With no triples nothing is cut and the
    search is the full one.

    Each node, the root included, tries only the rows that pass `screen`,
    in increasing order; the screen drops only rows on which `close`
    fails, so the tree is the one an unscreened loop over every row would
    walk. `attempts` is the number of candidate rows summed over the
    nodes: len(endos) at every node, the root included, whether screened
    out or tried; forced assignments made by propagation are not
    counted. A leaf is a complete assignment, as a tuple t of
    endomorphism indices (row x of the table is endos[t[x]]), and the
    leaves come in DFS order, which is lex order: siblings first differ
    at the branching position, with e increasing.

    The same step cuts the tree two levels deep and searches it in parts.
    With `split`, a branch is not searched below depth 2: its leaf is the
    rows chosen on it, as (root row, row at the first position the root
    leaves free), or (root row,) where the root's propagation completes
    the table, and `attempts` counts those two levels. With a `path`, the
    node at each depth the path covers tries only the path's row and
    counts no attempt, so the search runs only below it. Searching below each path in turn gives the
    whole search's leaves in order, and its attempts with the split's.
    """
    n = len(endos[0])
    assign: list[int | None] = [None] * n
    # Assigned elements in assignment order: the propagation queue and the
    # undo trail at once.
    done: list[int] = []
    # The rows chosen on the current branch, root first.
    branch: list[int] = []
    attempts = 0

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

    def extend(pos: int, active, allowed: int, since: int):
        # `allowed` is the parent's (A) mask, every row at the root;
        # done[since:] were assigned after it was computed. Along `path`
        # the one choice is the path's row, uncounted; with `split` the
        # search stops at depth 2.
        nonlocal attempts
        while pos < n and assign[pos] is not None:
            pos += 1
        depth = len(branch)
        if pos == n or split and depth == 2:
            emit(tuple(branch) if split else tuple(assign))
            return
        allowed &= ~screen.broken(assign, done, since)
        if depth < len(path):
            choices = (path[depth],)
        else:
            attempts += len(endos)
            choices = _bits(screen.rows(assign, done, pos, allowed))
        mark = len(done)
        for e in choices:
            if close(pos, e):
                sub = _lex_test(assign, active)
                if sub is not None:
                    branch.append(e)
                    extend(pos + 1, sub, allowed, mark)
                    branch.pop()
            for y in done[mark:]:
                assign[y] = None
            del done[mark:]

    extend(0, conjs, (1 << len(endos)) - 1, 0)
    return attempts


def candidate_stream(g: FiniteGroup):
    """All multiplications on g satisfying associativity and left
    distributivity, as a deterministic stream of candidates. The search
    runs in full on the first item; only the decoding is lazy."""
    tables = []
    _enumerate_classes(g, False, 1, tables.append)
    endos = _endo_data(g)[0]
    for t in tables:
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
    """Per theta in Aut(g), in sorted order: theta and the table conj with
    endos[conj[e]] = theta^-1 o endos[e] o theta.

    Row x of relabel(g, t, theta) is theta^-1 o t[theta(x)] o theta, so on
    index tuples relabeling is t'[x] = conj[t[theta[x]]]: n lookups. Aut(g)
    is taken as the bijective members of the sorted End(g); theta^-1 is
    the i with theta o endos[i] the identity, and conj is read from comp.
    """
    endos, index, comp = _endo_data(g)
    one = index[tuple(range(g.order))]
    out = []
    for th, theta in enumerate(endos):
        if len(set(theta)) == g.order:
            inv = comp[comp[th].index(one)]
            out.append((theta, tuple(comp[c][th] for c in inv)))
    return out


def _root_triples(g: FiniteGroup, iso_reduction: bool):
    """The (theta, conj, 0) triples the lex-leader test starts from at the
    root, one per automorphism other than the identity; without reduction
    there are none, so every leaf is kept."""
    if not iso_reduction:
        return ()
    identity = tuple(range(g.order))
    return tuple((theta, conj, 0) for theta, conj in _conjugation_tables(g)
                 if theta != identity)


def _lex_test(t, active):
    """The lex-leader test of a partial index tuple t (None marks an
    unassigned entry) against (theta, conj, x) triples.

    Each relabeling t'[y] = conj[t[theta[y]]] equals t on every y < x, and
    is compared with t entry by entry from y = x, up to the first y where
    t[y] or t[theta[y]] is unassigned. Returns None if some t' is already
    smaller at its first difference: every completion keeps the compared
    entries, so none is least. Otherwise returns the triples still open,
    each with x moved to that first unassigned y, dropping those already
    larger, or equal on a complete t, since no completion can make them
    smaller. A subtree never unassigns an entry, so the equal prefix only
    grows and each entry of a branch is compared once per automorphism.
    Every theta fixes element 0, so entry 0 compares conj[t[0]] with t[0]:
    at the root this cuts each row that some automorphism conjugates to a
    smaller row, and drops the triples outside t[0]'s stabiliser; below it
    the open triples fix t[0].
    """
    n = len(t)
    still_open = []
    for triple in active:
        theta, conj, start = triple
        for x in range(start, n):
            a = t[x]
            b = t[theta[x]]
            if a is None or b is None:
                still_open.append(triple if x == start else (theta, conj, x))
                break
            v = conj[b]
            if v != a:
                if v < a:
                    return None
                break
    return still_open


# -- census ---------------------------------------------------------------------

def _enumerate_classes(g: FiniteGroup, iso_reduction: bool, worker_count: int, emit):
    """Call emit on each kept index tuple, in lex order, and return the
    attempt count and the number of processes used: at most worker_count,
    the CPU count and the number of paths, and 1 where `os.fork` is missing.

    With K > 1 processes the tree is split two levels deep, so the
    zero-map root, which holds most of the search, is shared out too. The
    parent searches path i itself when i % K == 0, and forks K - 1
    children, child k searching paths[k::K] with the census data it
    inherits. The parent walks the paths in order, searching its own and
    reading each child's frames (`_worker`) for the others, so the leaves
    come in the DFS order of the whole search, which is lex order. Every
    child is reaped before this returns or raises, and any still running
    is killed first; a child that ends early or exits with a nonzero
    status fails the census.
    """
    endos, _, comp = _endo_data(g)
    search = partial(_search, endos, comp, _root_triples(g, iso_reduction),
                     _Screen(endos, comp))
    workers = min(worker_count, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    paths, nodes = [], 0
    if workers > 1:
        nodes = search(paths.append, split=True)
    workers = min(workers, len(paths))
    if workers <= 1:
        return search(emit), 1
    died = f"a census worker process died ({workers} workers)"
    pids, readers = [], []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            # The parent closes its copy of the write end at once; the
            # child never leaves the block but through os._exit.
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        signal.signal(signal.SIGTERM, signal.SIG_DFL)
                        for reader in readers:
                            reader.close()
                        _worker(search, paths[k::workers], out)
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        for i, path in enumerate(paths):
            if i % workers == 0:
                nodes += search(emit, path=path)
                continue
            reader = readers[i % workers - 1]
            while type(frame := _read_frame(reader)) is list:
                for t in frame:
                    emit(t)
            nodes += frame
        while pids:
            # Popped once reaped, so that `finally` reaps the rest.
            status = os.waitpid(pids[-1], 0)[1]
            pids.pop()
            if status:
                raise NearringError(
                    f"{died}: exit status {os.waitstatus_to_exitcode(status)}")
    except EOFError as exc:
        raise NearringError(f"{died}: {exc}") from exc
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
    return nodes, workers


# Leaves per frame a forked worker writes: with the pipe's buffer, the
# most it runs ahead of the parent.
_FRAME_LEAVES = 4096


def _worker(search, paths, out):
    """A forked census worker: search below each path in turn and write to
    out its leaves, as marshal frames of at most _FRAME_LEAVES leaves, and
    then the path's attempt count, flushed so the parent can read on."""
    frame = []

    def leaf(t):
        frame.append(t)
        if len(frame) == _FRAME_LEAVES:
            _write_frame(out, frame)
            frame.clear()

    for path in paths:
        count = search(leaf, path=path)
        if frame:
            _write_frame(out, frame)
            frame.clear()
        _write_frame(out, count)
        out.flush()


def _write_frame(out, obj):
    """One frame: the length of obj's marshal bytes, then the bytes."""
    data = marshal.dumps(obj)
    out.write(len(data).to_bytes(4, "little"))
    out.write(data)


def _read_frame(reader):
    """The next frame of a worker's pipe, a list of leaves or an attempt
    count; EOFError if the pipe ends first. Each frame is read whole and
    then decoded, since marshal.load on a file reads it object by object."""
    head = reader.read(4)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) < 4 or len(data) < size:
        raise EOFError("its pipe ended before its last path")
    return marshal.loads(data)


class _RowLaw(dict):
    """A law of the form "row op(a, b) is the pointwise op of rows a and
    b", decided on index tuples.

    `op` is a table on the group: op[u][v] = u+v gives right
    distributivity, (a+b)c = ac+bc, and op[u][v] = u+v+u gives
    semidistributivity, (a+b+a)c = ac+bc+ac. As a dict the law maps (e, f)
    to the index of the map x -> op[e(x)][f(x)], or -1 when that map is not
    an endomorphism; each entry is computed on first use. The order of e
    and f matters: e+f+e is not f+e+f, and e+f is not f+e on a
    nonabelian group.
    """

    def __init__(self, endos, index, op):
        super().__init__()
        n = len(op)
        self.endos, self.index, self.op = endos, index, op
        self.pairs = tuple((a, b, op[a][b]) for a in range(n) for b in range(n))

    def __missing__(self, key):
        e, f = key
        op = self.op
        v = self.index.get(
            tuple(op[u][w] for u, w in zip(self.endos[e], self.endos[f])), -1)
        self[key] = v
        return v

    def holds(self, t) -> bool:
        """Whether row t[op(a, b)] is the pointwise op of rows t[a] and
        t[b] for all a, b: n^2 lookups instead of an n^3 table scan."""
        for a, b, ab in self.pairs:
            if t[ab] != self[t[a], t[b]]:
                return False
        return True


class _IndexClassifier:
    """The property flags and identity of index tuples over one group's
    sorted endomorphisms, equal to classify_table and find_identity on the
    decoded table. Built per census: its sum tables grow with the rows the
    census meets, never to |End|^2 up front.
    """

    def __init__(self, g: FiniteGroup, endos, index):
        n, add = g.order, g.add
        self.abelian = g.abelian
        self.one = index[tuple(range(n))]
        self.distributive = _RowLaw(endos, index, add)
        self.semidistributive = _RowLaw(endos, index, tuple(
            tuple(add[add[u][v]][u] for v in range(n)) for u in range(n)))

    def identity(self, t) -> int | None:
        """The u whose row is the identity map and with x*u = x for all x.

        x*u = x for all x makes x -> x*u injective, so no identity exists
        unless the rows t[x] are pairwise distinct. When they are, the u
        whose row t[u] is the identity map is the identity: u*y = y gives
        (x*u)*y = x*(u*y) = x*y by associativity, which every census leaf
        has, so x*u and x have the same row and are equal.
        """
        if self.one not in t or len(set(t)) < len(t):
            return None
        return t.index(self.one)

    def flags(self, t) -> PropertyFlags:
        # Right distributivity implies semidistributivity, so only a
        # semidistributive tuple needs the second test. The zero map is
        # the least image vector, so x*y = 0 for all y iff t[x] == 0.
        sd = self.semidistributive.holds(t)
        return _flag_set(t[0] == 0, sd, sd and self.distributive.holds(t),
                         self.identity(t) is not None, self.abelian)


@lru_cache(maxsize=None)
def _flag_set(*values) -> PropertyFlags:
    """One shared PropertyFlags per combination of values, in field order;
    a census holds a handful of distinct flag sets, not one per class."""
    return PropertyFlags(*values)


def census_classes(spec: SearchSpec, emit) -> CensusResult:
    """The census producer: call emit(t, flags) on each class that passes
    the filters, as it is found and in lex order, and return the census's
    counts and search data, with no representatives.

    t is an index tuple over `census_rows(spec.group)`, and flags its
    PropertyFlags. Classes are classified and filtered as index tuples
    (`_IndexClassifier`); the leaves are associative and left
    distributive by construction (a tested invariant), so only the flags
    are computed. The classes and the counts are independent of
    worker_count.
    """
    g = spec.group
    t0 = time.perf_counter()
    endos, index, _ = _endo_data(g)
    classifier = _IndexClassifier(g, endos, index)
    wanted = [_FLAG_ATTR[name] for name in spec.filters]
    # Census flag sets are shared objects (`_flag_set`), so the tally has
    # a handful of keys.
    tally: Counter = Counter()

    def leaf(t):
        f = classifier.flags(t)
        if all(getattr(f, attr) for attr in wanted):
            tally[f] += 1
            emit(t, f)

    nodes, workers = _enumerate_classes(g, spec.iso_reduction, spec.worker_count, leaf)
    return CensusResult(
        group=g,
        iso_reduction=spec.iso_reduction,
        filters=tuple(spec.filters),
        counts=count_flags(tally),
        representatives=(),
        rep_flags=(),
        nodes_visited=nodes,
        elapsed=time.perf_counter() - t0,
        workers=workers,
    )


def census_rows(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The endomorphism image vectors, sorted, that the index tuples of
    `census_classes` index: row x of the table of t is census_rows(g)[t[x]]."""
    return _endo_data(g)[0]


def census(spec: SearchSpec) -> CensusResult:
    """Enumerate the classes (or, without reduction, every table),
    classify, filter and count. The result is independent of worker_count.

    Each kept class is decoded to its table as it arrives, so the index
    tuples are not held beside the tables; `elapsed` covers the decoding.
    """
    t0 = time.perf_counter()
    endos = census_rows(spec.group)
    reps, flags = [], []

    def keep(t, f):
        reps.append(_decode(endos, t))
        flags.append(f)

    result = census_classes(spec, keep)
    return replace(result, representatives=tuple(reps), rep_flags=tuple(flags),
                   elapsed=time.perf_counter() - t0)


# Largest order the oracle scans. Every group of order <= 7 has at most
# 10^6 row tuples: S3 has 10^6 and Z7 has 7^7.
ORACLE_MAX_ORDER = 7


def brute_force_oracle(g: FiniteGroup) -> CensusResult:
    """Independent census for orders up to ORACLE_MAX_ORDER over row tuples.

    A table is left distributive exactly when each row x -> x*y is an
    additive endomorphism, so the oracle finds the endomorphisms among all
    n^n maps with a direct homomorphism loop, takes every n-tuple of them
    as a table and keeps the associative ones with a direct
    (xy)z = x(yz) loop. Each class is the least relabeling over the
    bijective maps the same scan found. It shares no code with the
    search, nor with the endomorphism generator in `groups`.
    """
    n = g.order
    if n > ORACLE_MAX_ORDER:
        raise InputError(f"the exhaustive oracle only supports orders up to {ORACLE_MAX_ORDER}")
    add = g.add
    rng = range(n)
    endos = [f for f in itertools.product(rng, repeat=n)
             if all(f[add[x][y]] == add[f[x]][f[y]] for x in rng for y in rng)]
    auts = [f for f in endos if len(set(f)) == n]
    reps = sorted({min(relabel(g, mul, th) for th in auts)
                   for mul in itertools.product(endos, repeat=n)
                   if all(mul[mul[x][y]][z] == mul[x][mul[y][z]]
                          for x in rng for y in rng for z in rng)})
    flags = [classify_table(g, t) for t in reps]
    return CensusResult(
        group=g,
        iso_reduction=True,
        filters=(),
        counts=count_flags(flags),
        representatives=tuple(reps),
        rep_flags=tuple(flags),
        nodes_visited=len(endos) ** n,
    )


def census_suite(spec: SearchSpec):
    """Run the check suite on every census class, yielding one report per
    class, named "<group>[i]".

    The census keeps the index tuples of all classes in one flat array
    of 16-bit entries, n per class (an index is below MAX_ENDOMORPHISMS),
    beside their flags, and a class is sliced out and decoded only when
    its report is built. The suite runs on the classified classes with
    no re-validation: every row is an endomorphism (left
    distributivity), every leaf satisfies the closure law
    (associativity), and the flags equal the classify_table that
    validate calls (a tested invariant). The identity is looked up only
    where the flags have one.
    """
    # Imported here: `array` is a shared library, and a census that runs
    # no suite need not load it.
    from array import array
    kept, flags = array("H"), []

    def keep(t, f):
        kept.extend(t)
        flags.append(f)

    census_classes(spec, keep)
    g = spec.group
    n, label = g.order, g.label()
    endos = census_rows(g)
    for i, f in enumerate(flags):
        rep = _decode(endos, kept[i * n:(i + 1) * n])
        identity = find_identity(g, rep) if f.has_identity else None
        yield run_suite(Nearring(g, rep, identity, f, f"{label}[{i}]"))
