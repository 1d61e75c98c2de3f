"""Exhaustive, isomorph-free enumeration of nearring multiplications.

A multiplication satisfying the left distributive law is exactly a choice
of an additive endomorphism phi_x per element x (the left translation
row), and associativity is exactly the closure law
phi_(phi_x(y)) = phi_x o phi_y. The search therefore assigns endomorphism
indices to elements in index order with incremental constraint
propagation, instead of scanning all n^(n^2) raw tables. The law for a
pair (x, y) reads x only through its row, so the propagation checks it
once per distinct row of the partial table, not once per element, and
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

A census with workers is a two-stage pipeline in two processes: a forked
child runs the whole search and writes its leaves down a pipe, while the
parent classifies, filters and hands on each class as it arrives. The
search is the one-process search, so its leaves come in lex order and
its attempt count is the same. A child that is ahead of the parent
blocks on its full pipe, so neither process holds more than a frame of
leaves. Where `os.fork` is missing, or fewer than two CPUs are usable,
the census runs in one process.

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
    composition table comp[e][f] = index of e o f.

    Row e of comp is composed in C: f's image vector as bytes, put through
    bytes.translate with e's image vector padded to a 256-byte table, is
    the image vector of e o f, (e o f)(y) = e[f[y]], and one dict lookup
    of those bytes gives its index. Every element of a group of order at
    most MAX_ORDER = 16 is a byte, so the padding is never read. The
    tables are transient: one row's at a time, 256 bytes each.
    """
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
    images = list(map(bytes, endos))
    find = {im: i for i, im in enumerate(images)}.__getitem__
    comp = tuple(
        tuple(map(find, map(bytes.translate, images,
                            itertools.repeat(e.ljust(256, b"\0"), len(images)))))
        for e in images
    )
    return endos, index, comp


def _decode(endos, t) -> Table:
    """The multiplication table of an index tuple: row x is endos[t[x]]."""
    return tuple(map(endos.__getitem__, t))


class _Memo(dict):
    """key -> fn(key), computed and stored on the first lookup of key, so
    every later lookup is a plain dict hit. One memo table serves the
    screen's composition masks, the row laws of the classifier and the
    encoded fragments of `catalog`."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _masks(values):
    """{c: mask of the rows e with values[e] = c}, over values in row order."""
    masks: dict[int, int] = {}
    for e, c in enumerate(values):
        masks[c] = masks.get(c, 0) | (1 << e)
    return masks


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
    extends it at each node only with the pairs (z, w) whose z was
    assigned since the parent's mask: the other half, an old z with a new
    w, barely prunes and is left to `close`. (B) reads z only through its
    row t[z], so it runs once per distinct row. Both are necessary
    conditions only: `close` fails on every row either drops and stays
    the authority on every row that passes. The masks are built on first
    use, never as |End|^2 masks up front: at[z][w] = {e : e(z) = w} per
    census, and per row h, right[h][c] = {e : e o h = c} and left[h][c]
    = {e : h o e = c}.
    """

    def __init__(self, endos, comp):
        n = len(endos[0])
        self.endos = endos
        self.at = [[0] * n for _ in range(n)]
        for e, img in enumerate(endos):
            bit = 1 << e
            for z, w in enumerate(img):
                self.at[z][w] |= bit
        self.right = _Memo(lambda h: _masks(row[h] for row in comp))
        self.left = _Memo(lambda h: _masks(comp[h]))

    def broken(self, assign, done, since):
        """The rows that (A) drops on the pairs (z, w) of assigned elements
        with z in done[since:]."""
        at, right = self.at, self.right
        bad = 0
        for z in done[since:]:
            atz = at[z]
            rz = right[assign[z]]
            for w in done:
                a = atz[w]
                if a:
                    bad |= a & ~rz.get(assign[w], 0)
        return bad

    def rows(self, assign, distinct, pos, allowed):
        """The rows of `allowed`, the carried (A) mask, that (B) keeps at
        pos, given the distinct rows of the assigned elements."""
        endos, left = self.endos, self.left
        mask = allowed
        for h in distinct:
            c = assign[endos[h][pos]]
            if c is not None:
                mask &= left[h].get(c, 0)
                if not mask:
                    break
        return mask


def _search(endos, comp, conjs, screen, emit):
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

    `close` propagates the closure law once per distinct row of the
    partial table, kept in `rows` and undone beside `done`. Each node,
    the root included, tries only the rows that pass `screen`, in
    increasing order; the screen drops only rows on which `close` fails,
    so the tree is the one an unscreened loop over every row would walk.
    `attempts` is the number of candidate rows summed over the nodes:
    len(endos) at every node, the root included, whether screened out or
    tried; forced assignments made by propagation are not counted. A leaf
    is a complete assignment, as a tuple t of endomorphism indices (row x
    of the table is endos[t[x]]), and the leaves come in DFS order, which
    is lex order: siblings first differ at the branching position, with e
    increasing.
    """
    n = len(endos[0])
    assign: list[int | None] = [None] * n
    # Assigned elements in assignment order: the propagation queue and the
    # undo trail at once.
    done: list[int] = []
    # The distinct rows of the closed elements, in first-use order, undone
    # beside `done`.
    rows: list[int] = []
    attempts = 0

    def close(x0: int, e0: int, assign=assign, done=done, rows=rows,
              endos=endos, comp=comp) -> bool:
        """Assign e0 to x0 and propagate phi_(phi_y(z)) = phi_y o phi_z.

        The law for a pair (y, z) reads y only through its row, so it is
        the constraint C(h, z): t[h(z)] = h o t[z], for h = t[y]. The
        elements before the next queued y in `done` are closed: C(h, z)
        holds for every h in `rows`, the distinct rows of the closed
        elements in first-use order, and every closed z. Closing y, with
        f = t[y], needs C(f, z) for every closed z, y included, and
        C(h, y) for every h in `rows`, f included:

        1. f is new to `rows`: the loop over done[:i] checks C(f, z) for
           every closed z, y included, and f joins `rows`. It walks
           done[:i] from the newest, so the self pair C(f, y),
           t[f(y)] = f o f, comes first: it is where most new rows fail
           (4,853 of the 6,460 that fail this loop on Z2xZ6);
        2. f is already in `rows`: C(f, z) holds for every z closed
           before y, so nothing is checked again;
        3. in either case the loop over `rows`, f included, checks
           C(h, y) for every h.

        So this is the pair loop over every closed (y, z), each in both
        orders, with one check per distinct row instead of one per
        element. Each forced pair is checked as soon as it is derived: a
        free target is assigned and queued, a conflicting one fails at
        once. The fixpoint, or the existence of a conflict, does not
        depend on the order, so neither does the search tree.
        """
        assign[x0] = e0
        done.append(x0)
        i = len(done) - 1
        while i < len(done):
            y = done[i]
            i += 1
            f = assign[y]
            if f not in rows:
                rows.append(f)
                fimg = endos[f]
                fcomp = comp[f]
                for z in done[i - 1::-1]:
                    w = fimg[z]
                    v = fcomp[assign[z]]
                    cur = assign[w]
                    if cur is None:
                        assign[w] = v
                        done.append(w)
                    elif cur != v:
                        return False
            for h in rows:
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
        """Branch at the first free position from pos on, or emit the leaf.

        `allowed` is the parent's (A) mask, every row at the root;
        done[since:] were assigned after it was computed. One bit loop
        tries the screened rows from the lowest, each taken off as
        mask & -mask.
        """
        nonlocal attempts
        while pos < n and assign[pos] is not None:
            pos += 1
        if pos == n:
            emit(tuple(assign))
            return
        allowed &= ~screen.broken(assign, done, since)
        attempts += len(endos)
        mask = screen.rows(assign, rows, pos, allowed)
        mark, rmark = len(done), len(rows)
        while mask:
            low = mask & -mask
            mask ^= low
            e = low.bit_length() - 1
            if close(pos, e):
                sub = _lex_test(assign, active)
                if sub is not None:
                    extend(pos + 1, sub, allowed, mark)
            for y in done[mark:]:
                assign[y] = None
            del done[mark:]
            del rows[rmark:]

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


def _root_triples(g: FiniteGroup, iso_reduction: bool):
    """The (theta, conj, 0) triples the lex-leader test starts from at the
    root, one per automorphism theta other than the identity, in sorted
    order, with conj the table endos[conj[e]] = theta^-1 o endos[e] o theta;
    without reduction there are none, so every leaf is kept.

    Row x of relabel(g, t, theta) is theta^-1 o t[theta(x)] o theta, so on
    index tuples relabeling is t'[x] = conj[t[theta[x]]]: n lookups. Aut(g)
    is taken as the bijective members of the sorted End(g), whose least is
    the identity; theta^-1 is the i with theta o endos[i] the identity, and
    conj is read from comp.
    """
    if not iso_reduction:
        return ()
    endos, index, comp = _endo_data(g)
    one = index[tuple(range(g.order))]
    return tuple((theta, tuple(comp[c][th] for c in comp[comp[th].index(one)]), 0)
                 for th, theta in enumerate(endos)
                 if th != one and len(set(theta)) == g.order)


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
    smaller. Most triples are still blocked at their x, so that entry is
    read first and such a triple is passed on after two lookups. A
    subtree never unassigns an entry, so the equal prefix only grows and
    each entry of a branch is compared once per automorphism.
    Every theta fixes element 0, so entry 0 compares conj[t[0]] with t[0]:
    at the root this cuts each row that some automorphism conjugates to a
    smaller row, and drops the triples outside t[0]'s stabiliser; below it
    the open triples fix t[0].
    """
    n = len(t)
    still_open = []
    for triple in active:
        theta, conj, start = triple
        if t[start] is None or t[theta[start]] is None:
            still_open.append(triple)
            continue
        for x in range(start, n):
            a = t[x]
            b = t[theta[x]]
            if a is None or b is None:
                still_open.append((theta, conj, x))
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
    attempt count and the number of processes used: 2 where worker_count,
    the CPU count and the CPUs this process may run on (its affinity mask,
    where `os.sched_getaffinity` exists) are all at least 2 and `os.fork`
    exists, and 1 otherwise.

    With 2 processes the census is a pipeline: one forked child runs the
    whole search (`_worker`) with the census data it inherits and writes
    its leaves down a pipe, while this process reads them and calls emit,
    which classifies, filters and writes each class. The leaves come from
    the one DFS, so they are in lex order and the attempt count is the
    one-process count. The child is reaped before this returns or raises,
    and killed first if it is still running; a child that ends before its
    attempt count or exits with a nonzero status fails the census.
    """
    endos, _, comp = _endo_data(g)
    search = partial(_search, endos, comp, _root_triples(g, iso_reduction),
                     _Screen(endos, comp))
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    if min(worker_count, cpus) < 2 or not hasattr(os, "fork"):
        return search(emit), 1
    died = "a census worker process died (2 workers)"
    r, w = os.pipe()
    pid = None
    with open(r, "rb") as reader:
        try:
            # The parent closes its copy of the write end at once; the
            # child never leaves the block but through os._exit.
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        signal.signal(signal.SIGTERM, signal.SIG_DFL)
                        reader.close()
                        _worker(search, out)
                        status = 0
                    finally:
                        os._exit(status)
            while type(frame := _read_frame(reader)) is list:
                for t in frame:
                    emit(t)
            status = os.waitpid(pid, 0)[1]
            # Reaped, so `finally` leaves it be.
            pid = None
            if status:
                raise NearringError(
                    f"{died}: exit status {os.waitstatus_to_exitcode(status)}")
        except EOFError as exc:
            raise NearringError(f"{died}: {exc}") from exc
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    # The last frame is the attempt count.
    return frame, 2


# Leaves per frame the forked worker writes: with the pipe's buffer, the
# most it runs ahead of the parent, and the least a census must find for
# the two processes to overlap.
_FRAME_LEAVES = 256


def _worker(search, out):
    """The forked census worker: run the whole search and write to out its
    leaves, as marshal frames of at most _FRAME_LEAVES leaves, and then its
    attempt count, flushed, since the child exits through os._exit."""
    frame = []

    def leaf(t):
        frame.append(t)
        if len(frame) == _FRAME_LEAVES:
            _write_frame(out, frame)
            frame.clear()

    count = search(leaf)
    if frame:
        _write_frame(out, frame)
    _write_frame(out, count)
    out.flush()


def _write_frame(out, obj):
    """One frame: the length of obj's marshal bytes, then the bytes."""
    data = marshal.dumps(obj)
    out.write(len(data).to_bytes(4, "little"))
    out.write(data)


def _read_frame(reader):
    """The next frame of the worker's pipe, a list of leaves or the attempt
    count; EOFError if the pipe ends first. Each frame is read whole and
    then decoded, since marshal.load on a file reads it object by object."""
    head = reader.read(4)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) < 4 or len(data) < size:
        raise EOFError("its pipe ended before its attempt count")
    return marshal.loads(data)


class _RowLaw(_Memo):
    """A law of the form "row op(a, b) is the pointwise op of rows a and
    b", decided on index tuples.

    `op` is a table on the group: op[u][v] = u+v gives right
    distributivity, (a+b)c = ac+bc, and op[u][v] = u+v+u gives
    semidistributivity, (a+b+a)c = ac+bc+ac. As a dict the law maps (e, f)
    to the index of the map x -> op[e(x)][f(x)], or -1 when that map is not
    an endomorphism; each entry is computed on first use. The order of e
    and f matters: e+f+e is not f+e+f, and e+f is not f+e on a
    nonabelian group.

    `pairs` holds every (a, b), in row-major order, except that those
    with a = 0 or b = 0 come last: on a zero-symmetric table, most of the
    census, row 0 is the zero map, so both laws here hold at every such
    pair, and a table that fails meets its first failing pair sooner among
    the others. `holds` is a conjunction over all the pairs, so the order
    changes no verdict.
    """

    def __init__(self, endos, index, op):
        super().__init__(lambda key: index.get(
            tuple(op[u][w] for u, w in zip(endos[key[0]], endos[key[1]])), -1))
        n = len(op)
        self.pairs = tuple(sorted(((a, b, op[a][b]) for a in range(n) for b in range(n)),
                                  key=lambda p: p[0] == 0 or p[1] == 0))

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
        # One shared PropertyFlags per combination of the four computed
        # flags, abelian addition being fixed per group: a census holds
        # 16 flag sets at most, not one per class.
        self.flag_sets = {key: PropertyFlags(*key, g.abelian)
                          for key in itertools.product((False, True), repeat=4)}
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
        return self.flag_sets[t[0] == 0, sd, sd and self.distributive.holds(t),
                              self.identity(t) is not None]


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

    Every leaf's flags are one of the classifier's 16 shared flag sets
    (`_IndexClassifier.flag_sets`), so the filters are decided once per
    flag set, not per leaf, and the kept flag sets are tallied by
    identity: a leaf costs an int-keyed lookup, not the generated
    PropertyFlags.__hash__. `kept` holds each of them, so no id is
    reused while the tally lives.
    """
    g = spec.group
    t0 = time.perf_counter()
    endos, index, _ = _endo_data(g)
    classifier = _IndexClassifier(g, endos, index)
    wanted = [_FLAG_ATTR[name] for name in spec.filters]
    kept = [f for f in classifier.flag_sets.values()
            if all(getattr(f, attr) for attr in wanted)]
    tally = dict.fromkeys(map(id, kept), 0)

    def leaf(t):
        f = classifier.flags(t)
        key = id(f)
        if key in tally:
            tally[key] += 1
            emit(t, f)

    nodes, workers = _enumerate_classes(g, spec.iso_reduction, spec.worker_count, leaf)
    return CensusResult(
        group=g,
        iso_reduction=spec.iso_reduction,
        filters=tuple(spec.filters),
        counts=count_flags({f: tally[id(f)] for f in kept}),
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
