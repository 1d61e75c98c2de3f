"""Finite groups as explicit Cayley tables, with element 0 the neutral element.

All tables are index-based; names are display-only. The supported spec
grammar is "Z<n>", "Z<a>xZ<b>[xZ<c>...]", "D<m>" (dihedral of order m, m
even), "Q8", "S3", or a raw ``{"order": n, "add": [[...]]}`` table. Orders
are capped at MAX_ORDER so full triple scans stay trivial.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm

from .errors import AxiomViolation, InputError, PreconditionError

MAX_ORDER = 16

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on elements 0..order-1, held as its addition table:
    add[x][y] is the sum x+y. The order, the inverses and the generating
    set are read off the table, so none can disagree with it; names and
    spec are display-only."""

    add: Table
    names: tuple[str, ...]
    spec: str | None = None

    @cached_property
    def order(self) -> int:
        return len(self.add)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The generators that `is_homomorphism` and `iter_endomorphisms`
        use: `_greedy_generators` of the table, one rule for named and raw
        groups alike."""
        return _greedy_generators(self.add)

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse of each element: where its row holds 0."""
        return tuple(row.index(0) for row in self.add)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Additive order of each element: the size of the cyclic subgroup
        it generates."""
        return tuple(len(_closure(self.add, (x,))) for x in range(self.order))

    @cached_property
    def translations(self) -> tuple[bytes, ...]:
        """Column s of the addition table as a bytes.translate table:
        translations[s][x] = x + s for every element x, padded to 256
        bytes. Every element of a group of order at most MAX_ORDER is a
        byte."""
        return tuple(bytes(row[s] for row in self.add).ljust(256, b"\0")
                     for s in range(self.order))

    @cached_property
    def abelian(self) -> bool:
        a = self.add
        return all(a[x][y] == a[y][x] for x in range(self.order) for y in range(self.order))

    def label(self) -> str:
        return self.spec if self.spec is not None else f"raw[{self.order}]"


def is_homomorphism(source: FiniteGroup, target: FiniteGroup, images: tuple[int, ...]) -> bool:
    """Whether images[x+y] = images[x] + images[y] for all x, y, tested
    along the edges x -> x + s of the generators s of source.

    images[0] = 0 and images[x + s] = images[x] + images[s] for every x
    and every generator s decide it: by induction on the number of
    generator summands of y, images[x + y] = images[x] + images[y], as in
    `_walk`. Each generator costs one column of images against one
    column of sums, both composed in C by bytes.translate: the source's
    column x -> x + s put through images, and images put through the
    target's column v -> v + images[s] (`FiniteGroup.translations`). The
    images are elements of target.
    """
    if images[0] != 0:
        return False
    n = source.order
    data = bytes(images)
    table = data.ljust(256, b"\0")
    columns, sums = source.translations, target.translations
    for s in source.generators:
        if columns[s][:n].translate(table) != data.translate(sums[images[s]]):
            return False
    return True


# -- construction ------------------------------------------------------------

def _validate_table(add: Table) -> None:
    """Check the full group axioms, raising AxiomViolation with a witness."""
    n = len(add)
    full = set(range(n))
    for x in range(n):
        if len(add[x]) != n:
            raise InputError(f"row {x} has length {len(add[x])}, expected {n}")
        for y in range(n):
            v = add[x][y]
            if not (0 <= v < n):
                raise InputError(f"entry add[{x}][{y}]={v} out of range 0..{n - 1}")
    for x in range(n):
        if set(add[x]) != full:
            raise AxiomViolation("latin-square", (x,), f"row {x} is not a permutation")
        if {add[y][x] for y in range(n)} != full:
            raise AxiomViolation("latin-square", (x,), f"column {x} is not a permutation")
    for x in range(n):
        if add[0][x] != x or add[x][0] != x:
            raise AxiomViolation("identity", (x,), "element 0 is not neutral")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    raise AxiomViolation("associativity", (x, y, z))
    # No scan for inverses: each row is a permutation of 0..n-1, so holds 0.


def _walk(add: Table, gens, images) -> dict[int, int] | None:
    """The map f with f(0) = 0 and f(x + s) = f(x) + u for each generator s
    of gens and its image u in images, as a dict over the elements that
    gens reach; None as soon as two paths reach one element with
    different images.

    The walk goes breadth-first from 0 along the edges x -> x + s. Once it
    ends, every edge (x, s) has been checked, so f(x + s) = f(x) + f(s) for
    each element x reached and each generator s, the edge (0, s) giving
    f(s) = u. In a finite group every element of the subgroup that gens
    generate is a sum of generators, and by induction on the number of
    summands of y, f(x + y) = f(x) + f(y): a completed walk is a
    homomorphism from that subgroup, with nothing left to scan.
    `iter_endomorphisms` walks a group's generators
    (`FiniteGroup.generators`), which reach every element; `_closure`
    walks any seed.
    """
    f = {0: 0}
    pairs = tuple(zip(gens, images))
    frontier = [0]
    for x in frontier:
        row, image_row = add[x], add[f[x]]
        for s, u in pairs:
            y, v = row[s], image_row[u]
            if y not in f:
                f[y] = v
                frontier.append(y)
            elif f[y] != v:
                return None
    return f


def _closure(add: Table, seed) -> frozenset[int]:
    """The subgroup generated by seed: the elements a walk with seed as both
    its generators and their images reaches (inverses follow at finite
    order)."""
    seed = tuple(seed)
    return frozenset(_walk(add, seed, seed))


def _greedy_generators(add: Table) -> tuple[int, ...]:
    """A generating set read off the table: repeatedly the least element
    outside the subgroup generated so far, until that subgroup is the whole
    group. Empty for the trivial group; no generator is redundant when it
    is added, though a later one may make an earlier one so."""
    n = len(add)
    gens: list[int] = []
    covered = _closure(add, frozenset())
    while len(covered) < n:
        x = min(set(range(n)) - covered)
        gens.append(x)
        covered = _closure(add, covered | {x})
    return tuple(gens)


def _product(factors: list[int], spec: str) -> FiniteGroup:
    """Z<a>xZ<b>x...: lexicographic tuples named "(a,b,...)", and a single
    factor's residues named 0..n-1."""
    tuples = list(itertools.product(*(range(f) for f in factors)))
    index = {t: i for i, t in enumerate(tuples)}
    add = tuple(
        tuple(index[tuple((a + b) % f for a, b, f in zip(s, t, factors))] for t in tuples)
        for s in tuples
    )
    names = tuple(str(t[0]) if len(t) == 1 else "(" + ",".join(map(str, t)) + ")"
                  for t in tuples)
    return FiniteGroup(add, names, spec)


def _dihedral(m: int, spec: str) -> FiniteGroup:
    """Dihedral group of order m = 2k: indices 0..k-1 are j*a, k..m-1 are j*a+b.

    Written additively: a has order k, b has order 2, and b+a+b = -a. The
    names are 0, a, 2a, ..., b, a+b, 2a+b, ...; for S3 = D6 that is the
    documented ordering.
    """
    k = m // 2

    def enc(j: int, r: int) -> int:
        return j % k + (k if r else 0)

    def plus(x: int, y: int) -> int:
        j1, r1 = x % k, x // k
        j2, r2 = y % k, y // k
        if r1 == 0:
            return enc(j1 + j2, r2)
        return enc(j1 - j2, 1 - r2)

    add = tuple(tuple(plus(x, y) for y in range(m)) for x in range(m))
    rot = ["0"] + [f"{j}a" if j > 1 else "a" for j in range(1, k)]
    ref = ["b"] + [f"{j}a+b" if j > 1 else "a+b" for j in range(1, k)]
    return FiniteGroup(add, tuple(rot + ref), spec)


def _quaternion() -> FiniteGroup:
    # Element 2u+s is (-1)^s u over the units (1, i, j, k); T[u][v] is the
    # element u*v, so signs multiply by xor on the low bit.
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    T = ((0, 2, 4, 6), (2, 1, 6, 5), (4, 7, 1, 2), (6, 4, 3, 1))
    add = tuple(tuple(T[x >> 1][y >> 1] ^ (x & 1) ^ (y & 1) for y in range(8))
                for x in range(8))
    return FiniteGroup(add, names, "Q8")


_SPEC_RE = re.compile(r"^(Z\d+(?:xZ\d+)*|D\d+|Q8|S3)$")


def build_group(spec) -> FiniteGroup:
    """Build a group from a spec string or a raw {"order", "add"} table.

    Named specs come with a documented fixed element ordering: cyclic groups
    list residues 0..n-1, products list lexicographic tuples, S3 uses the
    ordering 0, a, 2a, b, a+b, 2a+b.
    """
    if isinstance(spec, dict):
        return build_raw_group(spec)
    if not isinstance(spec, str):
        raise InputError(f"group spec must be a string or table object, got {type(spec).__name__}")
    s = spec.strip()
    if not _SPEC_RE.match(s):
        raise InputError(f"unknown group spec {spec!r}")
    if s == "S3":
        return _dihedral(6, "S3")  # a of order 3, b of order 2
    if s == "Q8":
        return _quaternion()
    if s.startswith("D"):
        m = int(s[1:])
        if m < 2 or m % 2 != 0:
            raise InputError(f"dihedral spec {spec!r} needs an even order >= 2")
        if m > MAX_ORDER:
            raise InputError(f"order {m} exceeds the maximum supported order {MAX_ORDER}")
        return _dihedral(m, s)
    factors = [int(p[1:]) for p in s.split("x")]
    if any(f < 1 for f in factors):
        raise InputError(f"cyclic factors must be positive in {spec!r}")
    order = 1
    for f in factors:
        order *= f
    if order > MAX_ORDER:
        raise InputError(f"order {order} exceeds the maximum supported order {MAX_ORDER}")
    if len(factors) == 1:
        s = f"Z{factors[0]}"  # a cyclic group is labelled by its order ("Z04" is Z4)
    return _product(factors, s)


def parse_int_table(rows, field: str) -> Table:
    """A table from outside input, which must be a list of lists of
    integers; strings, floats and booleans are refused, not coerced."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f'"{field}" must be a list of rows')
    if not all(type(v) is int for row in rows for v in row):
        raise InputError(f'"{field}" entries must be integers')
    return tuple(tuple(row) for row in rows)


def build_raw_group(obj: dict) -> FiniteGroup:
    """Build and fully validate a group from an explicit table object."""
    if "order" not in obj or "add" not in obj:
        raise InputError('raw group object needs "order" and "add" fields')
    n = obj["order"]
    if type(n) is not int or n < 1 or n > MAX_ORDER:
        raise InputError(f"order must be an integer in 1..{MAX_ORDER}, got {n!r}")
    add = parse_int_table(obj["add"], "add")
    if len(add) != n:
        raise InputError(f'"add" must be a list of {n} rows')
    _validate_table(add)
    return FiniteGroup(add, tuple(str(x) for x in range(n)))


# -- spec operations ---------------------------------------------------------

def exponent(g: FiniteGroup) -> int:
    return lcm(*g.orders)


def times(g: FiniteGroup, x: int, n: int) -> int:
    """The n-fold sum x + x + ... + x (n taken modulo the order of x)."""
    acc = 0
    for _ in range(n % g.orders[x]):
        acc = g.add[acc][x]
    return acc


def iter_endomorphisms(g: FiniteGroup):
    """Every additive endomorphism of g as an image vector, generated lazily
    and unsorted, so a caller can stop after as many as it will accept.

    Each tuple of images for the generators read off the table
    (`FiniteGroup.generators`), each image of an order dividing its
    generator's, is walked (`_walk`), and every walk that ends without a
    conflict is a homomorphism, so the work is bounded by
    |G|^(#generators) walks instead of the |G|^|G| raw function space.
    Distinct generator images give distinct maps, so nothing repeats.
    """
    n, gens, orders = g.order, g.generators, g.orders
    choices = [[u for u in range(n) if orders[s] % orders[u] == 0] for s in gens]
    for images in itertools.product(*choices):
        f = _walk(g.add, gens, images)
        if f is not None:
            assert len(f) == n, "generating set does not generate"
            yield tuple(f[x] for x in range(n))


@lru_cache(maxsize=None)
def endomorphisms(g: FiniteGroup, invertible_only: bool = False) -> tuple[tuple[int, ...], ...]:
    """All additive endomorphisms (automorphisms if invertible_only) of g,
    as image vectors sorted by image vector."""
    if invertible_only:
        return tuple(im for im in endomorphisms(g) if len(set(im)) == g.order)
    return tuple(sorted(iter_endomorphisms(g)))


def subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups as sorted member tuples, sorted by (size, members).

    Normality is left to the caller: `core.ideals` tests it as one of the
    ideal conditions.
    """
    found = {_closure(g.add, frozenset())}
    frontier = list(found)
    while frontier:
        fresh = []
        for s in frontier:
            for x in range(g.order):
                if x in s:
                    continue
                t = _closure(g.add, s | {x})
                if t not in found:
                    found.add(t)
                    fresh.append(t)
        frontier = fresh
    sets = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [tuple(sorted(s)) for s in sets]


def p_component(g: FiniteGroup, p: int) -> tuple[int, ...]:
    """The sorted members of the subgroup of all elements of p-power order
    in an abelian group."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise InputError(f"{p} is not a prime")
    if not g.abelian:
        raise PreconditionError("p-components are only defined for abelian groups")

    def p_power(o: int) -> bool:
        while o % p == 0:
            o //= p
        return o == 1

    return tuple(x for x in range(g.order) if p_power(g.orders[x]))


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
