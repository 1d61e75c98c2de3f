"""Validated nearring values, predicates, ideals, annihilators, builtins.

A (left) nearring here is a group together with an associative
multiplication table satisfying the left distributive law
x(y+z) = xy + xz. Values are immutable after validation and every
predicate is a pure function of the tables.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import AxiomViolation, InputError, PreconditionError
from .groups import (
    FiniteGroup,
    Table,
    build_group,
    subgroups,
)


@dataclass(frozen=True)
class PropertyFlags:
    zero_symmetric: bool
    semidistributive: bool
    distributive: bool
    has_identity: bool
    abelian_addition: bool

    def as_dict(self) -> dict[str, bool]:
        # Every field is a bool, so a flat copy is the whole dict.
        return dict(vars(self))


# The census flags, one row each: count and filter key, PropertyFlags field,
# CLI --filter spelling.
FLAG_TABLE = (
    ("with_identity", "has_identity", "identity"),
    ("zero_symmetric", "zero_symmetric", "zero-symmetric"),
    ("semidistributive", "semidistributive", "semidistributive"),
    ("distributive", "distributive", "distributive"),
)


def count_flags(flags) -> dict[str, int]:
    """The total number of flag sets and, per FLAG_TABLE key, how many hold
    it. `flags` is an iterable of flag sets, or a Counter of them."""
    tally = Counter(flags)
    counts = {"total": sum(tally.values())}
    for key, attr, _ in FLAG_TABLE:
        counts[key] = sum(k for f, k in tally.items() if getattr(f, attr))
    return counts


@dataclass(frozen=True)
class CandidateMultiplication:
    """A multiplication table awaiting validation; only index ranges hold."""

    group: FiniteGroup
    mul: Table

    def __post_init__(self):
        n = self.group.order
        if len(self.mul) != n:
            raise InputError(f"mul has {len(self.mul)} rows, expected {n}")
        for x, row in enumerate(self.mul):
            if len(row) != n:
                raise InputError(f"mul row {x} has length {len(row)}, expected {n}")
            for y, v in enumerate(row):
                if not (0 <= v < n):
                    raise InputError(f"mul[{x}][{y}]={v} out of range 0..{n - 1}")


@dataclass(frozen=True)
class Nearring:
    """A validated nearring: additive group, multiplication, cached flags."""

    group: FiniteGroup
    mul: Table
    identity: int | None
    flags: PropertyFlags
    name: str | None = None

    @property
    def order(self) -> int:
        return self.group.order

    def label(self) -> str:
        return self.name if self.name else f"nearring-on-{self.group.label()}"

    @cached_property
    def annihilator(self) -> tuple[int, ...]:
        """The annihilator of the regular module (the additive group acted
        on by right multiplication): all x with g*x = 0 for every g, that
        is the zero columns of mul. Computed once per nearring, however
        many checks read it."""
        zero = (0,) * self.order
        return tuple(x for x, column in enumerate(zip(*self.mul)) if column == zero)


# -- validation and classification -------------------------------------------

# Each law's two sides at every (b, c) for a fixed a, flattened in row-major
# order; `ra` is the row mul[a]. The law holds iff the sides agree for all a.
_LAW_SIDES = {
    # (a*b)*c = a*(b*c)
    "associativity": lambda add, mul, a, ra: (
        [x for v in ra for x in mul[v]],
        [ra[v] for row in mul for v in row]),
    # a*(b+c) = a*b + a*c
    "left-distributivity": lambda add, mul, a, ra: (
        [ra[v] for row in add for v in row],
        [s[v] for s in [add[u] for u in ra] for v in ra]),
    # (a+b)*c = a*c + b*c
    "right-distributivity": lambda add, mul, a, ra: (
        [x for v in add[a] for x in mul[v]],
        [add[u][v] for row in mul for u, v in zip(ra, row)]),
    # (a+b+a)*c = a*c + b*c + a*c
    "semidistributivity": lambda add, mul, a, ra: (
        [x for v in add[a] for x in mul[add[v][a]]],
        [add[add[u][v]][u] for row in mul for u, v in zip(ra, row)]),
}


def law_failures(group: FiniteGroup, mul, law: str):
    """Every triple (a, b, c) at which `law` fails, in row-major order, as
    ((a, b, c), lhs, rhs) with both sides evaluated.

    `law` is "associativity", "left-distributivity", "right-distributivity"
    or "semidistributivity".
    """
    sides = _LAW_SIDES[law]
    add, n = group.add, group.order
    for a in range(n):
        lhs, rhs = sides(add, mul, a, mul[a])
        if lhs != rhs:
            for i, (u, v) in enumerate(zip(lhs, rhs)):
                if u != v:
                    yield (a, *divmod(i, n)), u, v


def law_failure(group: FiniteGroup, mul, law: str) -> tuple[tuple[int, int, int], int, int] | None:
    """The first failure of `law` in row-major order, or None if it holds."""
    return next(law_failures(group, mul, law), None)


def find_identity(group: FiniteGroup, mul: Table) -> int | None:
    """The unique two-sided multiplicative identity, if one exists."""
    n = group.order
    for i in range(n):
        if all(mul[i][x] == x and mul[x][i] == x for x in range(n)):
            return i
    return None


def classify_table(group: FiniteGroup, mul: Table, identity: int | None = None) -> PropertyFlags:
    """Compute all property flags from the tables alone."""
    if identity is None:
        identity = find_identity(group, mul)
    return PropertyFlags(
        zero_symmetric=all(mul[0][x] == 0 for x in range(group.order)),
        semidistributive=law_failure(group, mul, "semidistributivity") is None,
        distributive=law_failure(group, mul, "right-distributivity") is None,
        has_identity=identity is not None,
        abelian_addition=group.abelian,
    )


def validate(candidate: CandidateMultiplication, name: str | None = None) -> Nearring:
    """Check the nearring axioms and build a Nearring with computed flags.

    The axiom scans report the first failing triple in row-major order,
    associativity before left distributivity. Left distributivity at
    (x, 0, 0) forces x*0 = 0, so that law needs no scan of its own.
    """
    group, mul = candidate.group, candidate.mul
    failure = law_failure(group, mul, "associativity")
    if failure is not None:
        (x, y, z), lhs, rhs = failure
        raise AxiomViolation(
            "associativity", (x, y, z), f"({x}*{y})*{z} = {lhs} but {x}*({y}*{z}) = {rhs}")
    failure = law_failure(group, mul, "left-distributivity")
    if failure is not None:
        (x, y, z), lhs, rhs = failure
        raise AxiomViolation(
            "left-distributivity", (x, y, z),
            f"{x}*({y}+{z}) = {lhs} but {x}*{y} + {x}*{z} = {rhs}")
    identity = find_identity(group, mul)
    flags = classify_table(group, mul, identity)
    return Nearring(group, mul, identity, flags, name)


def build_unchecked(group: FiniteGroup, mul, name: str | None = None) -> Nearring:
    """Assemble a Nearring WITHOUT verifying the nearring axioms.

    Identity and flags are still read off the tables. This exists for
    diagnostic flows and fault-injection tests that need axiom-violating
    tables to reach the theorem checkers; it must never be used on
    untrusted input paths that promise validated values.
    """
    table = tuple(tuple(int(v) for v in row) for row in mul)
    CandidateMultiplication(group, table)  # range/shape check only
    identity = find_identity(group, table)
    return Nearring(group, table, identity, classify_table(group, table, identity), name)


# -- element-level predicates -------------------------------------------------

def units(r: Nearring) -> tuple[int, ...]:
    """All elements with a two-sided multiplicative inverse."""
    if r.identity is None:
        raise PreconditionError("units are only defined for nearrings with identity")
    i = r.identity
    n = r.order
    out = [x for x in range(n)
           if any(r.mul[x][y] == i and r.mul[y][x] == i for y in range(n))]
    return tuple(out)


def distributive_elements(r: Nearring) -> tuple[int, ...]:
    """All t such that (r+s)t = rt + st for every pair r, s."""
    bad = {t for (_, _, t), _, _ in law_failures(r.group, r.mul, "right-distributivity")}
    return tuple(t for t in range(r.order) if t not in bad)


# -- ideals -------------------------------------------------------------------

def ideal_violation(r: Nearring, members) -> dict | None:
    """First violated ideal condition for the subset, or None if it is an ideal.

    Conditions, in scan order: contains 0 and is closed under addition,
    is normal in the additive group, absorbs left products r*a, and
    contains every difference (r+a)*s - r*s.

    On an abelian group h + a - h = a, so every subgroup is normal and
    the normality scan is skipped.
    """
    n, add, neg, mul = r.order, r.group.add, r.group.neg, r.mul
    s = set(members)
    if not s <= set(range(n)):
        raise InputError("ideal members out of range")
    if 0 not in s:
        return {"condition": "subgroup", "elements": (0,), "detail": "missing 0"}
    ordered = sorted(s)
    for a in ordered:
        for b in ordered:
            if add[a][b] not in s:
                return {"condition": "subgroup", "elements": (a, b), "value": add[a][b]}
    if not r.group.abelian:
        for h in range(n):
            for a in ordered:
                v = add[add[h][a]][neg[h]]
                if v not in s:
                    return {"condition": "normality", "elements": (h, a), "value": v}
    for x in range(n):
        for a in ordered:
            if mul[x][a] not in s:
                return {"condition": "left-product", "elements": (x, a), "value": mul[x][a]}
    # With s = {0} only a = 0 occurs, and (x+0)*y - x*y = 0 for any table.
    if len(ordered) == 1:
        return None
    # s is now a subgroup, so (x+a)*y - x*y lies in s iff (x+a)*y and x*y
    # share a coset s+v. Label each element by the least member of its
    # coset and compare whole label rows; only the first (x, a) whose rows
    # differ is rescanned in y order for the witness.
    label = [-1] * n
    for v in range(n):
        if label[v] < 0:
            for a in ordered:
                label[add[a][v]] = v
    rows = [tuple(map(label.__getitem__, row)) for row in mul]
    for x in range(n):
        row, ax = rows[x], add[x]
        for a in ordered:
            if rows[ax[a]] != row:
                for y in range(n):
                    v = add[mul[ax[a]][y]][neg[mul[x][y]]]
                    if v not in s:
                        return {"condition": "translate-difference",
                                "elements": (x, a, y), "value": v}
    return None


def is_ideal(r: Nearring, members) -> bool:
    return ideal_violation(r, members) is None


def ideals(r: Nearring) -> list[tuple[int, ...]]:
    """All ideals, in deterministic (size, members) order.

    Only additive subgroups can be ideals, so the scan runs over those
    instead of the full power set; `ideal_violation` refuses the ones
    that are not normal.
    """
    return [members for members in subgroups(r.group) if is_ideal(r, members)]


# -- the regular module -------------------------------------------------------

def annihilator(r: Nearring) -> tuple[int, ...]:
    """The annihilator of the regular module, `Nearring.annihilator`."""
    return r.annihilator


# -- builtin examples ----------------------------------------------------------

_RING_RE = re.compile(r"^ring:Z(\d+)$")

BUILTIN_NAMES = ("s3-paper", "map-z2", "zero:<groupspec>", "ring:Z<n>")


def builtin(name: str) -> Nearring:
    """Construct a builtin example nearring by name.

    Names: "s3-paper" (the classical zero-symmetric semidistributive
    multiplication on the nonabelian group of order 6), "map-z2" (all four
    functions on Z2 under pointwise addition and composition),
    "zero:<groupspec>" (all products zero), "ring:Z<n>" (modular ring).
    """
    if name == "s3-paper":
        return _builtin_s3()
    if name == "map-z2":
        return _builtin_map_z2()
    if name.startswith("zero:"):
        g = build_group(name[len("zero:"):])
        mul = tuple((0,) * g.order for _ in range(g.order))
        return validate(CandidateMultiplication(g, mul), name=name)
    m = _RING_RE.match(name)
    if m:
        n = int(m.group(1))
        g = build_group(f"Z{n}")
        mul = tuple(tuple((x * y) % n for y in range(n)) for x in range(n))
        return validate(CandidateMultiplication(g, mul), name=name)
    raise InputError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def _builtin_s3() -> Nearring:
    # Rows 0, a, 2a are zero; rows b, a+b, 2a+b are 0 on the <a> columns and
    # constant equal to the row element on the reflection columns.
    g = build_group("S3")
    mul = tuple(
        tuple(x if (x >= 3 and y >= 3) else 0 for y in range(6))
        for x in range(6)
    )
    return validate(CandidateMultiplication(g, mul), name="s3-paper")


def _builtin_map_z2() -> Nearring:
    """The nearring of all functions on Z2.

    Elements are the four functions f: Z2 -> Z2 indexed by 2*f(0) + f(1):
    0 is the zero function, 1 the identity, 2 is x+1 and 3 the constant 1.
    Addition is pointwise and f*h = h o f, the composition order that is
    left distributive: f*(h+k) = (h+k) o f = h o f + k o f.
    """
    funcs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {f: i for i, f in enumerate(funcs)}
    add = tuple(
        tuple(index[((f[0] + h[0]) % 2, (f[1] + h[1]) % 2)] for h in funcs)
        for f in funcs
    )
    g = build_group({"order": 4, "add": [list(row) for row in add]})
    mul = tuple(tuple(index[(h[f[0]], h[f[1]])] for h in funcs) for f in funcs)
    return validate(CandidateMultiplication(g, mul), name="map-z2")
