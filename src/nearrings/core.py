"""Validated nearring values, property predicates, ideals, modules, builtins.

A (left) nearring here is a group together with an associative
multiplication table satisfying the left distributive law
x(y+z) = xy + xz. Values are immutable after validation and every
predicate is a pure function of the tables.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

from .errors import AxiomViolation, InputError, InvariantViolation, PreconditionError
from .groups import (
    FiniteGroup,
    GroupMap,
    Table,
    build_group,
    is_homomorphism,
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
        return asdict(self)


# The census flags, one row each: count and filter key, PropertyFlags field,
# CLI --filter spelling.
FLAG_TABLE = (
    ("with_identity", "has_identity", "identity"),
    ("zero_symmetric", "zero_symmetric", "zero-symmetric"),
    ("semidistributive", "semidistributive", "semidistributive"),
    ("distributive", "distributive", "distributive"),
)


def count_flags(flags) -> dict[str, int]:
    """The total number of flag sets and, per FLAG_TABLE key, how many hold it."""
    flags = list(flags)
    counts = {"total": len(flags)}
    for key, attr, _ in FLAG_TABLE:
        counts[key] = sum(getattr(f, attr) for f in flags)
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
    # descriptive metadata (e.g. the composition order chosen for function
    # nearrings); not part of the value's identity and not serialized
    extra: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    @property
    def order(self) -> int:
        return self.group.order

    def label(self) -> str:
        return self.name if self.name else f"nearring-on-{self.group.label()}"


@dataclass(frozen=True)
class RModule:
    """A group with a right nearring action: action[g][r] is g acted on by r."""

    carrier: FiniteGroup
    ring: Nearring
    action: Table


@dataclass(frozen=True)
class TranslationEmbedding:
    """Left translations y -> s*y of a nearring with identity, as group maps.

    `composition_rule` records whether composing translations (right map
    applied first) matches the translation of s*t, of t*s, or both.
    """

    ring: Nearring
    translations: tuple[GroupMap, ...]
    unit_translations: tuple[GroupMap, ...]
    composition_rule: str


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


def validate(candidate: CandidateMultiplication, name: str | None = None,
             extra: tuple[tuple[str, str], ...] = ()) -> Nearring:
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
    return Nearring(group, mul, identity, flags, name, extra)


def build_unchecked(group: FiniteGroup, mul, name: str | None = None,
                    flags: PropertyFlags | None = None) -> Nearring:
    """Assemble a Nearring WITHOUT verifying the nearring axioms.

    Identity and flags are still computed from the tables unless an
    explicit `flags` override is given. This exists for diagnostic flows
    and fault-injection tests that need axiom-violating tables to reach
    the theorem checkers; it must never be used on untrusted input paths
    that promise validated values.
    """
    table = tuple(tuple(int(v) for v in row) for row in mul)
    CandidateMultiplication(group, table)  # range/shape check only
    identity = find_identity(group, table)
    if flags is None:
        flags = classify_table(group, table, identity)
    return Nearring(group, table, identity, flags, name)


def classify(r: Nearring) -> PropertyFlags:
    """Recompute the property flags from the tables (ignores the cache)."""
    return classify_table(r.group, r.mul, r.identity)


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


def translation_embedding(r: Nearring) -> TranslationEmbedding:
    """Build the left-translation maps s -> (y -> s*y) and verify their laws.

    Verifies that every translation is an additive endomorphism, that the
    element-to-translation map is injective and compatible with
    multiplication, that applying translations to the identity recovers
    the elements, and that unit translations are automorphisms recovering
    exactly the units. Any failure raises InvariantViolation since these
    are guaranteed for valid nearrings with identity.
    """
    if r.identity is None:
        raise PreconditionError("translation embedding needs an identity element")
    g, mul, i = r.group, r.mul, r.identity
    n = r.order
    translations = []
    for s in range(n):
        images = mul[s]
        if not is_homomorphism(g, g, images):
            raise InvariantViolation(
                f"left translation by {s} is not an additive endomorphism")
        translations.append(GroupMap(g, g, images))
    if len({t.images for t in translations}) != n:
        raise InvariantViolation("element-to-translation map is not injective")
    hom = all(
        translations[s].compose(translations[t]).images == translations[mul[s][t]].images
        for s in range(n) for t in range(n))
    anti = all(
        translations[s].compose(translations[t]).images == translations[mul[t][s]].images
        for s in range(n) for t in range(n))
    if not (hom or anti):
        raise InvariantViolation("translations are not multiplication-compatible")
    if hom and anti:
        rule = "either order (commutative multiplication)"
    elif hom:
        rule = "compose(s,t) = translation(s*t)"
    else:
        rule = "compose(s,t) = translation(t*s)"
    if sorted(t.images[i] for t in translations) != list(range(n)):
        raise InvariantViolation("applying translations to the identity must recover R")
    us = units(r)
    unit_translations = tuple(translations[u] for u in us)
    for t in unit_translations:
        if not t.is_bijective():
            raise InvariantViolation("unit translation is not an automorphism")
    if tuple(sorted(t.images[i] for t in unit_translations)) != us:
        raise InvariantViolation("unit translations applied to the identity must recover the units")
    return TranslationEmbedding(r, tuple(translations), unit_translations, rule)


# -- ideals -------------------------------------------------------------------

def ideal_violation(r: Nearring, members) -> dict | None:
    """First violated ideal condition for the subset, or None if it is an ideal.

    Conditions, in scan order: contains 0 and is closed under addition,
    is normal in the additive group, absorbs left products r*a, and
    contains every difference (r+a)*s - r*s.
    """
    n, add, neg, mul = r.order, r.group.add, r.group.neg, r.mul
    s = set(members)
    if not s <= set(range(n)):
        raise InputError("ideal members out of range")
    if 0 not in s:
        return {"condition": "subgroup", "elements": (0,), "detail": "missing 0"}
    for a in sorted(s):
        for b in sorted(s):
            if add[a][b] not in s:
                return {"condition": "subgroup", "elements": (a, b), "value": add[a][b]}
    for h in range(n):
        for a in sorted(s):
            v = add[add[h][a]][neg[h]]
            if v not in s:
                return {"condition": "normality", "elements": (h, a), "value": v}
    for x in range(n):
        for a in sorted(s):
            if mul[x][a] not in s:
                return {"condition": "left-product", "elements": (x, a), "value": mul[x][a]}
    for x in range(n):
        for a in sorted(s):
            for y in range(n):
                v = add[mul[add[x][a]][y]][neg[mul[x][y]]]
                if v not in s:
                    return {"condition": "translate-difference", "elements": (x, a, y), "value": v}
    return None


def is_ideal(r: Nearring, members) -> bool:
    return ideal_violation(r, members) is None


def ideals(r: Nearring) -> list[tuple[int, ...]]:
    """All ideals, in deterministic (size, members) order.

    Only normal additive subgroups can be ideals, so the scan runs over
    those instead of the full power set.
    """
    out = []
    for sub in subgroups(r.group, normal_only=True):
        if is_ideal(r, sub.members):
            out.append(sub.members)
    return out


def is_simple(r: Nearring) -> bool:
    """Exactly two ideals; the one-element nearring is not counted simple."""
    return len(ideals(r)) == 2


# -- modules ------------------------------------------------------------------

def regular_module(r: Nearring) -> RModule:
    """The additive group of r acting on itself by right multiplication.

    The module axioms are associativity and left distributivity of r, so
    a validated r needs no further scan.
    """
    return RModule(carrier=r.group, ring=r, action=r.mul)


def annihilator(m: RModule) -> tuple[int, ...]:
    """All ring elements acting as zero on the whole carrier."""
    gn = m.carrier.order
    return tuple(x for x in range(m.ring.order)
                 if all(m.action[g][x] == 0 for g in range(gn)))


def is_faithful(m: RModule) -> bool:
    return annihilator(m) == (0,)


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

    Elements are the four functions f: Z2 -> Z2 indexed by 2*f(0) + f(1)
    (so 0 is the zero function and 1 is the identity function); addition is
    pointwise. Both composition orders are tried and the one satisfying the
    left distributive law is kept; the choice is recorded in `extra`.
    """
    funcs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {f: i for i, f in enumerate(funcs)}
    add = tuple(
        tuple(index[((f[0] + h[0]) % 2, (f[1] + h[1]) % 2)] for h in funcs)
        for f in funcs
    )
    g = build_group({"order": 4, "add": [list(row) for row in add]})

    def compose(outer, inner):  # outer applied after inner
        return (outer[inner[0]], outer[inner[1]])

    left_then_right = tuple(
        tuple(index[compose(funcs[j], funcs[i])] for j in range(4)) for i in range(4))
    right_then_left = tuple(
        tuple(index[compose(funcs[i], funcs[j])] for j in range(4)) for i in range(4))
    for mul, order_name in ((left_then_right, "left factor feeds the right factor"),
                            (right_then_left, "right factor feeds the left factor")):
        if law_failure(g, mul, "left-distributivity") is None:
            return validate(
                CandidateMultiplication(g, mul), name="map-z2",
                extra=(("composition-order", order_name),
                       ("elements", "0:zero 1:identity 2:x+1 3:constant-1")))
    raise InvariantViolation("no composition order is left distributive on Map(Z2)")
