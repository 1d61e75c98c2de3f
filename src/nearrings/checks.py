"""One verifier per structural claim about semidistributive nearrings.

Every check returns a CheckVerdict: whether its hypotheses are met
(applicable), whether the conclusion holds, and a concrete counterexample
witness when it does not. Hypothesis flags are read from the value's
cached flags; conclusions are always rescanned from the raw tables, so a
corrupted value cannot pass on the strength of its cache. Checks never
trust each other's verdicts: shared hypotheses (like abelian addition)
are re-tested where a check depends on them.

Every check takes the nearring itself, and they run in the order of the
one CHECKS table. The two module checks read the regular module straight
from the nearring: its carrier is r.group and its action is r.mul.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .core import (
    Nearring,
    annihilator,
    ideal_violation,
    ideals,
    law_failure,
    law_failures,
    units,
)
from .groups import exponent, is_homomorphism, p_component, prime_divisors, times


class CheckVerdict(NamedTuple):
    """One check's verdict. A tuple, so a witness-free verdict hashes and
    compares by value in C; a witness is a dict, so a verdict with one
    does not hash."""

    check_id: str
    applicable: bool
    holds: bool
    witness: dict | None = None
    notes: str = ""

    def as_dict(self) -> dict:
        out = {"check_id": self.check_id, "applicable": self.applicable, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass(frozen=True)
class SuiteReport:
    instance: str
    verdicts: tuple[CheckVerdict, ...]
    overall: bool

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "overall": "pass" if self.overall else "fail",
        }


# Vacuous and passing verdicts carry no witness, so each distinct one is
# built once and cached. Verdicts compare by value, so nothing depends on
# the sharing; the cache only saves their construction, and a census
# suite returns tens of thousands of them.
@lru_cache(maxsize=None)
def _vacuous(check_id: str, notes: str = "") -> CheckVerdict:
    return CheckVerdict(check_id, applicable=False, holds=True, witness=None, notes=notes)


def _failed(check_id: str, witness: dict, notes: str = "") -> CheckVerdict:
    return CheckVerdict(check_id, applicable=True, holds=False, witness=witness, notes=notes)


@lru_cache(maxsize=None)
def _passed(check_id: str) -> CheckVerdict:
    return CheckVerdict(check_id, applicable=True, holds=True, witness=None)


def _law_witness(r: Nearring, law: str, names: str) -> dict | None:
    """The first failure of a table law as a witness, its triple keyed by `names`."""
    bad = law_failure(r.group, r.mul, law)
    if bad is None:
        return None
    triple, lhs, rhs = bad
    return {"law": law, "elements": dict(zip(names, triple)), "lhs": lhs, "rhs": rhs}


def _noncommuting_pair(r: Nearring) -> dict | None:
    """The first x, y in row-major order with x+y != y+x as a witness, or
    None if the addition is abelian."""
    add = r.group.add
    for x in range(r.order):
        for y in range(r.order):
            if add[x][y] != add[y][x]:
                return {"law": "abelian-addition", "elements": {"x": x, "y": y},
                        "lhs": add[x][y], "rhs": add[y][x]}
    return None


# -- nearring-level checks -----------------------------------------------------

def check_arithmetic(r: Nearring) -> CheckVerdict:
    """Negation, zero-product, repeated-sum, and coprime-order identities.

    Applicable to semidistributive instances. Verifies, for all elements
    and all repetition counts up to exponent+1:
      * (-r)s = -(rs), and 0*s is 0 or an element of additive order 2,
        and 0*r = 0 whenever r has odd additive order;
      * (r summed n times)*s = (rs summed n times) for odd n, plus 0*s
        for even n;
      * r*s = 0*s whenever the additive orders of r and s are coprime
        (so r*s = 0 in zero-symmetric instances and whenever s has odd
        order; the bare form r*s = 0 is not a theorem when 0*s has
        order 2).
    """
    cid = "arithmetic"
    if not r.flags.semidistributive:
        return _vacuous(cid, "requires a semidistributive instance")
    g = r.group
    n, add, neg, mul, orders = r.order, g.add, g.neg, r.mul, g.orders
    for a in range(n):
        for s in range(n):
            lhs, rhs = mul[neg[a]][s], neg[mul[a][s]]
            if lhs != rhs:
                return _failed(cid, {"law": "negation-product",
                                     "elements": {"r": a, "s": s}, "lhs": lhs, "rhs": rhs})
    for s in range(n):
        v = mul[0][s]
        if v != 0 and orders[v] != 2:
            return _failed(cid, {"law": "zero-product-order",
                                 "elements": {"s": s}, "lhs": v, "rhs": 0,
                                 "order": orders[v]})
    for a in range(n):
        if orders[a] % 2 == 1 and mul[0][a] != 0:
            return _failed(cid, {"law": "odd-order-zero-product",
                                 "elements": {"r": a}, "lhs": mul[0][a], "rhs": 0})
    top = exponent(g) + 1
    # multiple[x][k] = k*x (k summands), computed once per element
    multiple = [[times(g, x, k) for k in range(top + 1)] for x in range(n)]
    for a in range(n):
        for s in range(n):
            prod = mul[a][s]
            zs = mul[0][s]
            for k in range(1, top + 1):
                lhs = mul[multiple[a][k]][s]
                rhs = multiple[prod][k]
                if k % 2 == 0:
                    rhs = add[rhs][zs]
                if lhs != rhs:
                    return _failed(cid, {"law": "repeated-sum-product",
                                         "elements": {"r": a, "s": s, "n": k},
                                         "lhs": lhs, "rhs": rhs})
    for a in range(n):
        for s in range(n):
            if gcd(orders[a], orders[s]) == 1 and mul[a][s] != mul[0][s]:
                return _failed(cid, {"law": "coprime-order-product",
                                     "elements": {"r": a, "s": s},
                                     "lhs": mul[a][s], "rhs": mul[0][s]})
    return _passed(cid)


def check_abelian_addition(r: Nearring) -> CheckVerdict:
    """A semidistributive instance with identity must have abelian addition."""
    cid = "abelian-addition"
    if not (r.flags.semidistributive and r.flags.has_identity):
        return _vacuous(cid, "requires semidistributive with identity")
    bad = _noncommuting_pair(r)
    if bad is not None:
        return _failed(cid, bad)
    return _passed(cid)


def check_identity_exponent(r: Nearring) -> CheckVerdict:
    """With an identity, the additive exponent equals the additive order of
    the identity and of every unit."""
    cid = "identity-exponent"
    if r.identity is None:
        return _vacuous(cid, "requires an identity element")
    exp = exponent(r.group)
    i = r.identity
    if r.group.orders[i] != exp:
        return _failed(cid, {"law": "identity-exponent",
                             "elements": {"u": i}, "lhs": r.group.orders[i], "rhs": exp,
                             "role": "identity"})
    for u in units(r):
        if r.group.orders[u] != exp:
            return _failed(cid, {"law": "identity-exponent",
                                 "elements": {"u": u}, "lhs": r.group.orders[u], "rhs": exp,
                                 "role": "unit"})
    return _passed(cid)


def check_odd_distributive(r: Nearring) -> CheckVerdict:
    """In a semidistributive instance with identity, every element of odd
    additive order is distributive.

    An instance of odd order is then a ring. That needs no test of its
    own: by Lagrange every element has odd order, so a right
    distributivity failure there fails the loop below at its column.
    """
    cid = "odd-order-distributive"
    if not (r.flags.semidistributive and r.flags.has_identity):
        return _vacuous(cid, "requires semidistributive with identity")
    # first failing (r, s) per column t, in row-major order
    first: dict[int, tuple] = {}
    for (a, b, t), lhs, rhs in law_failures(r.group, r.mul, "right-distributivity"):
        first.setdefault(t, (a, b, lhs, rhs))
    for t in sorted(first):
        if r.group.orders[t] % 2 == 1:
            a, b, lhs, rhs = first[t]
            return _failed(cid, {"law": "odd-element-distributive",
                                 "elements": {"t": t, "r": a, "s": b},
                                 "lhs": lhs, "rhs": rhs})
    return _passed(cid)


def check_primary_ideals(r: Nearring) -> CheckVerdict:
    """In a semidistributive instance with identity, every primary component
    of the additive group is an ideal.

    Abelianness is re-tested here (not taken from the abelian-addition
    check) since primary components only exist in abelian groups.
    """
    cid = "primary-ideals"
    if not (r.flags.semidistributive and r.flags.has_identity):
        return _vacuous(cid, "requires semidistributive with identity")
    bad = _noncommuting_pair(r)
    if bad is not None:
        return _failed(cid, bad,
                       "addition is not abelian, so primary components are undefined")
    for p in prime_divisors(r.order):
        members = p_component(r.group, p)
        bad = ideal_violation(r, members)
        if bad is not None:
            witness = {"law": "primary-component-ideal", "p": p, "component": list(members)}
            witness.update(bad)
            return _failed(cid, witness)
    return _passed(cid)


def check_simple_is_ring(r: Nearring) -> CheckVerdict:
    """A semidistributive instance with identity and exactly two ideals must
    be distributive (i.e. a simple associative ring).

    On the one-element instance there is a single ideal, so the check is
    not applicable there.
    """
    cid = "simple-ring"
    if not (r.flags.semidistributive and r.flags.has_identity):
        return _vacuous(cid, "requires semidistributive with identity")
    if len(ideals(r)) != 2:
        return _vacuous(cid, "requires exactly two ideals")
    bad = _law_witness(r, "right-distributivity", "rst")
    if bad is not None:
        return _failed(cid, bad)
    return _passed(cid)


def check_no_order_two(r: Nearring) -> CheckVerdict:
    """A semidistributive instance with identity and no elements of additive
    order 2 must be distributive."""
    cid = "no-order-two"
    if not (r.flags.semidistributive and r.flags.has_identity):
        return _vacuous(cid, "requires semidistributive with identity")
    if any(o == 2 for o in r.group.orders):
        return _vacuous(cid, "additive group has an element of order 2")
    bad = _law_witness(r, "right-distributivity", "rst")
    if bad is not None:
        return _failed(cid, bad)
    return _passed(cid)


# -- regular-module checks ------------------------------------------------------
# The module is the additive group r.group acted on by right multiplication:
# g acted on by x is r.mul[g][x].

def check_annihilator_ideal(r: Nearring) -> CheckVerdict:
    """The annihilator of the regular module is an ideal of the nearring."""
    cid = "annihilator-ideal"
    ann = annihilator(r)
    bad = ideal_violation(r, ann)
    if bad is not None:
        witness = {"law": "annihilator-ideal", "annihilator": list(ann)}
        witness.update(bad)
        return _failed(cid, witness)
    return _passed(cid)


def check_faithful_module_ring(r: Nearring) -> CheckVerdict:
    """A faithful module with abelian carrier whose elements all act as
    additive endomorphisms forces the acting nearring to be fully
    distributive (an associative ring).

    All three hypotheses are recomputed from the regular module: the
    carrier r.group and the action r.mul.
    """
    cid = "faithful-module"
    if annihilator(r) != (0,):
        return _vacuous(cid, "module is not faithful")
    if not r.group.abelian:
        return _vacuous(cid, "carrier is not abelian")
    for x, column in enumerate(zip(*r.mul)):
        if not is_homomorphism(r.group, r.group, column):
            return _vacuous(cid, f"element {x} does not act as an endomorphism")
    # Each column passing is (a+b)x = ax + bx at x: right distributivity
    # already holds. A permissive `lemmas` file can break the left law.
    bad = _law_witness(r, "left-distributivity", "xyz")
    if bad is not None:
        return _failed(cid, bad)
    return _passed(cid)


# -- suite runner ----------------------------------------------------------------

# Every check, in verdict order.
CHECKS = (
    ("arithmetic", check_arithmetic),
    ("abelian-addition", check_abelian_addition),
    ("identity-exponent", check_identity_exponent),
    ("odd-order-distributive", check_odd_distributive),
    ("primary-ideals", check_primary_ideals),
    ("annihilator-ideal", check_annihilator_ideal),
    ("faithful-module", check_faithful_module_ring),
    ("simple-ring", check_simple_is_ring),
    ("no-order-two", check_no_order_two),
)

CHECK_IDS = tuple(cid for cid, _ in CHECKS)


def run_suite(r: Nearring) -> SuiteReport:
    """Run every check on a nearring, named by its label."""
    verdicts = [fn(r) for _, fn in CHECKS]
    overall = all(v.holds for v in verdicts if v.applicable)
    return SuiteReport(r.label(), tuple(verdicts), overall)


def summarize_reports(reports) -> dict:
    """Aggregate suite reports: applicable counts per check and failures."""
    applicable = {cid: 0 for cid in CHECK_IDS}
    failures = []
    total = 0
    for rep in reports:
        total += 1
        for v in rep.verdicts:
            if v.applicable:
                applicable[v.check_id] += 1
                if not v.holds:
                    failures.append({"instance": rep.instance, "check_id": v.check_id})
    return {
        "instances": total,
        "applicable": applicable,
        "failures": failures,
        "overall": "pass" if not failures else "fail",
    }
