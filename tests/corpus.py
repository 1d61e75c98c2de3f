"""Documented fault-injection corpus: one mutated table per theory check.

Each entry is a deliberately corrupted multiplication table that satisfies
the target check's hypothesis scans while violating its conclusion, proving
the checker is not vacuous. None of these tables is a valid nearring (for a
valid instance every conclusion is a theorem); they are assembled through
the unchecked constructor and, where file-representable, also written to
nearring files to drive the CLI exit-code contract.

The `no-order-two` entry is special: its hypotheses (semidistributivity
scan, identity, odd order) already force right distributivity on every
supported additive group, table or not, because the scan equation
c(2r+s) = 2c(r) + c(s) with 2 invertible makes every column additive. No
file can therefore fail the check; the entry corrupts the cached flags of
a valid but non-semidistributive table instead, which only the library
path can express.
"""

from math import gcd, lcm

from nearrings.core import Nearring, PropertyFlags, find_identity
from nearrings.groups import build_group

# check_id -> (group spec, mul rows, notes)
FILE_ENTRIES = {
    # Constant-2 table on Z4: passes the semidistributivity scan because
    # 2+2+2 = 2 (mod 4), but 0*0 = 2 breaks the odd-order zero-product rule.
    "arithmetic": (
        "Z4",
        [[2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2]],
        "0 has odd order 1 yet 0*0 = 2",
    ),
    # Searched table on S3: all columns satisfy the semidistributivity
    # column equation and element a is a two-sided identity, while the
    # addition stays nonabelian.
    "abelian-addition": (
        "S3",
        [[0, 0, 0, 3, 4, 5],
         [0, 1, 2, 3, 4, 5],
         [0, 2, 1, 3, 4, 5],
         [0, 3, 3, 0, 0, 0],
         [0, 4, 3, 0, 0, 0],
         [0, 5, 3, 0, 0, 0]],
        "identity a present, semidistributive scan passes, a+b != b+a",
    ),
    # Z4 table whose two-sided identity is the order-2 element 2.
    "identity-exponent": (
        "Z4",
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 2, 3], [0, 0, 3, 0]],
        "identity 2 has additive order 2 but the exponent is 4",
    ),
    # Z6 table, columns from the semidistributive column family; the column
    # of element 2 is the non-additive member [3,2,1,0,5,4], so the
    # odd-order element 2 is not distributive.
    "odd-order-distributive": (
        "Z6",
        [[0, 0, 3, 0, 0, 0],
         [0, 1, 2, 3, 4, 5],
         [0, 2, 1, 0, 2, 4],
         [0, 3, 0, 3, 0, 3],
         [0, 4, 5, 0, 4, 2],
         [0, 5, 4, 3, 2, 1]],
        "element 2 has order 3 but (0+0)*2 = 3 != 0*2 + 0*2",
    ),
    # Same family on Z6 with the column of 4 shifted by 3, so the
    # 3-component {0,2,4} stops absorbing left products (0*4 = 3).
    "primary-ideals": (
        "Z6",
        [[0, 0, 0, 0, 3, 0],
         [0, 1, 2, 3, 4, 5],
         [0, 2, 4, 0, 5, 4],
         [0, 3, 0, 3, 0, 3],
         [0, 4, 2, 0, 1, 2],
         [0, 5, 4, 3, 2, 1]],
        "3-component {0,2,4} is not an ideal: 0*4 = 3",
    ),
    # Z6 table whose zero columns are exactly {0,1}: the regular module's
    # annihilator is then not even a subgroup.
    "annihilator-ideal": (
        "Z6",
        [[0, 0, 0, 0, 0, 0],
         [0, 0, 1, 1, 1, 1],
         [0, 0, 2, 2, 2, 2],
         [0, 0, 3, 3, 3, 3],
         [0, 0, 4, 4, 4, 4],
         [0, 0, 5, 5, 5, 5]],
        "annihilator {0,1} of the regular module is not a subgroup",
    ),
    # Z4 table with every column an endomorphism (so the regular module
    # meets the faithful/abelian/endomorphism hypotheses) but the left
    # distributive law broken: 1*(1+1) = 1 while 1*1 + 1*1 = 2.
    "faithful-module": (
        "Z4",
        [[0, 0, 0, 0], [0, 1, 1, 2], [0, 2, 2, 0], [0, 3, 3, 2]],
        "faithful regular module, actions are endomorphisms, left law fails",
    ),
    # Z6 family table with the zero column flipped to [3,0,3,0,3,0] and the
    # column of 2 flipped as well: the only ideals left are {0,3} and the
    # whole set (two ideals), while right distributivity fails at (0,0,0).
    "simple-ring": (
        "Z6",
        [[3, 0, 3, 0, 0, 0],
         [0, 1, 2, 3, 4, 5],
         [3, 2, 1, 0, 2, 4],
         [0, 3, 0, 3, 0, 3],
         [3, 4, 5, 0, 4, 2],
         [0, 5, 4, 3, 2, 1]],
        "exactly two ideals yet (0+0)*0 = 3 != 0*0 + 0*0",
    ),
}

# Library-only entry: a valid right-projection table on Z9 (x*y = y) whose
# cached flags falsely claim semidistributivity and an identity. Z9 has no
# order-2 elements, so the check fires and the rescanned conclusion
# (right distributivity) genuinely fails on the table.
NO_ORDER_TWO_ENTRY = {
    "group": "Z9",
    "mul": [list(range(9)) for _ in range(9)],
    "flags": PropertyFlags(
        zero_symmetric=True, semidistributive=True, distributive=False,
        has_identity=True, abelian_addition=True,
    ),
    "notes": "projection table with lying semidistributive/identity flags",
}


def no_order_two_nearring() -> Nearring:
    """NO_ORDER_TWO_ENTRY as a Nearring built directly, so that it carries
    the entry's lying flags instead of the ones read off its table."""
    entry = NO_ORDER_TWO_ENTRY
    g = build_group(entry["group"])
    table = tuple(map(tuple, entry["mul"]))
    return Nearring(g, table, find_identity(g, table), entry["flags"])


# -- independent witness recomputation ----------------------------------------

def _fresh_order(add, x):
    acc, k = x, 1
    while acc != 0:
        acc = add[acc][x]
        k += 1
    return k


def _fresh_times(add, x, n):
    acc = 0
    for _ in range(n):
        acc = add[acc][x]
    return acc


def _fresh_neg(add, x):
    return next(y for y in range(len(add)) if add[x][y] == 0)


def reverify_witness(r, verdict):
    """Recompute the claimed violation from raw tables, sharing no code
    with the check implementations."""
    add, mul = r.group.add, r.mul
    w = verdict.witness
    law = w["law"]
    e = w.get("elements", {})
    if law == "negation-product":
        a, s = e["r"], e["s"]
        assert mul[_fresh_neg(add, a)][s] != _fresh_neg(add, mul[a][s])
    elif law == "zero-product-order":
        v = mul[0][e["s"]]
        assert v != 0 and _fresh_order(add, v) != 2
    elif law == "odd-order-zero-product":
        a = e["r"]
        assert _fresh_order(add, a) % 2 == 1 and mul[0][a] != 0
    elif law == "repeated-sum-product":
        a, s, k = e["r"], e["s"], e["n"]
        lhs = mul[_fresh_times(add, a, k)][s]
        rhs = _fresh_times(add, mul[a][s], k)
        if k % 2 == 0:
            rhs = add[rhs][mul[0][s]]
        assert lhs != rhs
    elif law == "coprime-order-product":
        a, s = e["r"], e["s"]
        assert gcd(_fresh_order(add, a), _fresh_order(add, s)) == 1
        assert mul[a][s] != mul[0][s]
    elif law == "abelian-addition":
        x, y = e["x"], e["y"]
        assert add[x][y] != add[y][x]
    elif law == "identity-exponent":
        u = e["u"]
        exp = lcm(*(_fresh_order(add, x) for x in range(r.order)))
        assert _fresh_order(add, u) != exp
    elif law == "odd-element-distributive":
        t, a, b = e["t"], e["r"], e["s"]
        assert _fresh_order(add, t) % 2 == 1
        assert mul[add[a][b]][t] != add[mul[a][t]][mul[b][t]]
    elif law == "right-distributivity":
        a, b, t = e["r"], e["s"], e["t"]
        assert mul[add[a][b]][t] != add[mul[a][t]][mul[b][t]]
    elif law == "left-distributivity":
        x, y, z = e["x"], e["y"], e["z"]
        assert mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]
    elif law in ("primary-component-ideal", "annihilator-ideal"):
        members = set(w.get("component", w.get("annihilator")))
        cond, elems, value = w["condition"], w["elements"], w.get("value")
        if cond == "subgroup":
            a, b = elems
            assert add[a][b] == value and value not in members
        elif cond == "normality":
            h, a = elems
            assert add[add[h][a]][_fresh_neg(add, h)] == value and value not in members
        elif cond == "left-product":
            x, a = elems
            assert mul[x][a] == value and value not in members
        elif cond == "translate-difference":
            x, a, y = elems
            got = add[mul[add[x][a]][y]][_fresh_neg(add, mul[x][y])]
            assert got == value and value not in members
        else:
            raise AssertionError(f"unknown ideal condition {cond}")
    else:
        raise AssertionError(f"unknown witness law {law}")
