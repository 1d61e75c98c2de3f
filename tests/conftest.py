import os
import random

import pytest

from nearrings.census import SearchSpec, census
from nearrings.groups import build_group

# One spec per isomorphism type of order <= 8, plus nothing else: the
# spec grammar also reaches these via aliases (D6 = S3, Z2xZ3 = Z6, ...)
# which would only repeat isomorphic censuses.
SWEEP_SPECS = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3",
    "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2", "D8", "Q8",
)

_CACHE: dict = {}


def relabelled(g, seed):
    """g as a raw table under a seeded relabelling that keeps 0, and the
    relabelling, named index -> raw index."""
    rng = random.Random(seed)
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    add = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            add[perm[x]][perm[y]] = perm[g.add[x][y]]
    return build_group({"order": g.order, "add": add}), perm


def cached_census(spec: str, **kwargs):
    """Session-wide census cache; the order-8 searches are not free."""
    key = (spec, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        _CACHE[key] = census(SearchSpec(build_group(spec), **kwargs))
    return _CACHE[key]


@pytest.fixture(scope="session")
def census_of():
    return cached_census


@pytest.fixture
def four_cpus(monkeypatch):
    """The census caps its processes at os.cpu_count() and at the CPUs
    this process may run on (os.sched_getaffinity, where it exists), which
    it reads from the os module; report four of each so that worker tests
    fork real workers on any host, a one-CPU affinity mask included."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
