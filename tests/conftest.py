import os

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
    """The census caps its pool at os.cpu_count(), which it reads from the
    os module; report four CPUs so that worker tests start real pools on
    any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
