"""The benchmark's workloads: which CLI command runs on which groups.

Every workload is a closed loop from one client: one op at a time, ops
back to back, where an op is one `nearrings` CLI command on one group.
Only `parallel` starts processes (its census pool of 2 workers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    command: str  # "census" or "lemmas"
    groups: tuple[str, ...]
    workers: int

    def argv(self, group: str, tmp: str) -> list[str]:
        """The CLI arguments of the op on `group`, writing files under `tmp`."""
        if self.command == "lemmas":
            return ["lemmas", "--census", group, "--format", "json"]
        argv = ["census", group, "--format", "json", "--out", catalog_path(tmp, group)]
        if self.workers > 1:
            argv += ["--workers", str(self.workers)]
        return argv


SEARCH_GROUPS = ("Z3xZ3", "Z2xZ6", "D8")

# Why these groups: on the search groups the DFS close() kernel does about
# 75% of the work and no check suite runs; on the cyclic groups |End| = n,
# so the DFS is small and validation plus the check suite dominate. The
# order-8 elementary abelian group (about 70 s) is left out to keep a
# commit's runs affordable.
WORKLOADS = {
    "search": Workload("census", SEARCH_GROUPS, 1),
    "classify": Workload("lemmas", ("Z12", "Z14", "Z15"), 1),
    "parallel": Workload("census", SEARCH_GROUPS, 2),
}


def catalog_path(tmp: str, group: str) -> str:
    return os.path.join(tmp, f"census-{group}.jsonl")


def stdout_path(tmp: str, group: str) -> str:
    return os.path.join(tmp, f"stdout-{group}.json")
