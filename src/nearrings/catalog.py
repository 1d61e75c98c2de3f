"""File formats: nearring files, census catalogs, and suite reports.

The JSON shapes here are the machine contract; the CLI's text output is
explicitly unstable. Catalog files are written atomically and contain no
timing or worker metadata, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile

from . import __version__
from .census import CensusResult
from .checks import SuiteReport
from .core import (
    CandidateMultiplication,
    Nearring,
    PropertyFlags,
    build_unchecked,
    count_flags,
    validate,
)
from .errors import InputError
from .groups import FiniteGroup, build_group, parse_int_table


def group_spec_json(g: FiniteGroup):
    """A group's file representation: its spec string, or the raw table."""
    if g.spec is not None:
        return g.spec
    return {"order": g.order, "add": [list(row) for row in g.add]}


def nearring_json(r: Nearring) -> dict:
    out = {}
    if r.name:
        out["name"] = r.name
    out["group"] = group_spec_json(r.group)
    out["mul"] = [list(row) for row in r.mul]
    return out


def serialize_nearring(r: Nearring) -> str:
    return json.dumps(nearring_json(r), sort_keys=True, separators=(", ", ": "))


def parse_nearring_json(obj, permissive: bool = False) -> Nearring:
    """Build a nearring from its file object.

    The group is always fully validated and the multiplication table is
    always shape/range checked. With permissive=True the nearring axioms
    themselves are not enforced, so diagnostic commands can run the check
    suite against corrupted tables; flags are honestly recomputed either
    way.
    """
    if not isinstance(obj, dict):
        raise InputError("nearring file must contain a JSON object")
    if "group" not in obj or "mul" not in obj:
        raise InputError('nearring object needs "group" and "mul" fields')
    group = build_group(obj["group"])
    table = parse_int_table(obj["mul"], "mul")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError('"name" must be a string')
    candidate = CandidateMultiplication(group, table)  # shape/range check
    if permissive:
        return build_unchecked(group, table, name=name)
    return validate(candidate, name=name)


def parse_nearring_file(path, permissive: bool = False) -> Nearring:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_nearring_json(obj, permissive=permissive)


# -- census catalogs ------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def catalog_lines(result: CensusResult) -> list[str]:
    """Line-delimited catalog records plus the trailing summary record.

    Deliberately excludes elapsed time and worker count so that catalog
    bytes are a pure function of the census content.
    """
    spec = group_spec_json(result.group)
    lines = [
        _dump({"group": spec, "mul": [list(row) for row in rep],
               "flags": flags.as_dict()})
        for rep, flags in zip(result.representatives, result.rep_flags)
    ]
    lines.append(_dump({"summary": {
        "group": spec,
        "convention": "left",
        "iso_reduction": result.iso_reduction,
        "filters": list(result.filters),
        "counts": result.counts,
        "nodes_visited": result.nodes_visited,
        "oracle": result.oracle,
        "version": __version__,
    }}))
    return lines


def write_catalog(path, result: CensusResult) -> None:
    """Write the catalog atomically: the file appears complete or not at all."""
    data = "\n".join(catalog_lines(result)) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".catalog-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_catalog(path) -> tuple[list[dict], dict]:
    """Read a catalog back: (records, summary). Counts are recomputable
    from the records without re-enumeration."""
    records = []
    summary = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if "summary" in obj:
                    summary = obj["summary"]
                else:
                    records.append(obj)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not a valid catalog: {exc}") from exc
    if summary is None:
        raise InputError(f"{path} has no summary record")
    return records, summary


def counts_from_records(records) -> dict[str, int]:
    return count_flags(PropertyFlags(**rec["flags"]) for rec in records)


def suite_report_json(report: SuiteReport) -> str:
    return _dump(report.as_dict())
