"""File formats: nearring files, census catalogs, and suite reports.

The JSON shapes here are the machine contract; the CLI's text output is
explicitly unstable. Catalog files are written atomically and contain no
timing or worker metadata, so identical runs produce identical bytes.

A census holds only |End| distinct rows and a handful of distinct flag
sets, so catalog records and census suite reports are joined from JSON
fragments that are each encoded once, not dumped record by record. The
joined text is the same canonical JSON a whole-record dump gives. Both
outputs are streamed: each record or report is written as it is joined,
so neither file is ever held whole in memory. `stream_catalog` goes
further and writes each record as the census finds its class, joined
from the class's index tuple, so no class is held at all.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import tempfile
import threading

from . import __version__
from .census import CensusResult, SearchSpec, _Memo, census_classes, census_rows
from .checks import SuiteReport, summarize_reports
from .core import (
    CandidateMultiplication,
    Nearring,
    build_unchecked,
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
    if permissive:
        return build_unchecked(group, table, name=name)
    return validate(CandidateMultiplication(group, table), name=name)


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


def _record_joiner(group: FiniteGroup, row_text):
    """record(rows, flags): one catalog record, joined in sorted-key order
    from the once-encoded flag set, group spec and rows, so it equals
    _dump of the record's dict. row_text[key] is the JSON text of the row
    that key stands for. The flag text is memoised on the flag set's
    value, and a group has at most 16 flag sets."""
    spec = _dump(group_spec_json(group))
    flag_text = _Memo(lambda flags: _dump(flags.as_dict()))
    row = row_text.__getitem__

    def record(rows, flags) -> str:
        return f'{{"flags":{flag_text[flags]},"group":{spec},"mul":[{",".join(map(row, rows))}]}}'

    return record


def _summary_line(result: CensusResult) -> str:
    """The catalog's trailing summary record.

    Deliberately excludes elapsed time and worker count so that catalog
    bytes are a pure function of the census content.
    """
    return _dump({"summary": {
        "group": group_spec_json(result.group),
        "convention": "left",
        "iso_reduction": result.iso_reduction,
        "filters": list(result.filters),
        "counts": result.counts,
        "nodes_visited": result.nodes_visited,
        # Catalogs are written from the search only; the key stays so
        # that catalog bytes are unchanged.
        "oracle": False,
        "version": __version__,
    }})


@contextlib.contextmanager
def _atomic_text(path):
    """A text file that replaces `path` when the block ends, so the file
    appears complete or not at all; if the block raises, the temporary
    file is removed. The file gets the mode open() would give a new
    file, 0o666 less the umask, not mkstemp's 0o600.

    `path` must be new or a regular file, or a link to one, which the
    file replaces. A FIFO, a device or a directory is refused before
    anything is written, since the replace would put a regular file in
    its place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise InputError(f"{path} exists and is not a regular file")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".catalog-", suffix=".tmp")
    # The umask is read by setting it; 0o077 meanwhile opens no other file wider.
    umask = os.umask(0o077)
    os.umask(umask)
    try:
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_exits():
    """Within the block SIGTERM raises SystemExit, with the shell's exit
    status 128 + SIGTERM, so `_atomic_text` removes its temporary file;
    the previous handler is restored after it. Only the main thread may
    set a handler, so elsewhere the block runs with the handler it has."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_exit)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def write_catalog(path, result: CensusResult) -> None:
    """Write the catalog of a census result atomically: each record as it
    is joined, then the trailing summary record."""
    record = _record_joiner(result.group, _Memo(lambda row: _dump(list(row))))
    with _atomic_text(path) as fh:
        for rep, f in zip(result.representatives, result.rep_flags):
            fh.write(record(rep, f) + "\n")
        fh.write(_summary_line(result) + "\n")


def stream_catalog(path, spec: SearchSpec) -> CensusResult:
    """Run the census of spec and write its catalog atomically: each record
    as the census finds its class, then the summary. Returns the census
    result, with no representatives.

    Records are joined from index tuples with one encoded row per
    endomorphism, so the bytes equal write_catalog's of census(spec), and
    no class is held or decoded.

    SIGTERM ends the census as an exception that removes the temporary
    file, with any number of workers: the census kills and reaps its
    forked search process on the way out, and that keeps SIGTERM's
    default action.
    """
    row_text = [_dump(list(row)) for row in census_rows(spec.group)]
    record = _record_joiner(spec.group, row_text)
    with _sigterm_exits(), _atomic_text(path) as fh:
        result = census_classes(spec, lambda t, f: fh.write(record(t, f) + "\n"))
        fh.write(_summary_line(result) + "\n")
    return result


def suite_report_json(report: SuiteReport) -> str:
    return _dump(report.as_dict())


# `lemmas --census --format json` keeps json.dumps's default separators.
_encode = json.JSONEncoder(sort_keys=True).encode


def write_census_reports(out, reports) -> dict:
    """Write the `lemmas --census` JSON document {"reports": [...],
    "summary": ...} and a newline to `out`, each report as it arrives, and
    return the summary.

    Nothing is written before the first report, so a census that fails
    before its first class leaves `out` empty. A census holds few distinct
    witness-free verdicts, so the text of each is memoised on its value;
    a verdict with a witness does not hash and is encoded on its own. The
    text equals json.dumps(..., sort_keys=True) of the whole document.
    """
    text = _Memo(lambda verdict: _encode(verdict.as_dict()))

    def written():
        for i, rep in enumerate(reports):
            verdicts = ", ".join(
                text[v] if v.witness is None else _encode(v.as_dict())
                for v in rep.verdicts)
            overall = '"pass"' if rep.overall else '"fail"'
            head = ", " if i else '{"reports": ['
            out.write(f'{head}{{"instance": {_encode(rep.instance)}, "overall": {overall}, '
                      f'"verdicts": [{verdicts}]}}')
            yield rep

    summary = summarize_reports(written())
    if not summary["instances"]:
        out.write('{"reports": [')
    out.write(f'], "summary": {_encode(summary)}}}\n')
    return summary
