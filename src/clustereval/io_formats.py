"""Clustering file parsing and report serialization.

Two clustering formats, both UTF-8 with LF or CRLF line endings, blank lines
and ``#`` comment lines ignored:

* ``cluster_lines`` — one cluster per line, instance ids separated by
  horizontal whitespace.
* ``membership_pairs`` — one ``instance_id<TAB>cluster_label`` row per line;
  clusters are the groups of equal labels.

Auto-detection picks ``membership_pairs`` when the first data line contains
a TAB, else ``cluster_lines``; :func:`sniff_format` applies that rule to a
file without reading past its first data line.

The parser fills the two columns of a :class:`Clustering` (ids in cluster
order, cluster sizes) in one pass over the file's lines, builds it with the
checking constructor, and rescans the lines only when that finds a repeated
id, to name the first repeat in file order with both line numbers. A
malformed membership-pairs row anywhere in the file is therefore reported
before any repeat.

Machine reports are JSON whose keys follow the report dataclasses' fields,
with every float rendered as fixed-point with 12 decimals (never scientific
notation), so rendering what ``json.loads`` reads back is byte-identical and
goldens diff cleanly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import chain
from typing import Iterable

from . import __version__
from .errors import DuplicateInstance, ParseError
from .model import Clustering, FullReport

SCHEMA_VERSION = 1

FORMAT_AUTO = "auto"
FORMAT_CLUSTER_LINES = "cluster_lines"
FORMAT_MEMBERSHIP_PAIRS = "membership_pairs"
FORMATS = (FORMAT_AUTO, FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS)

MEASURE_ORDER = ("cluster_f", "k_metric", "se_le", "pairwise", "b_cubed")
TABLE_LABELS = {
    "cluster_f": "Cluster-F",
    "k_metric": "K-metric",
    "se_le": "SE&LE",
    "pairwise": "Pairwise-F",
    "b_cubed": "B-cubed",
}


def _is_data_line(line: str) -> bool:
    # A CRLF line keeps its CR: every later step strips or splits on whitespace, which includes it.
    return bool(head := line.lstrip()) and head[0] != "#"


def _detected_format(lines: Iterable[str]) -> str | None:
    """Auto-detection's pick from the first data line of ``lines``; None when there is none."""
    first = next(filter(_is_data_line, lines), None)
    if first is None:
        return None
    return FORMAT_MEMBERSHIP_PAIRS if "\t" in first else FORMAT_CLUSTER_LINES


def sniff_format(path) -> str | None:
    """Auto-detection's pick for a file, read only up to its first data line; None without one."""
    # Lines end at "\n" only, and a BOM is dropped, as in parse_clustering.
    with open(path, encoding="utf-8-sig", errors="replace", newline="\n") as handle:
        return _detected_format(handle)


def parse_clustering(source: str | bytes, format: str = FORMAT_AUTO, role: str = "truth") -> Clustering:
    """Parse one clustering from text or bytes in either file format, in one pass over its lines."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8-sig")  # tolerate a Windows BOM
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    if format not in FORMATS:
        raise ValueError(f"unknown clustering format {format!r}")

    rows = source.split("\n")
    if format == FORMAT_AUTO:
        format = _detected_format(rows) or FORMAT_CLUSTER_LINES

    if format == FORMAT_CLUSTER_LINES:
        ids, sizes = [], []
        for line in rows:
            # split() and lstrip() share one definition of whitespace, so this is _is_data_line.
            tokens = line.split()
            if tokens and tokens[0][0] != "#":
                ids += tokens
                sizes.append(len(tokens))
    else:
        groups: dict[str, list[str]] = {}
        for number, line in enumerate(rows, 1):
            if not (head := line.lstrip()) or head[0] == "#":  # _is_data_line, inlined: a call costs ~8% here
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(
                    f"expected 'instance<TAB>label', found {len(fields)} tab-separated fields",
                    line=number,
                )
            instance = fields[0].strip()
            label = fields[1].strip()
            if not instance:
                raise ParseError("empty instance id", line=number, column=1)
            if not label:
                raise ParseError("empty cluster label", line=number, column=len(fields[0]) + 2)
            groups.setdefault(label, []).append(instance)
        ids = list(chain.from_iterable(groups.values()))
        sizes = list(map(len, groups.values()))
    # Free the line list before the constructor's duplicate check builds its set; a rescan splits again.
    del rows
    ids, sizes = tuple(ids), tuple(sizes)
    try:
        return Clustering(ids, sizes, role)
    except DuplicateInstance:
        # Name the first repeat in file order, with the lines of both occurrences.
        first_seen: dict[str, int] = {}
        for number, line in enumerate(source.split("\n"), 1):
            if not _is_data_line(line):
                continue
            for token in line.split() if format == FORMAT_CLUSTER_LINES else (line.split("\t")[0].strip(),):
                if token in first_seen:
                    raise DuplicateInstance(token, first_seen[token], number) from None
                first_seen[token] = number
        raise


def parse_clustering_file(path, format: str = FORMAT_AUTO, role: str = "truth") -> Clustering:
    with open(path, "rb") as handle:
        return parse_clustering(handle.read(), format=format, role=role)


def write_clustering(clustering: Clustering, format: str = FORMAT_CLUSTER_LINES) -> str:
    """Serialize a clustering; ``ValueError`` for an id that would not read back the same."""
    if format == FORMAT_CLUSTER_LINES:
        rows = []
        for cluster in clustering.clusters:
            ids = [str(x) for x in cluster]
            for text in ids:
                if not text or any(ch.isspace() for ch in text):
                    raise ValueError(f"instance id {text!r} cannot be written in cluster_lines format")
            if ids[0].startswith("#"):
                raise ValueError(f"instance id {ids[0]!r} would start a comment line in cluster_lines format")
            rows.append(" ".join(ids))
        return "\n".join(rows) + "\n"
    if format == FORMAT_MEMBERSHIP_PAIRS:
        rows = []
        for index, cluster in enumerate(clustering.clusters):
            for instance in cluster:
                text = str(instance)
                if not text or text[0] == "#" or text.strip() != text or any(ch in text for ch in "\t\n\r"):
                    raise ValueError(f"instance id {text!r} cannot be written in membership_pairs format")
                rows.append(f"{text}\tc{index}")
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown clustering format {format!r}")


def build_report_document(
    report: FullReport,
    engine: str = "single_pass",
    timing_seconds: float | None = None,
    measures: tuple[str, ...] = MEASURE_ORDER,
) -> dict:
    """The report's dataclasses as one document, keeping only ``measures``.

    Field names and order come from the dataclasses; ``stats`` and ``flags``
    always describe the whole report.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": engine,
        "package_version": __version__,
        "measures": {name: asdict(getattr(report, name)) for name in measures},
        "stats": asdict(report.stats),
        "flags": list(report.flags),
    }
    if timing_seconds is not None:
        doc["timing"] = {"seconds": float(timing_seconds)}
    return doc


def _render_value(value, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{inner}{json.dumps(key)}: ")
            _render_value(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(inner)
            _render_value(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("report documents cannot carry non-finite numbers")
        out.append(format(value, ".12f"))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report document")


def render_report_document(doc: dict) -> str:
    out: list[str] = []
    _render_value(doc, 0, out)
    out.append("\n")
    return "".join(out)


def _render_table(doc: dict) -> str:
    measures = doc["measures"]
    lines = [f"{'Measure':<12}{'Recall':>9}{'Precision':>11}{'F':>9}"]
    for name, fields in measures.items():
        lines.append(
            f"{TABLE_LABELS[name]:<12}{fields['recall']:>9.4f}{fields['precision']:>11.4f}{fields['combined']:>9.4f}"
        )
    stats = doc["stats"]
    lines.append("")
    if "se_le" in measures:
        lines.append(f"SE = {measures['se_le']['se']:.4f}   LE = {measures['se_le']['le']:.4f}")
    lines.append(
        f"instances: {stats['n_instances']}   truth clusters: {stats['n_truth_clusters']}   "
        f"predicted clusters: {stats['n_predicted_clusters']}"
    )
    lines.append(
        f"pairs: truth {stats['pair_tr_sum']}, predicted {stats['pair_pr_sum']}, shared {stats['pair_int_sum']}"
    )
    for flag in doc["flags"]:
        lines.append(f"flag: {flag}")
    return "\n".join(lines) + "\n"


def write_report(
    report: FullReport,
    style: str = "machine",
    engine: str = "single_pass",
    timing_seconds: float | None = None,
    measures: tuple[str, ...] = MEASURE_ORDER,
) -> str:
    """Render a report, machine (stable JSON) or human table style, keeping only ``measures``.

    Both styles render the one document :func:`build_report_document` builds.
    """
    if style not in ("machine", "table"):
        raise ValueError(f"unknown report style {style!r}")
    doc = build_report_document(report, engine, timing_seconds, measures)
    return render_report_document(doc) if style == "machine" else _render_table(doc)
