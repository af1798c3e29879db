"""Clustering file parsing and report serialization.

Two clustering formats, both UTF-8 with lines ending where
:meth:`str.splitlines` ends them (LF, CRLF, a lone CR, VT, FF,
U+001C–U+001E, NEL, U+2028 or U+2029), blank and ``#`` comment lines ignored:

* ``clusters`` — one cluster per line, instance ids separated by whitespace.
* ``pairs`` — one ``instance_id<TAB>cluster_label`` row per line; clusters
  are the groups of equal labels.

Auto-detection picks ``pairs`` when the first data line contains a TAB,
else ``clusters``. It runs inside the parse, on the lines the parse has
already read, so a file's bytes are read once: :func:`parse_chunks`
returns the format it read them in. A parse takes a file's bytes, or the
open binary file itself, which it reads in pieces as it parses them, from
where the file stood when it was first read, so the whole file is never
held; the CLI passes a regular file that way, and any other input (a pipe,
a device) as its bytes. No
command calls :func:`parse_clustering_file`, which opens a path and parses
it, and it is kept only because ``perfbench/traced.py`` wraps it by name.
:func:`tab_after_first_data_line` tells when a file read as ``clusters``
has a TAB further on; for an open file, a parse's pass has already looked.

The parser, :func:`parse_chunks`, gives a file's two columns (ids in
cluster order, cluster sizes) as ``(ids, sizes)`` chunks in one pass over
its lines, each id passed, when asked, through a function as it is read:
:func:`~clustereval.model.validate` hands truth's parse the pop from its
label table, so two files join into labels without keeping an id column,
and a :class:`Clustering` is its chunks collected. Bytes are read (from a
file), decoded and cut into lines in batches of about 1 MiB, each running
through an LF, so no list of all the lines is ever built; the lines, their
numbers and every error message are those of the whole file's
``splitlines()``. An invalid byte anywhere in the file is reported before a
malformed row, as it would be if the whole file were decoded first: only
these error paths read a file whole again, from where its first pass
began. A failed read is a :class:`ParseError`. The parse does not look for
repeated ids: :func:`~clustereval.model.validate` names one from the table
it builds for the pair, and :func:`raise_repeat` rescans a file for that
id's lines. A malformed row anywhere in either of two parsed files is
therefore reported before any repeat.

:func:`build_report_document` builds a report's one document, and
:func:`write_report` renders that document in either style. Machine reports
are JSON whose keys follow the report dataclasses' fields, with every float
printed as its shortest round-trip repr, so ``json.loads`` gives back
exactly the engine's doubles and rendering what it reads back is
byte-identical. Values below 1e-4 may be printed with an exponent; a
non-finite value raises ``ValueError``.
"""

from __future__ import annotations

import io
import json
import weakref
from collections.abc import Iterator
from dataclasses import asdict
from itertools import chain
from typing import BinaryIO

from . import __version__
from .errors import DuplicateInstance, ParseError
from .model import Chunks, Clustering, FullReport

SCHEMA_VERSION = 1

_BATCH = 1 << 20  # bytes decoded at a time: each batch runs on to the next LF

# The open files whose last whole pass of batches read no TAB byte, so tab_after_first_data_line reads none of
# them again; weakly held, an entry goes with its file.
_TAB_FREE: weakref.WeakSet = weakref.WeakSet()
# The offset each open file's first pass began at, where every later pass begins again; weakly held.
_STARTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

FORMAT_AUTO = "auto"
FORMAT_CLUSTER_LINES = "clusters"
FORMAT_MEMBERSHIP_PAIRS = "pairs"
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
    return bool(head := line.lstrip()) and head[0] != "#"


def _text(data: bytes) -> str:
    """``data`` decoded as UTF-8, a BOM dropped."""
    try:
        return data.decode("utf-8-sig")  # tolerate a Windows BOM
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def _pieces(source: bytes | BinaryIO) -> Iterator[bytes]:
    """The bytes of ``source``, a file's bytes or the open binary file read from where its first pass began, in
    pieces of about ``_BATCH`` bytes, each running through an LF or to the end; a failed read is a ParseError."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)  # shares the bytes: a piece is the slice find(b"\n", start + _BATCH) would cut
    _TAB_FREE.discard(source)
    tab = False
    try:
        # Every pass reads the whole file, the parse and a rescan on an error path, from where the first began:
        # a descriptor handed on part-read starts there, as its bytes read whole would.
        source.seek(_STARTS.setdefault(source, source.tell()))
        # _BATCH bytes, then on through the next LF
        while piece := source.read(_BATCH) + source.readline():
            tab = tab or b"\t" in piece
            yield piece
    except OSError as exc:  # a failed read is bad input, as a failed open is
        raise ParseError(str(exc)) from None
    if not tab:
        _TAB_FREE.add(source)


def _whole(source: bytes | BinaryIO) -> bytes:
    """All the bytes of ``source``: a file is read again, whole, which only error paths do."""
    return source if isinstance(source, bytes) else b"".join(_pieces(source))


def _batches(source: bytes | BinaryIO) -> Iterator[list[str]]:
    """The lines of ``_text(_whole(source)).splitlines()``, one list per piece of ``source``."""
    # A piece runs through an LF, which is never inside a multi-byte sequence nor the first half of a CRLF, so
    # the pieces' lines are exactly those of the whole file, and only the first piece can start with a BOM.
    encoding = "utf-8-sig"
    for piece in _pieces(source):
        try:
            yield piece.decode(encoding).splitlines()
        except UnicodeDecodeError as exc:
            _text(_whole(source))  # raises a ParseError that gives the byte position in the whole file
            raise ParseError(f"input is not valid UTF-8: {exc}") from None  # the file changed since the piece
        encoding = "utf-8"


def _batches_and_format(source: bytes | BinaryIO, format: str) -> tuple[Iterator[list[str]], str | None]:
    """The batches of ``source``, read and decoded as they are consumed, and the format to read them in:
    ``format``, or the one detected from the first data line, None when auto-detection finds no data line."""
    if format not in FORMATS:
        raise ValueError(f"unknown clustering format {format!r}")
    batches = _batches(source)
    if format == FORMAT_AUTO:
        head = []  # the batches detection reads, given back in front of the rest
        format = None
        for lines in batches:
            head.append(lines)
            if (line := next(filter(_is_data_line, lines), None)) is not None:
                format = FORMAT_MEMBERSHIP_PAIRS if "\t" in line else FORMAT_CLUSTER_LINES
                break
        batches = chain(head, batches)
    return batches, format


def parse_chunks(source: bytes | BinaryIO, format: str = FORMAT_AUTO, key=None) -> tuple[Chunks, str | None]:
    """The clustering in ``source`` as ``(ids, sizes)`` chunks, parsed as they are consumed, and its format.

    ``source`` is a file's bytes, or the open binary file, which is read as the chunks are consumed, a batch
    at a time, from where it stood when it was first read. The format is ``format``, or the one detected from the first data line
    (None: no data lines); detection reads and decodes only the batches up to that line. Collected in order,
    the chunks' ids and sizes are the two columns of :func:`parse_clustering`'s result; given ``key``, each
    id is replaced by ``key(id)``, called once per id as the file is read, and only that result is kept. A
    cluster-lines file gives one chunk per batch of about ``_BATCH`` bytes, so only that batch's ids are
    alive while it is consumed. A membership-pairs file is grouped by label whole before its one chunk;
    given ``key``, each row's id is alive only while its row is read. A :class:`ParseError` is raised when
    the chunk that would hold the malformed row, invalid byte or failed read is consumed, or at once for one
    in the batches detection reads. A ``KeyError`` from ``key`` on a membership-pairs row is raised once the
    rest of the file is read, so a parse error there comes first.
    """
    batches, format = _batches_and_format(source, format)
    if format != FORMAT_MEMBERSHIP_PAIRS:  # a text without data lines reads as empty either way
        chunks = map(_cluster_lines, batches)
        return (chunks if key is None else ((map(key, ids), sizes) for ids, sizes in chunks)), format
    return _membership_pairs(source, batches, key), format


def _cluster_lines(lines: list[str]) -> tuple[list[str], list[int]]:
    """The ids and cluster sizes of one batch of cluster lines."""
    ids, sizes = [], []
    for line in lines:
        # split() and lstrip() share one definition of whitespace, so this is _is_data_line.
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            ids += tokens
            sizes.append(len(tokens))
    return ids, sizes


def _membership_pairs(source: bytes | BinaryIO, batches: Iterator[list[str]], key) -> Chunks:
    """The one chunk of a membership-pairs file: its rows' ids, or ``key`` of each, grouped by label, in the
    order labels first occur."""
    groups: dict[str, list] = {}
    failure = None  # the first KeyError of key, raised once no parse error is left to come first
    try:
        for number, line in enumerate(chain.from_iterable(batches), 1):
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
            try:
                groups.setdefault(label, []).append(instance if key is None else key(instance))
            except KeyError as exc:
                failure, key = exc, None
    except ParseError:
        _text(_whole(source))  # an invalid byte in a batch not yet decoded is reported first
        raise
    if failure is not None:
        raise failure
    yield chain.from_iterable(groups.values()), list(map(len, groups.values()))


def tab_after_first_data_line(source: bytes | BinaryIO) -> bool:
    """Whether a data line of ``source`` other than its first holds a TAB: a file that auto-detection reads as
    cluster lines, but that may be membership pairs whose first id holds a line break."""
    # Most files hold no TAB byte: bytes take one search, and an open file's whole parse has looked already.
    if isinstance(source, bytes) and b"\t" not in source or source in _TAB_FREE:
        return False
    data_lines = filter(_is_data_line, chain.from_iterable(_batches(source)))
    next(data_lines, None)
    return any("\t" in line for line in data_lines)


def parse_clustering(source: str | bytes, format: str = FORMAT_AUTO) -> Clustering:
    """Parse one clustering from text or bytes in either file format, in one pass over its lines.

    Text is read as its UTF-8 bytes, as a file would be; an unpaired surrogate there is invalid UTF-8.
    Repeated ids are read as they are; :func:`~clustereval.model.validate` rejects them.
    """
    source = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
    return _parse(source, format)[0]


def _parse(source: bytes | BinaryIO, format: str) -> tuple[Clustering, str | None]:
    """:func:`parse_clustering`, and the format it read ``source`` in (None: no data lines): its chunks collected."""
    chunks, format = parse_chunks(source, format)
    return Clustering.from_chunks(chunks), format


def raise_repeat(source: bytes | BinaryIO, format: str, instance) -> None:
    """Raise :class:`DuplicateInstance` at the second occurrence of ``instance``, naming both lines.

    Returns when ``instance`` occurs at most once. ``source`` is a file's bytes, or the open binary file, read
    again a batch at a time from where its first pass began, that :func:`parse_chunks` reads without error in
    ``format``, one of the two concrete formats.
    """
    batches, format = _batches_and_format(source, format)
    lines = []  # the number of each line ``instance`` occurs on, once per occurrence
    for number, line in enumerate(chain.from_iterable(batches), 1):
        if _is_data_line(line):
            tokens = line.split() if format == FORMAT_CLUSTER_LINES else [line.split("\t")[0].strip()]
            lines += [number] * tokens.count(instance)
            if len(lines) > 1:
                raise DuplicateInstance(instance, lines[0], lines[1])


def parse_clustering_file(path, format: str = FORMAT_AUTO) -> tuple[Clustering, str | None]:
    """The clustering in the file at ``path``, read once, and the format it was read in (None: no data lines)."""
    with open(path, "rb") as handle:
        return _parse(handle, format)


def write_clustering(clustering: Clustering, format: str = FORMAT_CLUSTER_LINES) -> str:
    """Serialize a clustering; ``ValueError`` for an id that would not read back the same."""
    if clustering.ids and str(clustering.ids[0]).startswith("\ufeff"):
        raise ValueError(f"instance id {clustering.ids[0]!r} would start the file, where U+FEFF is dropped as a BOM")
    if format == FORMAT_CLUSTER_LINES:
        rows = []
        for cluster in clustering.clusters:
            ids = [str(x) for x in cluster]
            for text in ids:
                if not text or any(ch.isspace() for ch in text):
                    raise ValueError(f"instance id {text!r} cannot be written in {FORMAT_CLUSTER_LINES} format")
            if ids[0].startswith("#"):
                raise ValueError(f"instance id {ids[0]!r} would start a comment line in {FORMAT_CLUSTER_LINES} format")
            rows.append(" ".join(ids))
        return "\n".join(rows) + "\n"
    if format == FORMAT_MEMBERSHIP_PAIRS:
        rows = []
        for index, cluster in enumerate(clustering.clusters):
            for instance in cluster:
                text = str(instance)
                if not text or text[0] == "#" or text.strip() != text or "\t" in text or text.splitlines() != [text]:
                    raise ValueError(f"instance id {text!r} cannot be written in {FORMAT_MEMBERSHIP_PAIRS} format")
                rows.append(f"{text}\tc{index}")
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown clustering format {format!r}")


def build_report_document(
    report: FullReport, engine: str = "single_pass", timing=None, measures: tuple[str, ...] = MEASURE_ORDER
) -> dict:
    """The report's dataclasses as one document, keeping only ``measures``.

    Field names and order come from the dataclasses; ``stats`` and ``flags``
    always describe the whole report. ``timing``, a mapping such as
    ``{"seconds": 0.1, "peak_rss_bytes": 2**25}``, is copied in last, in its
    own order; the document has no ``timing`` without it.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": engine,
        "package_version": __version__,
        "measures": {name: asdict(getattr(report, name)) for name in measures},
        "stats": asdict(report.stats),
        "flags": list(report.flags),
    }
    if timing is not None:
        doc["timing"] = dict(timing)
    return doc


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


def write_report(doc: dict, style: str = "machine") -> str:
    """Render a document :func:`build_report_document` built: stable JSON (machine) or a human table."""
    if style == "machine":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if style == "table":
        return _render_table(doc)
    raise ValueError(f"unknown report style {style!r}")
