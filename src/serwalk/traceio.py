"""Trace serialization: walks to/from CSV and JSON lines, plus reports.

Dense walk traces are CSV with header ``index,phase,coord_0,...``; the
start point (index 0) is never written, and every trace starts at the
origin: a walk anchored elsewhere reads back with its sums unchanged and
only its first step moved.  Dyadic values render as exact terminating
decimal strings -- never scientific notation -- so golden files stay
stable.  Sequence-space walks serialize as JSON lines
``{"index": n, "phase": p, "entries": {"i": v, ...}}``.  The readers take
only what the writers write: the writer's header (a sample's is
``coord_0,...``), CSV coordinates that are plain decimals in the float
range, JSON ints or finite floats for sparse entries and dense terms, JSON
ints for a JSON line's index and phase, and integers as ``str(int)``
writes them for a CSV index or phase and a sparse key, which is at least 1.

A CSV file is read ``_BLOCK`` rows at a time, and only one block's strings
are held.  A block is checked in bulk, and only when that fails does
:func:`_check_rows`, the one statement of the format rules, scan it.

Each reader parses every distinct raw spelling once, into a per-file memo
that holds only spellings that passed.  A trace's values are Fractions
until a cell is not dyadic, then floats, its earlier sums included.

A CSV row is checked for its width, then its cells left to right, then its
index, then its phase.  A format fault in any row beats an order fault
(:func:`_check_order`, shared with JSON lines) in any row, and a
``csv.Error`` comes after the rows before it: an error names the first bad
row.  A trace may skip phase numbers but names none past its row count.

Sparse entries have one decoder, :func:`_decode_entries`.  Only a terms
file that opens as ``write_terms_json`` writes a sparse one repeats enough
spellings to repay :class:`_Numbers` as ``parse_float``, which makes each
finite non-integral float a Fraction once per spelling.

The sparse writers keep two memos for one call: each int key's ``"i": ``
text, and each value's ``repr`` text with its ``", "`` separator, keyed by
the ``id`` of its Fraction object.  The caller's terms or walk hold every
value object for the whole call, so no id is reused while its text is
memoized.  A term is the interleaved join of the two texts without its
last separator, and the bytes are those of ``json.dumps``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import chain, count, islice
from operator import eq
from typing import Optional, Sequence, TextIO

from .core import PointSample, is_dyadic
from .seqspace import SparseVec
from .walks import Walk


def render_scalar(x) -> str:
    """Exact terminating decimal for dyadic values; plain decimal (no
    exponent) for floats."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if not is_dyadic(x):
            x = float(x)
        else:
            # 1/2^k = 5^k/10^k: the numerator times 5^k has k decimals
            k = x.denominator.bit_length() - 1
            if k == 0:
                return str(x.numerator)
            digits = str(abs(x.numerator) * 5 ** k).rjust(k + 1, "0")
            return f"{'-' if x < 0 else ''}{digits[:-k]}.{digits[-k:]}"
    s = repr(float(x))
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    return s


#: a CSV coordinate as render_scalar writes it
_PLAIN_DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


def _read_cell(cell: str, where: str) -> Fraction:
    """A CSV coordinate as an exact Fraction: a plain decimal whose value
    fits a float (``float`` rounds the text as it rounds the Fraction), else
    ValueError.  So ``1/3``, ``1_0`` and `` 1`` are not reinterpreted, and
    ``1e400`` or ``1e-999999999`` is never expanded."""
    if _PLAIN_DECIMAL.fullmatch(cell) and math.isfinite(float(cell)):
        return Fraction(cell)
    raise ValueError(f"{where} holds {cell!r:.40}, not a plain decimal in the float range")


def _read_int(text: str, where: str) -> int:
    """An integer written as ``str(int)`` writes it, else ValueError: no
    sign ``+``, no spaces, no ``_`` and no leading zeros."""
    try:
        if str(int(text)) == text:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"{where} holds {text!r:.40}, not a plain integer")


def _read_index(text: str, where: str) -> int:
    """A sparse key: an integer as ``str(int)`` writes it and at least 1."""
    i = _read_int(text, where)
    if i < 1:
        raise ValueError(f"{where} has index {i}, not a 1-based positive integer")
    return i


def write_walk_csv(w: Walk, fp: TextIO) -> None:
    if hasattr(w.sums[0], "entries"):
        raise ValueError("CSV traces are for dense walks")
    dim = len(w.sums[0])
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["index", "phase"] + [f"coord_{i}" for i in range(dim)])
    for phase, (lo, hi) in enumerate(w.phase_blocks(), start=1):
        for n in range(lo, hi):
            writer.writerow([n, phase] + [render_scalar(c) for c in w.sums[n]])


def _check_order(index, phase: list, k: int, last: int) -> None:
    """ValueError naming the first of rows k + 1, k + 2, ... whose index is
    not its number or whose phase is below 1 or the one before (last, for
    row k + 1), which would move rows between phases: the loop names it."""
    phases = [max(last, 1), *phase]  # the least phase, then the rows'
    if all(map(eq, index, count(k + 1))) and phases == sorted(phases):
        return
    for k, i, p in zip(count(k + 1), index, phase):
        if i != k:
            raise ValueError(f"row {k} has index {i}, expected {k}")
        if p < max(last, 1):
            raise ValueError(f"row {k} has phase {p} after phase {last}")
        last = p


def _phase_lengths(counts: Counter) -> list[int]:
    """Phase lengths from each phase's count of rows, refusing a phase past
    the row count, which no writer writes, before it sizes the list."""
    if not counts:
        raise ValueError("empty trace")
    if max(counts) > counts.total():
        raise ValueError(f"phase {max(counts)} in a trace of {counts.total()} rows")
    return [counts[p] for p in range(1, max(counts) + 1)]


#: the rows of a CSV file that are read and checked at a time
_BLOCK = 1 << 14


def _csv_blocks(fp: TextIO, what: str):
    """The header row ``csv.reader`` reads from fp ([] if none), then lists
    of up to ``_BLOCK`` of its other rows.  A ``csv.Error``, such as a field
    past ``csv.field_size_limit``, ends them with the rows before it and a
    ValueError naming its line."""
    reader, block = csv.reader(fp), []
    try:
        yield next(reader, [])
        while block.extend(islice(reader, _BLOCK)) or block:
            yield block
            block = []
    except csv.Error as err:
        if block:
            yield block
        raise ValueError(f"{err} at {what} line {reader.line_num}") from err


def _check_rows(rows, n: int, what: str, width: int, lead: int, cells: dict) -> None:
    """The CSV format rules: ValueError naming the first row, counted from
    n, that is not blank and not width cells long, or whose cells past the
    first lead _read_cell refuses (into cells), or _read_int its first lead."""
    for n, row in enumerate(rows, start=n):
        if row and len(row) != width:  # a blank row has no cells to check
            raise ValueError(f"row width mismatch at {what} row {n}")
        where = f"{what} row {n}"
        for c in row[lead:]:
            if c not in cells:
                cells[c] = _read_cell(c, where)
        for text in row[:lead]:
            _read_int(text, where)


def _read_block(rows, n: int, what: str, width: int, lead: int, cells: dict):
    """The columns of the non-blank rows, numbered from n, and the new memo
    entries of their cells past lead, checked in bulk or by _check_rows."""
    body = list(filter(None, rows))
    columns = list(zip(*body)) or [()] * width
    try:
        if set(map(len, body)) <= {width}:
            new = {c: _read_cell(c, "")
                   for c in set().union(*columns[lead:]).difference(cells)}
            cells.update(new)
            return columns, new
    except ValueError:
        pass
    _check_rows(rows, n, what, width, lead, cells)


def read_walk_csv(fp: TextIO) -> Walk:
    blocks = _csv_blocks(fp, "trace")
    header = next(blocks)
    dim = len(header) - 2
    if dim < 1 or header != ["index", "phase"] + [f"coord_{i}" for i in range(dim)]:
        raise ValueError("bad trace header: not index,phase,coord_0,...")
    cells, phases = {}, {}  # raw cell -> its Fraction, raw phase -> its int
    values = cells  # raw cell -> its value in the walk
    counts, sums = Counter(), []  # phase -> its rows
    for n, block in (numbered := zip(count(1, _BLOCK), blocks)):
        (index, phase, *coords), new = _read_block(block, n, "trace", dim + 2, 2, cells)
        rows = range(len(sums) + 1, len(sums) + len(index) + 1)
        try:
            phases.update({p: _read_int(p, "") for p in set(phase).difference(phases)})
            in_order = index == tuple(map(str, rows))
        except ValueError:
            in_order = False
        if not in_order:
            _check_rows(block, n, "trace", dim + 2, 2, cells)  # a format fault,
            rows = list(map(int, index))  # else the index is out of order
        phase = list(map(phases.__getitem__, phase))
        try:
            _check_order(rows, phase, len(sums), max(counts, default=0))
        except ValueError:  # raised once every later row's format passed
            for n, block in numbered:
                _check_rows(block, n, "trace", dim + 2, 2, cells)
            raise
        counts.update(phase)
        if values is cells and not all(map(is_dyadic, new.values())):
            values, new = {}, cells  # floats from here on
            sums = [tuple(map(float, p)) for p in sums]
        if values is not cells:
            values.update(zip(new, map(float, new.values())))
        sums.extend(zip(*(map(values.__getitem__, col) for col in coords)))
    start = tuple([Fraction(0) if values is cells else 0.0] * dim)
    return Walk([start] + sums, _phase_lengths(counts))


class _KeyTexts(dict):
    """int key -> its JSON member prefix ``"i": ``, made on first use."""

    def __missing__(self, i):
        text = self[i] = f'"{i}": '
        return text


def _encode_entries(v, keys: _KeyTexts, texts: dict) -> str:
    """The JSON text of a SparseVec's entries, as ``json.dumps`` writes them:
    integral values as ints, the rest as floats (``numerator / denominator``
    is the float ``float(x)`` gives, without its generic method), each in
    the ``repr`` that ``json`` writes for it.  ``keys`` and ``texts`` are the
    caller's memos; ``texts`` is keyed by ``id(value)``, so the caller keeps
    every value it has seen alive."""
    vals = v.entries.values()
    ids = list(map(id, vals))
    missing = set(ids).difference(texts)
    if missing:
        by_id = dict(zip(ids, vals))
        for i in missing:
            x = by_id[i]
            texts[i] = repr(x.numerator if x.denominator == 1
                            else x.numerator / x.denominator) + ", "
    text = "".join(chain.from_iterable(zip(map(keys.__getitem__, v.entries),
                                           map(texts.__getitem__, ids))))
    return "{" + text[:-2] + "}"


#: the types of the numbers _check_numbers takes (bool is not int)
_NUMBER_TYPES = frozenset((int, float, Fraction))


def _check_numbers(values, where: str) -> None:
    """ValueError unless every value is a JSON int (not a bool), a float
    whose float value is finite, or a Fraction :class:`_Numbers` made of
    one."""
    for x in values:
        try:
            if type(x) in _NUMBER_TYPES and math.isfinite(x):
                continue
        except OverflowError:  # an int beyond the float range
            pass
        raise ValueError(f"{where} holds {x!r:.40}, not a finite number")


class _Numbers(dict):
    """JSON float token text -> its number, made on first use: the exact
    Fraction of a finite non-integral float, else the float itself (zeros,
    integral and non-finite floats), which the per-entry rules then take."""

    def __missing__(self, text):
        x = float(text)
        number = self[text] = (Fraction(x) if math.isfinite(x) and not x.is_integer()
                               else x)
        return number


def _decode_entries(entries, where: str, keys: dict, values: dict) -> SparseVec:
    """Inverse of _encode_entries: what the validating ``SparseVec`` would
    build, built through the trusted ``SparseVec._clean``.  Values that are
    all Fractions, which only :class:`_Numbers` makes, are finite and
    nonzero; any others are checked, made Fractions once each into the memo
    values and dropped if zero.  Keys missing from the memo keys are
    checked, in entry order, so the keys are distinct ints."""
    if not isinstance(entries, dict):
        raise ValueError(f"{where} has no entries object")
    numbers = entries.values()  # a JSON line's first value is never a Fraction
    exact = (type(next(iter(numbers), None)) is Fraction
             and set(map(type, numbers)) == {Fraction})
    if not exact:
        _check_numbers(numbers, where)
    if not (exact and entries.keys() <= keys.keys()):  # a term's keys, in C
        for i in entries:
            if i not in keys:
                keys[i] = _read_index(i, where)
    if exact:
        clean = dict(zip(map(keys.__getitem__, entries), numbers))
    else:
        clean = {}
        for i, x in entries.items():
            if x:  # zero, 0.0 and -0.0 are dropped
                if x not in values:
                    values[x] = Fraction(x)
                clean[keys[i]] = values[x]
    order = list(clean)
    if order != sorted(order):
        clean = {i: clean[i] for i in sorted(order)}
    return SparseVec._clean(clean)


def write_walk_jsonl(w: Walk, fp: TextIO) -> None:
    if not hasattr(w.sums[0], "entries"):
        raise ValueError("JSON-line traces are for sequence-space walks")
    keys, texts = _KeyTexts(), {}  # w.sums holds every value for this call
    for phase, (lo, hi) in enumerate(w.phase_blocks(), start=1):
        for n in range(lo, hi):
            text = _encode_entries(w.sums[n], keys, texts)
            fp.write(f'{{"index": {n}, "phase": {phase}, "entries": {text}}}\n')


def read_walk_jsonl(fp: TextIO) -> Walk:
    sums, index, phase = [], [], []
    keys, values = {}, {}  # raw key -> its int; number -> its Fraction
    for n, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"line {n} is not a JSON object")
        i, p = rec.get("index"), rec.get("phase")
        if type(i) is not int or type(p) is not int:
            raise ValueError(f"line {n} has index {i!r:.40} and phase "
                             f"{p!r:.40}, not two JSON ints")
        sums.append(_decode_entries(rec.get("entries"), f"line {n}", keys, values))
        index.append(i)
        phase.append(p)
    _check_order(index, phase, 0, 0)
    return Walk([SparseVec()] + sums, _phase_lengths(Counter(phase)))


def read_sample_csv(fp: TextIO) -> PointSample:
    blocks = _csv_blocks(fp, "sample")
    header = next(blocks)
    if not header or header != [f"coord_{i}" for i in range(len(header))]:
        raise ValueError("bad sample header: not coord_0,coord_1,...")
    pts: list = []
    for n, block in zip(count(1, _BLOCK), blocks):
        # a memo per block: one for the file would hold every point's text
        columns, cells = _read_block(block, n, "sample", len(header), 0, {})
        pts.extend(zip(*(map(float, map(cells.__getitem__, col)) for col in columns)))
    if not pts:
        raise ValueError("empty sample")
    return PointSample(tuple(pts))


#: the opening of a sparse terms file as write_terms_json writes it, after
#: any JSON whitespace
_SPARSE_TERMS_OPENING = re.compile(r'[ \t\n\r]*\{"terms": \[\{')


def _term_kind(t, n: int) -> str:
    if isinstance(t, dict):
        return "sparse"
    if isinstance(t, list):
        return "dense"
    raise ValueError(f"term {n} is neither a dense list nor a sparse object")


def read_terms_json(fp: TextIO):
    """Series terms from JSON {"terms": [...]}, never a bare list: all
    dense lists of one length, read as float tuples, or all sparse
    {index: value} objects, read as SparseVecs.  Every value must be a
    JSON int or a finite float.  A term (numbered from 1) that breaks a
    rule raises ValueError naming it."""
    text = fp.read()
    doc = json.loads(text, parse_float=_Numbers().__getitem__
                     if _SPARSE_TERMS_OPENING.match(text) else None)
    del text  # freed before the terms are decoded, as json.load frees it
    terms = doc.get("terms") if isinstance(doc, dict) else None
    if not isinstance(terms, list) or not terms:
        raise ValueError("no terms")
    kind = _term_kind(terms[0], 1)
    out = []
    keys, values = {}, {}  # raw key -> its int; number -> its Fraction
    for n, t in enumerate(terms, start=1):
        if _term_kind(t, n) != kind:
            raise ValueError(f"term {n} is {_term_kind(t, n)}, term 1 is {kind}")
        if kind == "sparse":
            out.append(_decode_entries(t, f"term {n}", keys, values))
            continue
        if len(t) != len(terms[0]):
            raise ValueError(f"term {n} has {len(t)} coordinates, "
                             f"term 1 has {len(terms[0])}")
        _check_numbers(t, f"term {n}")
        out.append(tuple(float(c) for c in t))
    return out


def write_terms_json(terms: Sequence, fp: TextIO) -> None:
    """The bytes of ``json.dump({"terms": [...]})`` and a newline, written
    one term at a time: a sparse term through _encode_entries, whose memo
    ``terms`` keeps sound by holding every value for this call, and a dense
    one through ``json.dumps``, whose C encoder ``json.dump`` never uses."""
    keys, texts = _KeyTexts(), {}
    fp.write('{"terms": [')
    for n, t in enumerate(terms):
        text = (_encode_entries(t, keys, texts) if hasattr(t, "entries")
                else json.dumps([float(c) for c in t]))
        fp.write((", " if n else "") + text)
    fp.write("]}\n")


def estimate_report(est, verdicts: Optional[dict] = None) -> dict:
    """JSON-ready estimate report {resolution, window, points, hit_counts,
    verdicts}."""
    pts = []
    for p in est.points.points:
        if hasattr(p, "entries"):
            pts.append({str(i): float(v) for i, v in p.entries.items()})
        else:
            pts.append([float(c) for c in p])
    return {"resolution": est.resolution,
            "window": [est.window_start, None],
            "points": pts,
            "hit_counts": list(est.hit_counts),
            "verdicts": verdicts or {}}


# ---------------------------------------------------------------------------
# SVG plotting (write-only; no viewer)

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2"]


def write_walk_svg(w: Walk, fp: TextIO, marks: Optional[Sequence]) -> None:
    """SVG polyline of a 2-D walk, one color per phase, optional marked
    2-D sample points, with x-axis tick labels at the integer and
    half-integer abscissae the trace reaches, on a 480-pixel square.
    Anything else raises ValueError before the first write."""
    if hasattr(w.sums[0], "entries") or len(w.sums[0]) != 2:
        raise ValueError("plotting needs a 2-D dense trace")
    if any(len(p) != 2 for p in marks or ()):
        raise ValueError("plot marks must be 2-D points")
    size = 480
    xs = [float(p[0]) for p in w.sums]
    ys = [float(p[1]) for p in w.sums]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.08 * span

    def sx(x):
        return (x - lo_x + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - lo_y + pad) / (span + 2 * pad) * size

    fp.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">\n')
    fp.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    # tick labels on half-integer levels inside the data range
    tick = Fraction(1, 2)
    level = Fraction(math.ceil(lo_x / 0.5)) * tick
    while float(level) <= hi_x + 1e-9:
        fp.write(f'<text x="{sx(float(level)):.1f}" y="{size - 4}" '
                 f'font-size="10" text-anchor="middle">{render_scalar(level)}'
                 '</text>\n')
        level += tick
    for (lo, hi), color in zip(w.phase_blocks(),
                               _PALETTE * (len(w.phase_blocks()) // len(_PALETTE) + 1)):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                          for x, y in zip(xs[lo - 1:hi], ys[lo - 1:hi]))
        fp.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                 f'points="{coords}"/>\n')
    for p in marks or ():
        fp.write(f'<circle cx="{sx(float(p[0])):.2f}" cy="{sy(float(p[1])):.2f}" '
                 'r="2.5" fill="black"/>\n')
    fp.write("</svg>\n")
