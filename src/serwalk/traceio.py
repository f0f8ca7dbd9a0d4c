"""Trace serialization: walks to/from CSV and JSON lines, plus reports.

Dense walk traces are CSV with header ``index,phase,coord_0,...``; the
start point (index 0) is never written, and every trace starts at the
origin: a walk anchored elsewhere reads back with its sums unchanged and
only its first step moved.  Dyadic values render as exact terminating
decimal strings -- never scientific notation -- so golden files stay
stable.  Sequence-space walks serialize as JSON lines
``{"index": n, "phase": p, "entries": {"i": v, ...}}``.  Both readers
reject a trace whose index runs other than 1, 2, ..., n or whose phase
goes down.  Sparse entries and dense series terms must be JSON ints or
finite floats; JSON-line index and phase must be JSON ints.  The readers
take only what the writers write: a CSV header names exactly the columns
``index,phase,coord_0,...,coord_{m-1}`` (a sample's, ``coord_0,...``), a
CSV coordinate is a plain decimal in the float range (an optional ``-``,
digits, an optional ``.digits``), and a CSV index or phase, or a sparse
key, is an integer as ``str(int)`` writes it, and a sparse key is at
least 1.

Each reader parses every distinct raw spelling once, into a per-file memo:
CSV cells by their string, sparse keys by their string and sparse values
by their JSON number.  A memo is keyed by the exact input, so every check
still runs on every distinct spelling, and the per-value number check runs
on every entry.  A sparse term or trace row is then built through the
trusted ``SparseVec._clean``: its keys passed the index check and are
sorted, and its values are nonzero Fractions, which is all the validating
constructor would establish.  The writers emit each entry as a JSON int or
float without going through ``Fraction.__float__``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
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
    fits a float, else ValueError.  So ``1/3``, ``1_0`` and `` 1`` are not
    reinterpreted, and ``1e400`` or ``1e-999999999`` is never expanded."""
    if _PLAIN_DECIMAL.fullmatch(cell):
        x = Fraction(cell)
        try:
            float(x)
            return x
        except OverflowError:
            pass
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


def _phase_lengths(rows) -> list[int]:
    """Phase lengths from the (index, phase) of each trace row.

    Rows must be numbered 1, 2, ..., n and their phases must never go down;
    anything else would silently move rows into other phases.
    """
    lengths: list[int] = []
    for n, (index, phase) in enumerate(rows, start=1):
        if index != n:
            raise ValueError(f"row {n} has index {index}, expected {n}")
        if phase < max(len(lengths), 1):
            raise ValueError(f"row {n} has phase {phase} after phase {len(lengths)}")
        lengths.extend([0] * (phase - len(lengths)))
        lengths[-1] += 1
    return lengths


def write_walk_csv(w: Walk, fp: TextIO) -> None:
    if hasattr(w.sums[0], "entries"):
        raise ValueError("CSV traces are for dense walks")
    dim = len(w.sums[0])
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["index", "phase"] + [f"coord_{i}" for i in range(dim)])
    for phase, (lo, hi) in enumerate(w.phase_blocks(), start=1):
        for n in range(lo, hi):
            writer.writerow([n, phase] + [render_scalar(c) for c in w.sums[n]])


def read_walk_csv(fp: TextIO) -> Walk:
    reader = csv.reader(fp)
    header = next(reader, None) or []
    dim = len(header) - 2
    if dim < 1 or header != ["index", "phase"] + [f"coord_{i}" for i in range(dim)]:
        raise ValueError("bad trace header: not index,phase,coord_0,...")
    sums = []
    rows = []
    cells: dict[str, Fraction] = {}  # raw cell -> its value, read once
    for n, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != dim + 2:
            raise ValueError(f"row width mismatch at trace row {n}")
        where = f"trace row {n}"
        for c in row[2:]:
            if c not in cells:
                cells[c] = _read_cell(c, where)
        sums.append(tuple(map(cells.__getitem__, row[2:])))
        rows.append((_read_int(row[0], where), _read_int(row[1], where)))
    if not sums:
        raise ValueError("empty trace")
    phase_lengths = _phase_lengths(rows)
    exact = all(map(is_dyadic, cells.values()))
    if not exact:
        sums = [tuple(float(c) for c in p) for p in sums]
    start = tuple([Fraction(0) if exact else 0.0] * dim)
    return Walk([start] + sums, phase_lengths)


def _encode_entries(v) -> dict:
    """A SparseVec's entries as JSON: integral values as ints, the rest as
    floats.  The keys stay ints, which ``json.dumps`` writes as the same
    ``"i"`` strings, and ``numerator / denominator`` is the float that
    ``float(x)`` gives, without its generic ``numbers.Rational`` method."""
    return {i: x.numerator if x.denominator == 1 else x.numerator / x.denominator
            for i, x in v.entries.items()}


def _check_numbers(values, where: str) -> None:
    """ValueError unless every value is a JSON int (not a bool) or a float
    whose float value is finite."""
    for x in values:
        try:
            if type(x) in (int, float) and math.isfinite(x):
                continue
        except OverflowError:  # an int beyond the float range
            pass
        raise ValueError(f"{where} holds {x!r:.40}, not a finite number")


def _decode_entries(entries, where: str, keys: dict, values: dict) -> SparseVec:
    """Inverse of _encode_entries: a SparseVec of exact Fractions, with each
    distinct raw key and number parsed once into the reader's memos.

    Every value is checked by _check_numbers and every key, on its memo
    miss, by _read_int and as an index >= 1; the memo holds only keys that
    passed, and distinct canonical spellings are distinct ints.  So the
    result is what the validating ``SparseVec`` constructor would build --
    nonzero Fractions under sorted int keys -- and is built through the
    trusted ``SparseVec._clean`` after dropping zeros and sorting the keys
    when they arrive unsorted."""
    if not isinstance(entries, dict):
        raise ValueError(f"{where} has no entries object")
    _check_numbers(entries.values(), where)
    clean = {}
    for i, x in entries.items():
        if i not in keys:
            keys[i] = _read_index(i, where)
        if x:  # a JSON int or float: zero, 0.0 and -0.0 are dropped
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
    for phase, (lo, hi) in enumerate(w.phase_blocks(), start=1):
        for n in range(lo, hi):
            fp.write(json.dumps({"index": n, "phase": phase,
                                 "entries": _encode_entries(w.sums[n])}) + "\n")


def read_walk_jsonl(fp: TextIO) -> Walk:
    sums = []
    rows = []
    keys: dict = {}
    values: dict = {}
    for n, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"line {n} is not a JSON object")
        index, phase = rec.get("index"), rec.get("phase")
        if type(index) is not int or type(phase) is not int:
            raise ValueError(f"line {n} has index {index!r:.40} and phase "
                             f"{phase!r:.40}, not two JSON ints")
        sums.append(_decode_entries(rec.get("entries"), f"line {n}", keys, values))
        rows.append((index, phase))
    if not sums:
        raise ValueError("empty trace")
    return Walk([SparseVec()] + sums, _phase_lengths(rows))


def read_sample_csv(fp: TextIO) -> PointSample:
    reader = csv.reader(fp)
    header = next(reader, None)
    if not header or header != [f"coord_{i}" for i in range(len(header))]:
        raise ValueError("bad sample header: not coord_0,coord_1,...")
    pts = []
    for n, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"row width mismatch at sample row {n}")
        pts.append(tuple(float(_read_cell(c, f"sample row {n}")) for c in row))
    if not pts:
        raise ValueError("empty sample")
    return PointSample(tuple(pts))


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
    doc = json.load(fp)
    terms = doc.get("terms") if isinstance(doc, dict) else None
    if not isinstance(terms, list) or not terms:
        raise ValueError("no terms")
    kind = _term_kind(terms[0], 1)
    out = []
    keys: dict = {}
    values: dict = {}
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
    one term at a time through ``json.dumps``, whose C encoder ``json.dump``
    never uses."""
    fp.write('{"terms": [')
    for n, t in enumerate(terms):
        enc = _encode_entries(t) if hasattr(t, "entries") else [float(c) for c in t]
        fp.write((", " if n else "") + json.dumps(enc))
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
