"""Trace serialization: walks to/from CSV and JSON lines, plus reports.

Dense walk traces are CSV with header ``index,phase,coord_0,...``; the
start point (index 0) is implicit and never written.  Dyadic values render
as exact terminating decimal strings -- never scientific notation -- so
golden files stay stable.  Sequence-space walks serialize as JSON lines
``{"index": n, "phase": p, "entries": {"i": v, ...}}``.  Both readers
reject a trace whose index runs other than 1, 2, ..., n or whose phase
goes down.  Sparse entries and dense series terms must be JSON ints or
finite floats; JSON-line index and phase must be JSON ints.  The readers
take only what the writers write: a CSV coordinate is a plain decimal in
the float range (an optional ``-``, digits, an optional ``.digits``), and
a CSV index or phase, or a sparse key, is an integer as ``str(int)``
writes it.
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
    if not w.sums or hasattr(w.sums[0], "entries"):
        raise ValueError("CSV traces are for dense walks")
    dim = len(w.sums[0])
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["index", "phase"] + [f"coord_{i}" for i in range(dim)])
    for phase, (lo, hi) in enumerate(w.phase_blocks(), start=1):
        for n in range(lo, hi):
            writer.writerow([n, phase] + [render_scalar(c) for c in w.sums[n]])


def read_walk_csv(fp: TextIO) -> Walk:
    reader = csv.reader(fp)
    header = next(reader, None)
    if not header or header[:2] != ["index", "phase"] or len(header) < 3:
        raise ValueError("bad trace header")
    dim = len(header) - 2
    sums = []
    rows = []
    for n, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != dim + 2:
            raise ValueError(f"row width mismatch at index {row[0]}")
        where = f"trace row {n}"
        sums.append(tuple(_read_cell(c, where) for c in row[2:]))
        rows.append((_read_int(row[0], where), _read_int(row[1], where)))
    if not sums:
        raise ValueError("empty trace")
    phase_lengths = _phase_lengths(rows)
    exact = all(is_dyadic(c) for p in sums for c in p)
    if not exact:
        sums = [tuple(float(c) for c in p) for p in sums]
    start = tuple([Fraction(0) if exact else 0.0] * dim)
    return Walk([start] + sums, phase_lengths)


def _encode_entries(v) -> dict:
    """A SparseVec's entries as JSON: integral values as ints, the rest as
    floats."""
    return {str(i): int(x) if x.denominator == 1 else float(x)
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


def _decode_entries(entries, where: str) -> SparseVec:
    """Inverse of _encode_entries: a SparseVec of exact Fractions."""
    if not isinstance(entries, dict):
        raise ValueError(f"{where} has no entries object")
    _check_numbers(entries.values(), where)
    return SparseVec({_read_int(i, where): x for i, x in entries.items()})


def write_walk_jsonl(w: Walk, fp: TextIO) -> None:
    if not w.sums or not hasattr(w.sums[0], "entries"):
        raise ValueError("JSON-line traces are for sequence-space walks")
    for phase, (lo, hi) in enumerate(w.phase_blocks(), start=1):
        for n in range(lo, hi):
            fp.write(json.dumps({"index": n, "phase": phase,
                                 "entries": _encode_entries(w.sums[n])}) + "\n")


def read_walk_jsonl(fp: TextIO) -> Walk:
    sums = []
    rows = []
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
        sums.append(_decode_entries(rec.get("entries"), f"line {n}"))
        rows.append((index, phase))
    if not sums:
        raise ValueError("empty trace")
    return Walk([SparseVec()] + sums, _phase_lengths(rows))


def read_sample_csv(fp: TextIO) -> PointSample:
    reader = csv.reader(fp)
    header = next(reader, None)
    if not header or not header[0].startswith("coord_"):
        raise ValueError("bad sample header")
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
    """Series terms from JSON {"terms": [...]}: all dense lists of one
    length, read as float tuples, or all sparse {index: value} objects,
    read as SparseVecs.  Every value must be a JSON int or a finite float.
    A term (numbered from 1) that breaks a rule raises ValueError naming
    it."""
    doc = json.load(fp)
    terms = doc.get("terms") if isinstance(doc, dict) else doc
    if not isinstance(terms, list) or not terms:
        raise ValueError("no terms")
    kind = _term_kind(terms[0], 1)
    out = []
    for n, t in enumerate(terms, start=1):
        if _term_kind(t, n) != kind:
            raise ValueError(f"term {n} is {_term_kind(t, n)}, term 1 is {kind}")
        if kind == "sparse":
            out.append(_decode_entries(t, f"term {n}"))
            continue
        if len(t) != len(terms[0]):
            raise ValueError(f"term {n} has {len(t)} coordinates, "
                             f"term 1 has {len(terms[0])}")
        _check_numbers(t, f"term {n}")
        out.append(tuple(float(c) for c in t))
    return out


def write_terms_json(terms: Sequence, fp: TextIO) -> None:
    enc = []
    for t in terms:
        if hasattr(t, "entries"):
            enc.append(_encode_entries(t))
        else:
            enc.append([float(c) for c in t])
    json.dump({"terms": enc}, fp)
    fp.write("\n")


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


def write_walk_svg(w: Walk, fp: TextIO,
                   marks: Optional[Sequence] = None) -> None:
    """SVG polyline of a 2-D walk, one color per phase, optional marked
    sample points, with axis tick labels at the integer and half-integer
    levels the trace reaches, on a 480-pixel square."""
    if not w.sums or hasattr(w.sums[0], "entries") or len(w.sums[0]) != 2:
        raise ValueError("plotting needs a 2-D dense trace")
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
        pts = w.sums[lo - 1:hi]
        coords = " ".join(f"{sx(float(p[0])):.2f},{sy(float(p[1])):.2f}" for p in pts)
        fp.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                 f'points="{coords}"/>\n')
    for p in marks or ():
        fp.write(f'<circle cx="{sx(float(p[0])):.2f}" cy="{sy(float(p[1])):.2f}" '
                 'r="2.5" fill="black"/>\n')
    fp.write("</svg>\n")
