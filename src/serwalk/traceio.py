"""Trace serialization: walks to/from CSV and JSON lines, plus reports.

Dense walk traces are CSV with header ``index,phase,coord_0,...``; the
start point (index 0) is implicit and never written.  Dyadic values render
as exact terminating decimal strings -- never scientific notation -- so
golden files stay stable.  Sequence-space walks serialize as JSON lines
``{"index": n, "phase": p, "entries": {"i": v, ...}}``.  Both readers
reject a trace whose index runs other than 1, 2, ..., n or whose phase
goes down.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .core import SUP, PointSample, is_dyadic
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
            # 1/2^k = 5^k/10^k: scale the numerator to a decimal string
            k = x.denominator.bit_length() - 1
            return str(Decimal(x.numerator * 5 ** k).scaleb(-k))
    s = repr(float(x))
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    return s


def parse_scalar(s: str):
    """Inverse of render_scalar: exact Fraction when the string is a plain
    terminating decimal."""
    return Fraction(s)


def _phase_of(blocks, row_index: int) -> int:
    for p, (lo, hi) in enumerate(blocks, start=1):
        if lo <= row_index < hi:
            return p
    return len(blocks)


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
    blocks = w.phase_blocks()
    for n, p in enumerate(w.sums[1:], start=1):
        writer.writerow([n, _phase_of(blocks, n)] + [render_scalar(c) for c in p])


def read_walk_csv(fp: TextIO) -> Walk:
    reader = csv.reader(fp)
    header = next(reader, None)
    if not header or header[:2] != ["index", "phase"] or len(header) < 3:
        raise ValueError("bad trace header")
    dim = len(header) - 2
    sums = []
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != dim + 2:
            raise ValueError(f"row width mismatch at index {row[0]}")
        sums.append(tuple(parse_scalar(c) for c in row[2:]))
        rows.append((int(row[0]), int(row[1])))
    if not sums:
        raise ValueError("empty trace")
    phase_lengths = _phase_lengths(rows)
    mode = "exact" if all(is_dyadic(c) for p in sums for c in p) else "float"
    if mode == "float":
        sums = [tuple(float(c) for c in p) for p in sums]
    start = tuple([Fraction(0) if mode == "exact" else 0.0] * dim)
    return Walk([start] + sums, phase_lengths, mode=mode)


def _encode_entries(v) -> dict:
    """A SparseVec's entries as JSON: integral values as ints, the rest as
    floats (entries may be Fractions or floats)."""
    return {str(i): int(x) if Fraction(x).denominator == 1 else float(x)
            for i, x in v.entries.items()}


def _decode_entries(entries: dict):
    """Inverse of _encode_entries: a SparseVec of exact Fractions."""
    return SparseVec({int(i): Fraction(x) for i, x in entries.items()})


def write_walk_jsonl(w: Walk, fp: TextIO) -> None:
    if not w.sums or not hasattr(w.sums[0], "entries"):
        raise ValueError("JSON-line traces are for sequence-space walks")
    blocks = w.phase_blocks()
    for n, p in enumerate(w.sums[1:], start=1):
        fp.write(json.dumps({"index": n, "phase": _phase_of(blocks, n),
                             "entries": _encode_entries(p)}) + "\n")


def read_walk_jsonl(fp: TextIO) -> Walk:
    sums = []
    rows = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        sums.append(_decode_entries(rec["entries"]))
        rows.append((rec.get("index"), int(rec.get("phase", 1))))
    if not sums:
        raise ValueError("empty trace")
    return Walk([SparseVec()] + sums, _phase_lengths(rows), mode="exact", kind=SUP)


def write_sample_csv(sample: PointSample, fp: TextIO) -> None:
    if not sample.points:
        raise ValueError("empty sample")
    dim = len(sample.points[0])
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"coord_{i}" for i in range(dim)])
    for p in sample.points:
        writer.writerow([render_scalar(c) for c in p])


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
        pts.append(tuple(float(Fraction(c)) for c in row))
    if not pts:
        raise ValueError("empty sample")
    return PointSample(tuple(pts))


def read_terms_json(fp: TextIO):
    """Series terms from JSON {"terms": [...]}; each term is a dense list
    or a sparse {index: value} object."""
    doc = json.load(fp)
    terms = doc["terms"] if isinstance(doc, dict) else doc
    out = []
    for t in terms:
        if isinstance(t, dict):
            out.append(_decode_entries(t))
        else:
            out.append(tuple(float(c) for c in t))
    if not out:
        raise ValueError("no terms")
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


def write_walk_svg(w: Walk, fp: TextIO, size: int = 480,
                   marks: Optional[Sequence] = None) -> None:
    """SVG polyline of a 2-D walk, one color per phase, optional marked
    sample points, with axis tick labels at the integer and half-integer
    levels the trace reaches."""
    if not w.sums or hasattr(w.sums[0], "entries") or len(w.sums[0]) != 2:
        raise ValueError("plotting needs a 2-D dense trace")
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
