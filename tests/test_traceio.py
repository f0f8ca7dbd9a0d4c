import io
import json
import re
from fractions import Fraction as F

import pytest

from serwalk.seqspace import SparseVec, gen_c0_two_point, gen_no_rp_series
from serwalk.traceio import (estimate_report, read_sample_csv,
                             read_terms_json, read_walk_csv, read_walk_jsonl,
                             render_scalar, write_terms_json,
                             write_walk_csv, write_walk_jsonl, write_walk_svg)
from serwalk.walks import Walk, gen_two_lines


def test_render_scalar_goldens():
    assert render_scalar(F(1, 2)) == "0.5"
    assert render_scalar(F(-3, 8)) == "-0.375"
    assert render_scalar(F(1, 1024)) == "0.0009765625"
    assert render_scalar(F(5)) == "5"
    assert render_scalar(3) == "3"
    assert render_scalar(0.25) == "0.25"
    # never scientific notation, even for tiny floats
    assert "e" not in render_scalar(2.0 ** -40).lower()


def test_parse_scalar_round_trip():
    # traces are read back with Fraction, exactly
    for x in [F(1, 2), F(-7, 64), F(3), F(1, 2 ** 20)]:
        assert F(render_scalar(x)) == x


def test_tiny_and_long_dyadics_round_trip_exactly():
    # a Decimal string would turn 2^-30 into exponent notation, which the
    # CSV reader rejects, and round 3/2^40 to 28 significant digits
    w = Walk([(F(0),), (F(1, 2 ** 30),), (F(-3, 2 ** 40),), (F(0),)], [3])
    buf = io.StringIO()
    write_walk_csv(w, buf)
    assert "1,1,0.000000000931322574615478515625\n" in buf.getvalue()
    assert read_walk_csv(io.StringIO(buf.getvalue())).sums == w.sums


def test_walk_csv_round_trip_exact():
    w = gen_two_lines(3)
    buf = io.StringIO()
    write_walk_csv(w, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "index,phase,coord_0,coord_1"
    assert text.splitlines()[1] == "1,1,0.5,0"
    back = read_walk_csv(io.StringIO(text))
    assert back.mode == "exact"
    assert back.sums == w.sums
    assert back.phase_lengths == w.phase_lengths


def test_walk_csv_round_trip_float():
    w = Walk([(0.0, 0.0), (0.1, 0.2), (0.3, -0.4)], [2])
    buf = io.StringIO()
    write_walk_csv(w, buf)
    back = read_walk_csv(io.StringIO(buf.getvalue()))
    assert back.mode == "float"
    assert back.sums == w.sums


def test_walk_csv_rejects_sparse_and_bad_header():
    with pytest.raises(ValueError, match="dense"):
        write_walk_csv(gen_c0_two_point(2), io.StringIO())
    with pytest.raises(ValueError, match="bad trace header"):
        read_walk_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError, match="row width"):
        read_walk_csv(io.StringIO("index,phase,coord_0\n1,1,0.5,9\n"))
    with pytest.raises(ValueError, match="empty trace"):
        read_walk_csv(io.StringIO("index,phase,coord_0\n"))


def test_walk_jsonl_round_trip():
    w = gen_c0_two_point(3)
    buf = io.StringIO()
    write_walk_jsonl(w, buf)
    lines = buf.getvalue().splitlines()
    first = json.loads(lines[0])
    assert first == {"index": 1, "phase": 1, "entries": {"2": 1}}
    back = read_walk_jsonl(io.StringIO(buf.getvalue()))
    assert back.sums == w.sums
    assert back.phase_lengths == w.phase_lengths
    with pytest.raises(ValueError, match="sequence-space"):
        write_walk_jsonl(gen_two_lines(1), io.StringIO())


# phase lengths [2, 0, 2]: the phase column jumps from 1 to 3
EMPTY_PHASE_CSV = ("index,phase,coord_0\n"
                   "1,1,0.5\n2,1,0\n3,3,0.25\n4,3,0\n")
EMPTY_PHASE_JSONL = "".join(
    json.dumps({"index": n, "phase": phase, "entries": entries}) + "\n"
    for n, phase, entries in [(1, 1, {"1": 1}), (2, 1, {}),
                              (3, 3, {"2": 0.5}), (4, 3, {})])


@pytest.mark.parametrize("text, read, write", [
    (EMPTY_PHASE_CSV, read_walk_csv, write_walk_csv),
    (EMPTY_PHASE_JSONL, read_walk_jsonl, write_walk_jsonl),
], ids=["csv", "jsonl"])
def test_empty_phase_round_trips_byte_identically(text, read, write):
    w = read(io.StringIO(text))
    assert w.phase_lengths == [2, 0, 2]
    assert w.phase_blocks() == [(1, 3), (3, 3), (3, 5)]
    buf = io.StringIO()
    write(w, buf)
    assert buf.getvalue() == text


def test_sample_csv_round_trip():
    # samples are written by hand: a coord_ header, one row per point
    back = read_sample_csv(io.StringIO("coord_0,coord_1\n0.5,-1.25\n2,3.0\n"))
    assert back.points == ((0.5, -1.25), (2.0, 3.0))
    with pytest.raises(ValueError, match="bad sample header"):
        read_sample_csv(io.StringIO("x,y\n1,2\n"))


def test_terms_json_dense_and_sparse():
    dense = [(0.5, 0.0), (-0.5, 0.0)]
    buf = io.StringIO()
    write_terms_json(dense, buf)
    assert read_terms_json(io.StringIO(buf.getvalue())) == dense

    series, _ = gen_no_rp_series(1)
    buf = io.StringIO()
    write_terms_json(series.terms, buf)
    back = read_terms_json(io.StringIO(buf.getvalue()))
    assert all(isinstance(t, SparseVec) for t in back)
    assert back == list(series.terms)
    # a JSON float is stored exactly, and a zero entry is dropped
    back = read_terms_json(io.StringIO('{"terms": [{"1": 3, "2": 0.1, "4": 0}]}'))
    assert back == [SparseVec({1: F(3), 2: F(3602879701896397, 36028797018963968)})]

    with pytest.raises(ValueError, match="no terms"):
        read_terms_json(io.StringIO('{"terms": []}'))


@pytest.mark.parametrize("text, message", [
    ('{"terms": [[1.0], [2.0], [0.5, 0.5]]}', "term 3 has 2 coordinates, term 1 has 1"),
    ('{"terms": [[1.0], [NaN]]}', "term 2 holds nan, not a finite number"),
    ('{"terms": [{"1": 1}, [1.0]]}', "term 2 is dense, term 1 is sparse"),
    ('{"terms": [{"1": 1}, {"2": "1/3"}]}', "term 2 holds '1/3', not a finite number"),
    ('{"terms": [{"1": 1}, {"2": false}]}', "term 2 holds False, not a finite number"),
])
def test_read_terms_json_names_the_bad_term(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_terms_json(io.StringIO(text))


def test_estimate_report_shapes():
    from serwalk.analysis import estimate_limit_set
    est = estimate_limit_set(gen_c0_two_point(6), resolution=0.2)
    rep = estimate_report(est, {"dichotomy": "compact-connected"})
    assert rep["resolution"] == 0.2
    assert sorted(rep["points"], key=str) == sorted([{}, {"1": 1.0}], key=str)
    assert rep["verdicts"]["dichotomy"] == "compact-connected"
    json.dumps(rep)  # must be serializable


def test_svg_output():
    w = gen_two_lines(3)
    buf = io.StringIO()
    write_walk_svg(w, buf, marks=[(0.0, 0.0), (1.0, 1.0)])
    svg = buf.getvalue()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 3
    assert svg.count("<circle") == 2
    assert 'fill="white"' in svg
    assert ">0.5<" in svg  # half-integer tick label
    with pytest.raises(ValueError, match="2-D"):
        write_walk_svg(Walk([(0.0,), (1.0,)], [1]), io.StringIO())


@pytest.mark.parametrize("text", [
    "coord_0,coord_1\n0.5,1\n0.25\n",
    "coord_0,coord_1\n0.5,1\n0.25,1,2\n",
], ids=["short", "long"])
def test_read_sample_csv_rejects_ragged_rows(text):
    with pytest.raises(ValueError, match="row width mismatch at sample row 2"):
        read_sample_csv(io.StringIO(text))
