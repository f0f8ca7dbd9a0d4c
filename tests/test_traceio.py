import hashlib
import io
import json
import math
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from serwalk import cli
from serwalk.seqspace import (SparseVec, gen_c0_singleton_divergent,
                              gen_c0_two_point, gen_no_rp_series)
from serwalk.traceio import (estimate_report, read_sample_csv,
                             read_terms_json, read_walk_csv, read_walk_jsonl,
                             render_scalar, write_terms_json,
                             write_walk_csv, write_walk_jsonl, write_walk_svg)
from serwalk.walks import Walk, build_chainable_walk, gen_two_lines


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


def test_walk_csv_reads_back_at_the_origin():
    # a trace starts at the origin: a walk anchored elsewhere reads back with
    # its sums unchanged and only its first step moved
    circle = [(math.cos(2 * math.pi * i / 20), math.sin(2 * math.pi * i / 20))
              for i in range(20)]
    w = build_chainable_walk(circle, 2)
    buf = io.StringIO()
    write_walk_csv(w, buf)
    back = read_walk_csv(io.StringIO(buf.getvalue()))
    assert w.anchor == (1.0, 0.0) and back.anchor == (0.0, 0.0)
    assert back.sums[1:] == w.sums[1:]
    assert back.steps()[1:] == w.steps()[1:]
    assert back.steps()[0] != w.steps()[0]


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
    with pytest.raises(ValueError, match="no terms"):  # no writer writes a bare list
        read_terms_json(io.StringIO('[[1.0, 0.0], [-1.0, 0.0]]'))


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


@pytest.mark.parametrize("make, write, digest", [
    (lambda: gen_no_rp_series(3)[0].terms, write_terms_json,
     "9bca4e1956ede0d29266de77791a0ceda4c61fb679512e0dfe7e380c94bb3669"),
    (lambda: gen_no_rp_series(2)[0].terms, write_terms_json,
     "2abebe592fae129769a03926c6b054ae84f70b7ab3fc3384420b71edc0948456"),
    (lambda: gen_c0_two_point(9), write_walk_jsonl,
     "75fa3cfbcf483a0ae5a0992f81618a584fcd15d16b13e89397af17149c813dca"),
    (lambda: gen_c0_singleton_divergent(9), write_walk_jsonl,
     "01a5b77598354bb67ce8dbbc533eef9041c00b7551b8b6504b8d07f439dd7959"),
], ids=["no-rp-3", "no-rp-2", "c0-two-point-9", "c0-singleton-9"])
def test_sparse_outputs_are_byte_identical_to_their_pins(make, write, digest):
    # the serwalk generate outputs, pinned by sha256
    buf = io.StringIO()
    write(make(), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


C10_CIRCLE = [(math.cos(2 * math.pi * i / 126), math.sin(2 * math.pi * i / 126))
              for i in range(126)]  # acceptance c10's 0.05-pitch circle


def _sample_csv(points) -> str:
    # a sample CSV holding each float's exact decimal
    return "coord_0,coord_1\n" + "".join(f"{Decimal(x):f},{Decimal(y):f}\n"
                                         for x, y in points)


@pytest.mark.parametrize("argv, name, digest", [
    ("generate two-lines --phases 7 --out tl7.csv", "tl7.csv",
     "82cb6968ae641cdca8917ba7237c5b1a6a59e90f01663f192778f076cab3bb53"),
    ("verify dichotomy --input tl7.csv --gap 0.9 --bound 4 --out tl7.report.json",
     "tl7.report.json", "339e7f2b29e9803e31df412e70a49ba4cd7b6f7e9dda46bdcde1b5349b99ee3b"),
    ("plot --input tl7.csv --out tl7.svg", "tl7.svg",
     "3d9ac45ddf50aa83873505b1a91a6f9d5dc502a067986ce88a150389a6a0dbda"),
    ("generate two-lines --phases 7 --out tl7.csv", "tl7.csv.manifest.json",
     "49a7114673fc3eab02cd7c989f86675dc3600eec7bbdde52efc9e7c9d1e554df"),
    ("verify estimate --input tl7.csv --out tl7.estimate.json", "tl7.estimate.json",
     "6c4e39ddac244ca3cac82dceb47868314a2bb5403617209ee21184e4278402af"),
    ("generate halflines --phases 4 --out hl4.csv", "hl4.csv",
     "2d2a1b300a66046832917c0352b98acfc8c99687b3e7ddd440c67229b4ad303f"),
    ("generate chainable --phases 4 --target circle.csv --out ch4.csv", "ch4.csv",
     "3cb3b9afb4e94a9d794c72281c7f2b4f03fd2644b6139cddcdcad63839b0f58f"),
    ("generate chainable --phases 4 --target circle.csv --out ch4.csv",
     "ch4.csv.manifest.json",
     "35dbbf2b6e347b69d85fcbe97f31f68549192efee6b6f7f2b41ca45ffa8f67bb"),
    ("generate unbounded --phases 3 --out ub3.csv", "ub3.csv",
     "8ff0d1ba3ca4e9abcb8bda00d912bdf53b4e52d968db2bebaa6de450f24fc5de"),
    ("generate no-rp --kmax 3 --out norp3.json", "norp3.json.manifest.json",
     "0f86a57c069225762b408e45e1bb0e05363df469de9ba6bbe510f1ed479bd45d"),
], ids=["generate-two-lines-7", "dichotomy-two-lines-7", "plot-two-lines-7",
        "manifest-two-lines-7", "estimate-two-lines-7", "generate-halflines-4",
        "generate-chainable-4", "manifest-chainable-4", "generate-unbounded-3",
        "manifest-no-rp-3"])
def test_dense_cli_outputs_are_byte_identical_to_their_pins(tmp_path, monkeypatch,
                                                            argv, name, digest):
    # every generator's dense trace, the estimate and dichotomy reports, the
    # plot and the generate manifests, pinned by sha256: they cover the CSV
    # reader and the modal representatives' tie order
    monkeypatch.chdir(tmp_path)
    (tmp_path / "circle.csv").write_text(_sample_csv(C10_CIRCLE))
    if "--input" in argv:
        assert cli.main(["generate", "two-lines", "--phases", "7", "--out", "tl7.csv"]) == 0
    assert cli.main(argv.split()) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("points, digests", [
    (C10_CIRCLE, {
        "csv": "990aec92a34bcf5243480cbb3632155f60a94d7fe5e5ebaf49d249df93f7557d",
        "perm.json": "f7d31238f8e34cbd31daa3bdc0c62a1a492c92a91b7b31506ef2a94e4bbb49bd",
        "report.json": "ab1466a78842bd0753f3b4601ed70373d60ce2c859d7e070d5f64ee6779fb560",
        "manifest.json": "08d7b1e077cada47aad71436c51058e73446a2929d51de84e01e4a36989a2267"}),
    ([(0.25, -0.5)], {
        "csv": "64875304639201734e57ff014950a2121eb22b88836cb53bcfaf7552cc0a9125",
        "perm.json": "932173fa9b70c8cdf2d84d14c7b3fcb7a8e6997f92feb8e32b6142186cef6dc4",
        "report.json": "3a780d10ac6705d7449b74dc2c2c46e50ce5c9d7b1a96704c26c463487b937ce",
        "manifest.json": "08d7b1e077cada47aad71436c51058e73446a2929d51de84e01e4a36989a2267"}),
], ids=["circle", "point"])
def test_rearrange_cli_outputs_are_byte_identical_to_their_pins(tmp_path, monkeypatch,
                                                               points, digests):
    # the four files of `serwalk rearrange` at its default stages, pinned by
    # sha256; the manifest records no prefix length
    monkeypatch.chdir(tmp_path)
    (tmp_path / "target.csv").write_text(_sample_csv(points))
    assert cli.main(["rearrange", "--target", "target.csv", "--out", "run"]) == 0
    got = {ext: hashlib.sha256((tmp_path / f"run.{ext}").read_bytes()).hexdigest()
           for ext in digests}
    assert got == digests


@pytest.mark.parametrize("terms, enc", [
    ([(0.5, 0.0), (-0.5, 0)], [[0.5, 0.0], [-0.5, 0.0]]),
    ([SparseVec({1: F(1, 2), 3: F(-2)}), SparseVec({2: F(3)})],
     [{"1": 0.5, "3": -2}, {"2": 3}]),
    ([SparseVec({7: F(-1, 4)})], [{"7": -0.25}]),
    ([SparseVec({1: F(1)}), SparseVec()], [{"1": 1}, {}]),
], ids=["dense", "sparse", "one-term", "empty-sparse-term"])
def test_write_terms_json_writes_what_json_dump_writes(terms, enc):
    want = io.StringIO()
    json.dump({"terms": enc}, want)
    got = io.StringIO()
    write_terms_json(terms, got)
    assert got.getvalue() == want.getvalue() + "\n"


@pytest.mark.parametrize("text, message", [
    ('{"terms": [{"1": 1}, {"01": 1}]}', "term 2 holds '01', not a plain integer"),
    ('{"terms": [{"1": 1}, {"1": true}]}', "term 2 holds True, not a finite number"),
])
def test_read_terms_json_memos_keep_every_check(text, message):
    # a key or value already parsed for an earlier term is checked again
    with pytest.raises(ValueError, match=re.escape(message)):
        read_terms_json(io.StringIO(text))


def test_read_terms_json_memos_read_equal_numbers_exactly():
    back = read_terms_json(io.StringIO(
        '{"terms": [{"1": 1, "2": 1.0, "3": -0.0}, {"1": 1.0, "2": 0, "3": 1}]}'))
    assert [list(t.entries.items()) for t in back] == [[(1, F(1)), (2, F(1))],
                                                       [(1, F(1)), (3, F(1))]]
    assert all(type(x) is F for t in back for x in t.entries.values())


@pytest.mark.parametrize("second, message", [
    ('{"01": 1}', "line 2 holds '01', not a plain integer"),
    ('{"1": true}', "line 2 holds True, not a finite number"),
])
def test_read_walk_jsonl_memos_keep_every_check(second, message):
    text = ('{"index": 1, "phase": 1, "entries": {"1": 1}}\n'
            f'{{"index": 2, "phase": 1, "entries": {second}}}\n')
    with pytest.raises(ValueError, match=re.escape(message)):
        read_walk_jsonl(io.StringIO(text))


# JSON numbers for sparse values: zeros of every spelling, and equal
# numbers spelled as an int and as a float
json_values = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, 1.0, -2, -2.0]),
                        st.builds(lambda n: n / 4, st.integers(-8, 8)),
                        st.integers(-3, 3))
# keys in the order hypothesis draws them, so often unsorted
raw_entries = st.dictionaries(st.integers(1, 40).map(str), json_values, max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(raw_entries, min_size=1, max_size=4))
def test_sparse_readers_match_the_validating_constructor(terms):
    want = [SparseVec({int(i): x for i, x in t.items()}) for t in terms]
    doc = json.dumps({"terms": terms})
    lines = "".join(json.dumps({"index": n, "phase": 1, "entries": t}) + "\n"
                    for n, t in enumerate(terms, start=1))
    for got in (read_terms_json(io.StringIO(doc)),
                read_walk_jsonl(io.StringIO(lines)).sums[1:]):
        assert [list(t.entries.items()) for t in got] == [
            list(t.entries.items()) for t in want]
        assert all(type(x) is F for t in got for x in t.entries.values())


@pytest.mark.parametrize("key", ["0", "-1"])
@pytest.mark.parametrize("value", ["1", "0"])
def test_sparse_readers_name_a_key_below_one(key, value):
    second = f'{{"{key}": {value}}}'
    with pytest.raises(ValueError, match=f"term 2 has index {key}, not a 1-based"):
        read_terms_json(io.StringIO(f'{{"terms": [{{"1": 1}}, {second}]}}'))
    text = ('{"index": 1, "phase": 1, "entries": {"1": 1}}\n'
            f'{{"index": 2, "phase": 1, "entries": {second}}}\n')
    with pytest.raises(ValueError, match=f"line 2 has index {key}, not a 1-based"):
        read_walk_jsonl(io.StringIO(text))


@pytest.mark.parametrize("cell", ["1/3", "1e400", " 1"])
def test_walk_csv_memo_names_the_row_of_a_bad_cell(cell):
    # the memo holds only cells that passed: a bad one misses it wherever it is
    rows = "".join(f"{n},1,0.5,-0.25\n" for n in range(1, 201))
    text = f"index,phase,coord_0,coord_1\n{rows}201,1,0.5,{cell}\n"
    with pytest.raises(ValueError, match=re.escape(f"trace row 201 holds {cell!r}")):
        read_walk_csv(io.StringIO(text))


def test_walk_csv_memo_reads_each_spelling_exactly():
    text = "index,phase,coord_0\n1,1,0.5\n2,1,0.50\n3,1,0.5\n"
    w = read_walk_csv(io.StringIO(text))
    assert w.mode == "exact" and w.sums[1:] == [(F(1, 2),)] * 3
    # one non-dyadic decimal after many dyadic repeats makes the walk float
    text = "index,phase,coord_0\n" + "".join(
        f"{n},1,0.5\n" for n in range(1, 101)) + "101,1,0.1\n"
    w = read_walk_csv(io.StringIO(text))
    assert w.mode == "float" and w.sums[-1] == (0.1,) and w.sums[1] == (0.5,)
    assert all(type(c) is float for p in w.sums for c in p)


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
        write_walk_svg(Walk([(0.0,), (1.0,)], [1]), io.StringIO(), marks=None)


@pytest.mark.parametrize("read, text", [
    (read_walk_csv, "index,phase,x,banana\n1,1,0,0\n"),
    (read_walk_csv, "index,phase,coord_1,coord_0\n1,1,0,0\n"),
    (read_walk_csv, "index,phase,coord_0,coord_0\n1,1,0,0\n"),
    (read_walk_csv, "phase,index,coord_0\n1,1,0\n"),
    (read_walk_csv, "index,phase\n1,1\n"),
    (read_sample_csv, "coord_0,weight\n0,1\n"),
    (read_sample_csv, "coord_1,coord_0\n0,1\n"),
    (read_sample_csv, "coord_0,coord_2\n0,1\n"),
    (read_sample_csv, "\n0,1\n"),
], ids=["trace-names", "trace-swapped", "trace-repeated", "trace-index-phase",
        "trace-no-coords", "sample-weight", "sample-swapped", "sample-gap",
        "sample-empty"])
def test_readers_take_only_the_headers_the_writers_write(read, text):
    # coord_1,coord_0 once read silently with its two columns swapped
    with pytest.raises(ValueError, match="^bad (trace|sample) header"):
        read(io.StringIO(text))


@pytest.mark.parametrize("text", [
    "coord_0,coord_1\n0.5,1\n0.25\n",
    "coord_0,coord_1\n0.5,1\n0.25,1,2\n",
], ids=["short", "long"])
def test_read_sample_csv_rejects_ragged_rows(text):
    with pytest.raises(ValueError, match="row width mismatch at sample row 2"):
        read_sample_csv(io.StringIO(text))


def test_read_walk_csv_names_a_short_row_by_its_place():
    # the message once quoted the row's raw index cell, at any length
    text = "index,phase,coord_0,coord_1\n1,1,0.5,0\n" + "9" * 500 + ",1\n"
    with pytest.raises(ValueError, match="^row width mismatch at trace row 2$"):
        read_walk_csv(io.StringIO(text))
