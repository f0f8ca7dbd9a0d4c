import csv
import hashlib
import io
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from serwalk import cli, rearrange, traceio
from serwalk.core import is_dyadic
from serwalk.seqspace import (SparseVec, gen_c0_singleton_divergent,
                              gen_c0_two_point, gen_no_rp_series)
from serwalk.traceio import (_SPARSE_TERMS_OPENING, _read_cell, _read_int,
                             estimate_report, read_sample_csv,
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


@pytest.mark.parametrize("phases, message", [
    ([0, 0, 1], "the walk has 3 phases and 1 sums after its start"),
    ([0, 1], "the walk has 2 phases and 1 sums after its start"),
    ([1, 0], "the walk's last phase, phase 2, is empty"),
    ([2, 0, 0], "the walk's last phase, phase 3, is empty"),
    ([0], "a walk with no sums after its start has no trace"),
    ([], "a walk with no sums after its start has no trace"),
], ids=["phase-past-rows", "second-phase-alone", "last-empty", "two-last-empty",
        "one-empty-phase", "no-phases"])
@pytest.mark.parametrize("write", [write_walk_csv, write_walk_jsonl], ids=["csv", "jsonl"])
def test_writers_refuse_a_walk_the_readers_refuse(write, phases, message):
    # [0, 0, 1] was written as the row 1,3,1, which the reader refuses
    # ("phase 3 in a trace of 1 rows"), and [1, 0] read back as [1]: a
    # writer refuses such a walk before its first write
    n = sum(phases)
    start, step = ((F(0),), lambda k: (F(k),)) if write is write_walk_csv else (
        SparseVec(), lambda k: SparseVec({1: F(k)}))
    w = Walk([start, *map(step, range(1, n + 1))], phases)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        write(w, buf)
    assert buf.getvalue() == ""


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


def _repr_sample_csv(points) -> str:
    # a sample CSV holding each float's repr, exponents included
    return "coord_0,coord_1\n" + "".join(f"{x!r},{y!r}\n" for x, y in points)


def test_a_sample_written_with_repr_reads_back_bit_identically(tmp_path, monkeypatch):
    # row 64 holds 1.2246467991473532e-16, once refused as no plain decimal;
    # the exact-decimal and the repr spellings read to the same floats, so
    # the chainable walk built on either is the same file
    text = _repr_sample_csv(C10_CIRCLE)
    assert text.splitlines()[64].endswith(",1.2246467991473532e-16")
    back = read_sample_csv(io.StringIO(text))
    assert [tuple(map(float.hex, p)) for p in back.points] == [
        tuple(map(float.hex, p)) for p in C10_CIRCLE]
    monkeypatch.chdir(tmp_path)
    outputs = []
    for name, sample in [("exact", _sample_csv(C10_CIRCLE)), ("repr", text)]:
        (tmp_path / f"{name}.csv").write_text(sample)
        assert cli.main(["generate", "chainable", "--target", f"{name}.csv",
                         "--phases", "3", "--out", f"{name}.walk.csv"]) == 0
        outputs.append((tmp_path / f"{name}.walk.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cell", [
    "1e-999999999", "-2.5E-3", "1e+16", "5e-324", "-0.0", "1.7976931348623157e308", "007"])
def test_a_sample_cell_is_read_by_float(cell):
    # no Fraction is made: a huge negative exponent is 0.0 at once, and a
    # negative zero keeps its sign
    [(x,)] = read_sample_csv(io.StringIO(f"coord_0\n{cell}\n")).points
    assert type(x) is float and x.hex() == float(cell).hex()


@pytest.mark.parametrize("cell", [
    "1e400", "-1e400", "1" + "0" * 400, "nan", "inf", "-inf", "1_0", " 1", "1 ", "1/3", "+1",
    "1e", "e5", ".5", "1.", "1.e5", "0x10", "1.5E+", "--1", ""])
def test_a_sample_cell_past_the_float_spelling_is_refused(cell):
    message = f"sample row 2 holds {cell!r:.40}, not a decimal number in the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_sample_csv(io.StringIO(f"coord_0,coord_1\n0,0\n0.5,{cell}\n"))


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
        "csv": "1f0fdb94445b439c81c1e9be5aa329a4c145416740b013565b05c552966cfd8d",
        "perm.json": "bfe559f365b075aac5b3787f00dbb22857a9f40f5803e1662ba919e3a0bf4b82",
        "report.json": "a5e3d37829fc94524913e378369ce5c944d9fc217f52b325149295e6fe294008",
        "manifest.json": "08d7b1e077cada47aad71436c51058e73446a2929d51de84e01e4a36989a2267"}),
    ([(0.25, -0.5)], {
        "csv": "79c9a40aedb630fbdf3df84b3aa2501778d27e19434241fb5ce6bc0e72068f8f",
        "perm.json": "80d26f738adf5f850545109eb30f0563157658e110546da74d6e3697d9b1c7a8",
        "report.json": "6816f78915c47ae546af712a0470d9e7d407b15ad37858f157fdb60493a35413",
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


def _entries_one_by_one(v) -> dict:
    # the writers' rule applied entry by entry, for json.dumps to encode
    return {i: x.numerator if x.denominator == 1 else x.numerator / x.denominator
            for i, x in v.entries.items()}


# nonzero values: integral, dyadic, non-dyadic, and numerators beyond 2^64
sparse_values = st.builds(
    F, st.one_of(st.integers(-9, 9), st.integers(2 ** 64, 2 ** 70),
                 st.integers(-2 ** 70, -2 ** 64)).filter(bool),
    st.sampled_from([1, 2, 3, 8, 2 ** 10]))
# short keys and keys with many digits
sparse_keys = st.one_of(st.integers(1, 40), st.integers(10 ** 30, 10 ** 30 + 9))


@st.composite
def shared_sparse_terms(draw):
    """SparseVecs drawing their values from one pool of Fraction objects,
    so one object sits under several keys and in several terms, and each
    pooled value also has an equal twin that is a distinct object."""
    pool = draw(st.lists(sparse_values, min_size=1, max_size=5))
    pool += [F(x.numerator, x.denominator) for x in pool]
    picks = st.dictionaries(sparse_keys, st.integers(0, len(pool) - 1), max_size=8)
    return [SparseVec({i: pool[k] for i, k in t.items()})
            for t in draw(st.lists(picks, min_size=1, max_size=5))]


@settings(max_examples=150, deadline=None)
@given(shared_sparse_terms())
def test_sparse_writers_write_what_json_dumps_writes(terms):
    got = io.StringIO()
    write_terms_json(terms, got)
    assert got.getvalue() == json.dumps(
        {"terms": [_entries_one_by_one(t) for t in terms]}) + "\n"
    split = len(terms) // 2
    walk = Walk([SparseVec()] + terms, [split, len(terms) - split])
    got = io.StringIO()
    if not split:  # one row in phase 2, which the reader refuses: so does the writer
        with pytest.raises(ValueError, match="no phase past its row count"):
            write_walk_jsonl(walk, got)
        assert got.getvalue() == ""
        return
    write_walk_jsonl(walk, got)
    assert got.getvalue() == "".join(
        json.dumps({"index": n, "phase": 1 + (n > split),
                    "entries": _entries_one_by_one(t)}) + "\n"
        for n, t in enumerate(terms, start=1))


def test_sparse_writers_refuse_a_value_beyond_the_float_range():
    # as float(x) would: a non-integral value past 1.8e308 has no JSON float
    big = SparseVec({1: F(10 ** 400, 3)})
    with pytest.raises(OverflowError):
        write_terms_json([big], io.StringIO())
    with pytest.raises(OverflowError):
        write_walk_jsonl(Walk([SparseVec(), big], [1]), io.StringIO())


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


# JSON number tokens for sparse values: zeros of every spelling, equal
# numbers spelled as an int, as a float and with other digits (0.5, 0.50,
# 5e-1), integral floats, and ints and zeros mixed with non-integral floats
json_values = st.one_of(
    st.sampled_from(["0", "0.0", "-0.0", "1", "1.0", "-2", "-2.0", "0.5", "0.50",
                     "5e-1", "2.5E1", "1e-400"]),
    st.builds(lambda n: repr(n / 4), st.integers(-8, 8)),
    st.builds(str, st.integers(-3, 3)))
# keys in the order hypothesis draws them, so often unsorted
raw_entries = st.dictionaries(st.integers(1, 40).map(str), json_values, max_size=12)
# entries no sparse reader takes, under keys no drawn entry has
BAD_ENTRIES = [("41", "1e400"), ("41", "-1e400"), ("41", "NaN"), ("41", "true"),
               ("41", '"0.5"'), ("01", "0.5"), ("0", "0.25"), ("+1", "1")]


def _read_or_message(read, text):
    try:
        return read(io.StringIO(text))
    except ValueError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(st.lists(raw_entries, min_size=1, max_size=4),
       st.none() | st.tuples(st.sampled_from(BAD_ENTRIES), st.integers(0, 3),
                             st.integers(0, 12)))
def test_sparse_readers_match_the_validating_constructor(terms, fault):
    members = [[f'"{i}": {x}' for i, x in t.items()] for t in terms]
    if fault:
        (key, token), k, at = fault
        members[k % len(members)].insert(at, f'"{key}": {token}')
    objects = ["{" + ", ".join(m) + "}" for m in members]
    # the writer's opening is parsed with the float-spelling memo, a
    # hand-spaced one without it: both read the same terms or message
    written = '{"terms": [' + ", ".join(objects) + "]}"
    spaced = '{ "terms" : [\n ' + ",\n ".join(objects) + "\n] }\n"
    assert _SPARSE_TERMS_OPENING.match(written) and not _SPARSE_TERMS_OPENING.match(spaced)
    readings = [_read_or_message(read_terms_json, text) for text in (written, spaced)]
    assert readings[0] == readings[1]
    if fault:
        assert isinstance(readings[0], str)
        return
    want = [SparseVec({int(i): json.loads(x) for i, x in t.items()}) for t in terms]
    lines = "".join(f'{{"index": {n}, "phase": 1, "entries": {o}}}\n'
                    for n, o in enumerate(objects, start=1))
    for got in (*readings, read_walk_jsonl(io.StringIO(lines)).sums[1:]):
        assert [list(t.entries.items()) for t in got] == [
            list(t.entries.items()) for t in want]
        assert all(type(x) is F for t in got for x in t.entries.values())


def test_dense_terms_read_back_bit_identically():
    # a dense document takes no float-spelling memo: every float, its sign
    # and its last bit come back as written
    terms = [*rearrange.full_range_series(2, 200),
             (-0.0, 0.1), (5e-324, -1.7976931348623157e308)]
    buf = io.StringIO()
    write_terms_json(terms, buf)
    back = read_terms_json(io.StringIO(buf.getvalue()))
    assert [tuple(map(float.hex, t)) for t in back] == [
        tuple(map(float.hex, t)) for t in terms]


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


#: the largest float, and the half ulp past it at which a value rounds to inf
FLOAT_MAX = int(sys.float_info.max)
HALF_ULP = 2 ** 970


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("cell", [
    str(FLOAT_MAX), str(FLOAT_MAX + HALF_ULP - 1), f"{FLOAT_MAX + HALF_ULP - 1}.999",
    str(FLOAT_MAX + HALF_ULP), f"{FLOAT_MAX + HALF_ULP}.001", "1" + "0" * 309])
def test_read_cell_takes_what_fits_a_float(sign, cell):
    # a cell is taken exactly when its Fraction has a float, to the last
    # rounding step at the top of the range
    try:
        float(F(sign + cell))
    except OverflowError:
        with pytest.raises(ValueError, match="not a plain decimal in the float range"):
            _read_cell(sign + cell, "trace row 1")
    else:
        assert _read_cell(sign + cell, "trace row 1") == F(sign + cell)


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


def _phase_lengths_row_by_row(rows):
    # the reader's order rule as it was before it counted phases, kept here
    # so that a change to the library's rule does not move the reference
    lengths = []
    for n, (index, phase) in enumerate(rows, start=1):
        if index != n:
            raise ValueError(f"row {n} has index {index}, expected {n}")
        if phase < max(len(lengths), 1):
            raise ValueError(f"row {n} has phase {phase} after phase {len(lengths)}")
        lengths.extend([0] * (phase - len(lengths)))
        lengths[-1] += 1
    return lengths


def _read_walk_csv_row_by_row(fp):
    # read_walk_csv as it was before it checked the rows in bulk: the
    # reference for every value and every message
    reader = csv.reader(fp)
    header = next(reader, None) or []
    dim = len(header) - 2
    if dim < 1 or header != ["index", "phase"] + [f"coord_{i}" for i in range(dim)]:
        raise ValueError("bad trace header: not index,phase,coord_0,...")
    sums = []
    rows = []
    cells = {}
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
    phase_lengths = _phase_lengths_row_by_row(rows)
    exact = all(map(is_dyadic, cells.values()))
    if not exact:
        sums = [tuple(float(c) for c in p) for p in sums]
    start = tuple([F(0) if exact else 0.0] * dim)
    return Walk([start] + sums, phase_lengths)


CSV_CELLS = ["0", "0.5", "0.50", "-0.25", "3", "0.1"]
#: what each fault does to a row: its place in the row list is drawn
CSV_FAULTS = {
    "blank": lambda row: [[], row],
    "short": lambda row: [row[:-1]],
    "long": lambda row: [row + ["0"]],
    "index-01": lambda row: [["0" + row[0]] + row[1:]],
    "index-plus": lambda row: [["+" + row[0]] + row[1:]],
    "index-later": lambda row: [[str(int(row[0]) + 1)] + row[1:]],
    "phase-0": lambda row: [row[:1] + ["0"] + row[2:]],
    "phase-down": lambda row: [row[:1] + [str(int(row[1]) - 1)] + row[2:]],
    "cell-fraction": lambda row: [row[:-1] + ["1/3"]],
    "cell-exponent": lambda row: [row[:-1] + ["1e400"]],
    "cell-space": lambda row: [row[:-1] + [" 1"]],
}


@st.composite
def csv_traces(draw):
    """A trace's CSV text: valid rows in up to four phases, often with blank
    rows, and sometimes with faults at drawn rows."""
    dim = draw(st.integers(1, 2))
    phases = sorted(draw(st.lists(st.integers(1, 4), max_size=12)))
    rows = [[str(n), str(p)] + draw(st.lists(st.sampled_from(CSV_CELLS),
                                             min_size=dim, max_size=dim))
            for n, p in enumerate(phases, start=1)]
    faults = draw(st.lists(st.tuples(st.sampled_from(sorted(CSV_FAULTS)),
                                     st.integers(0, 11)), max_size=2))
    for fault, at in faults:
        if rows and rows[at % len(rows)]:
            at %= len(rows)
            rows[at:at + 1] = CSV_FAULTS[fault](rows[at])
    header = ",".join(["index", "phase"] + [f"coord_{i}" for i in range(dim)])
    return "".join(f"{line}\n" for line in [header] + [",".join(r) for r in rows])


def _walk_or_message(read, text):
    w = _read_or_message(read, text)
    if isinstance(w, str):
        return w
    return [[(type(c), c) for c in p] for p in w.sums], w.phase_lengths


@settings(max_examples=300, deadline=None)
@given(csv_traces())
def test_read_walk_csv_matches_the_row_by_row_reader(text):
    # the bulk checks decide only that a row is bad: the row scan names it,
    # in blocks of one row, of three and of the default size.  The one
    # divergence: a phase past the row count, which the reference took
    want = _walk_or_message(_read_walk_csv_row_by_row, text)
    if not isinstance(want, str) and len(want[1]) > sum(want[1]):
        want = f"phase {len(want[1])} in a trace of {sum(want[1])} rows"
    for block in (1, 3, traceio._BLOCK):
        with mock.patch.object(traceio, "_BLOCK", block):
            assert _walk_or_message(read_walk_csv, text) == want


@pytest.mark.parametrize("block", [1, 2, 3, traceio._BLOCK])
def test_read_walk_csv_names_a_format_fault_before_an_earlier_order_fault(block):
    # row 2's phase goes down, and row 4's cell is no plain decimal: with
    # blocks of two rows, the order fault is found first and held
    text = "index,phase,coord_0\n1,2,0\n2,1,0\n3,2,0\n4,2,1/3\n"
    with mock.patch.object(traceio, "_BLOCK", block):
        with pytest.raises(ValueError, match=re.escape("trace row 4 holds '1/3'")):
            read_walk_csv(io.StringIO(text))


def test_read_walk_csv_stops_at_the_first_bad_block():
    # row 2's cell is bad: no line past the first block of four is read
    lines = ["index,phase,coord_0\n", "1,1,0\n", "2,1,1/3\n"] + [
        f"{n},1,0\n" for n in range(3, 41)]

    def feed():
        for k, line in enumerate(lines):
            if k > 4:
                pytest.fail(f"line {k} was read past the first block")
            yield line

    with mock.patch.object(traceio, "_BLOCK", 4):
        with pytest.raises(ValueError, match=re.escape("trace row 2 holds '1/3'")):
            read_walk_csv(feed())


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
