import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "serwalk.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_generate_two_lines_golden_rows(tmp_path):
    out = tmp_path / "w.csv"
    r = run("generate", "two-lines", "--phases", "2", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,phase,coord_0,coord_1"
    assert lines[1] == "1,1,0.5,0"
    assert lines[2] == "2,1,1,0"
    # manifest records the exact invocation, nothing machine-specific
    manifest = json.loads((tmp_path / "w.csv.manifest.json").read_text())
    assert manifest["phases"] == 2 and manifest["generator"] == "two-lines"


def test_generate_rejects_bad_phases():
    r = run("generate", "two-lines", "--phases", "0")
    assert r.returncode == 2
    assert "phases must be >= 1" in r.stderr


def test_generate_c0_two_point_jsonl():
    r = run("generate", "c0-two-point", "--phases", "1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert json.loads(lines[0]) == {"index": 1, "phase": 1, "entries": {"2": 1}}
    assert json.loads(lines[1])["entries"] == {"1": 1, "2": 1}
    assert json.loads(lines[-1])["entries"] == {}


def test_generate_no_rp_terms():
    r = run("generate", "no-rp", "--kmax", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["terms"]) == 8
    assert all(set(t.values()) <= {0.5, -0.5} for t in doc["terms"])


@pytest.mark.parametrize("argv, message", [
    # SVG comes only through `plot`
    (["generate", "two-lines", "--format", "svg"], "unrecognized arguments: --format"),
    (["generate", "two-lines", "--seed", "1"], "unrecognized arguments: --seed"),
    (["plot", "--input", "walk.csv", "--seed", "1"], "unrecognized arguments: --seed"),
    # the rearrangement and the balancing order draw no random numbers
    (["rearrange", "--target", "target.csv", "--seed", "1"],
     "unrecognized arguments: --seed"),
    (["verify", "rp-instance", "--input", "terms.json", "--seed", "1"],
     "unrecognized arguments: --seed"),
])
def test_options_without_effect_are_usage_errors(argv, message):
    # argparse rejects the command line before any input is opened
    r = run(*argv)
    assert r.returncode == 2
    assert message in r.stderr
    assert r.stdout == ""


def test_determinism_same_args_same_bytes(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n")
    outs = []
    for tag in ("a", "b"):
        base = tmp_path / f"run_{tag}"
        r = run("rearrange", "--target", str(target), "--stages", "3",
                "--terms", "60000", "--out", str(base))
        assert r.returncode == 0, r.stderr
        outs.append((base.with_suffix(".csv").read_bytes(),
                     (tmp_path / f"run_{tag}.perm.json").read_bytes()))
    assert outs[0] == outs[1]


def test_rearrange_reports_convergence(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n")
    base = tmp_path / "run"
    r = run("rearrange", "--target", str(target), "--stages", "4",
            "--terms", "80000", "--out", str(base))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["convergence"] == "converges-to"
    assert len(report["stages"]) == 4


def test_rearrange_usage_errors(tmp_path):
    r = run("rearrange", "--target", str(tmp_path / "missing.csv"))
    assert r.returncode == 2
    r = run("rearrange", "--target", "x", "--stages", "0")
    assert r.returncode == 2


def test_verify_dichotomy_two_lines(tmp_path):
    trace = tmp_path / "w.csv"
    assert run("generate", "two-lines", "--phases", "7",
               "--out", str(trace)).returncode == 0
    r = run("verify", "dichotomy", "--input", str(trace),
            "--gap", "0.9", "--bound", "4.0")
    assert r.returncode == 0
    assert r.stdout.strip().splitlines()[-1] == "all-components-escape"


def test_verify_dichotomy_empty_estimate(tmp_path):
    # one phase, no cell visited twice: the estimate is empty, and without
    # --bound there is no largest norm to default to
    trace = tmp_path / "w.csv"
    trace.write_text("index,phase,coord_0,coord_1\n1,1,0.5,0\n2,1,1,0\n3,1,3,0\n")
    r = run("verify", "dichotomy", "--input", str(trace))
    assert r.returncode == 2
    assert r.stderr.strip() == "empty estimate"


def test_verify_estimate_report(tmp_path):
    trace = tmp_path / "w.csv"
    run("generate", "two-lines", "--phases", "6", "--out", str(trace))
    r = run("verify", "estimate", "--input", str(trace), "--resolution", "0.1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["points"] and doc["resolution"] == 0.1


def test_verify_vector_family():
    r = run("verify", "vector-family", "--k", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "pass"


@pytest.mark.parametrize("generator, stdout", [
    (["two-lines", "--phases", "6"], '{"max_gap": 5.0990195135927845}\n'),  # sqrt(26)
    (["c0-singleton", "--phases", "9"], '{"max_gap": 1.0}\n'),
], ids=["two-lines", "c0-singleton"])
def test_verify_cauchy_prints_the_diagnostic(tmp_path, generator, stdout):
    trace = tmp_path / "w"
    assert run("generate", *generator, "--out", str(trace)).returncode == 0
    r = run("verify", "cauchy", "--input", str(trace))
    assert r.returncode == 0 and r.stdout == stdout


def test_verify_singleton_divergent_c0_walk(tmp_path):
    trace = tmp_path / "w.jsonl"
    assert run("generate", "c0-singleton", "--phases", "9",
               "--out", str(trace)).returncode == 0
    r = run("verify", "singleton", "--input", str(trace))
    assert r.returncode == 0 and r.stdout == "diverges-with-singleton\n"


def test_verify_rp_instance_failure_path(tmp_path):
    terms = tmp_path / "terms.json"
    # two aligned unit steps: every order's second prefix reaches norm 2
    terms.write_text('{"terms": [[1.0, 0.0], [1.0, 0.0]]}\n')
    r = run("verify", "rp-instance", "--input", str(terms),
            "--epsilon", "1.5", "--prefix", "2")
    assert r.returncode == 1
    assert "no balanced permutation" in r.stdout
    # a generous epsilon admits a balanced order
    r = run("verify", "rp-instance", "--input", str(terms),
            "--epsilon", "2.5", "--prefix", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"]


def test_verify_rp_instance_interleaved_blocks(tmp_path):
    # the alternating-block series always admits a balanced order once
    # epsilon clears the single-term norm: cancel pair by pair
    terms = tmp_path / "terms.json"
    r = run("generate", "no-rp", "--kmax", "1", "--out", str(terms))
    assert r.returncode == 0
    r = run("verify", "rp-instance", "--input", str(terms),
            "--epsilon", "0.75", "--prefix", "8")
    assert r.returncode == 0


@pytest.mark.parametrize("key", ["0", "-1"])
def test_verify_rp_instance_names_a_key_below_one(tmp_path, key):
    terms = tmp_path / "terms.json"
    terms.write_text(f'{{"terms": [{{"1": 1}}, {{"{key}": 1}}]}}\n')
    r = run("verify", "rp-instance", "--input", str(terms))
    assert r.returncode == 2 and r.stdout == ""
    assert f"term 2 has index {key}, not a 1-based positive integer" in r.stderr


@pytest.mark.parametrize("argv, kind", [
    (["verify", "estimate", "--input"], "trace"),
    (["rearrange", "--target"], "sample"),
    (["generate", "chainable", "--target"], "sample"),
    (["plot", "--input", "{trace}", "--marks"], "sample"),
    (["verify", "rp-instance", "--input"], "terms"),
], ids=["trace", "rearrange-target", "chainable-target", "plot-marks", "terms"])
def test_unreadable_input_is_a_usage_error(tmp_path, argv, kind):
    # every input goes through one reader, whose message names the input's
    # kind and path; the missing file is appended to the command
    trace = tmp_path / "w.csv"
    trace.write_text("index,phase,coord_0,coord_1\n1,1,0,0\n2,1,1,0\n")
    missing = tmp_path / "missing"
    r = run(*(a.format(trace=trace) for a in argv), str(missing))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"cannot read {kind} {missing}: ")


@pytest.mark.parametrize("check", ["estimate", "dichotomy", "singleton", "cauchy",
                                   "rp-instance"])
def test_verify_without_input_is_usage_error(check):
    r = run("verify", check)
    assert r.returncode == 2
    assert r.stderr.strip() == f"verify {check} needs --input"


@pytest.mark.parametrize("argv, message", [
    (["verify", "rp-instance", "--prefix", "0"], "prefix must be >= 1"),
    (["verify", "rp-instance", "--prefix", "-1"], "prefix must be >= 1"),
    (["rearrange", "--terms", "0"], "terms must be >= 1"),
    (["rearrange", "--terms", "-5"], "terms must be >= 1"),
])
def test_out_of_range_counts_are_usage_errors(tmp_path, argv, message):
    # --prefix -1 once balanced all terms but the last, --prefix 0 printed an
    # empty order, and --terms 0 raised IndexError
    terms = tmp_path / "terms.json"
    assert run("generate", "no-rp", "--kmax", "1", "--out", str(terms)).returncode == 0
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n")
    source = ["--input", str(terms)] if argv[0] == "verify" else ["--target", str(target)]
    r = run(*argv, *source)
    assert r.returncode == 2
    assert r.stderr.strip() == message
    assert r.stdout == ""


def test_rearrange_rejects_ragged_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n0.5\n")
    r = run("rearrange", "--target", str(target), "--terms", "1000",
            "--out", str(tmp_path / "run"))
    assert r.returncode == 2
    assert "cannot read sample" in r.stderr and "row width mismatch" in r.stderr
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("name, text", [
    # rows out of order: the first row would land in phase 1 unnoticed
    ("w.csv", "index,phase,coord_0,coord_1\n7,2,0,0\n3,1,1,0\n9,2,0,0\n"),
    ("w.jsonl", '{"index": 1, "phase": 2, "entries": {"1": 1}}\n'
                '{"index": 2, "phase": 1, "entries": {}}\n'),
], ids=["csv", "jsonl"])
def test_verify_rejects_misordered_trace(tmp_path, name, text):
    trace = tmp_path / name
    trace.write_text(text)
    r = run("verify", "estimate", "--input", str(trace))
    assert r.returncode == 2
    assert "cannot read trace" in r.stderr and "Traceback" not in r.stderr


def _record(entries='{"1": 1}', index="1", phase="1"):
    return f'{{"index": {index}, "phase": {phase}, "entries": {entries}}}\n'


#: each command reads the file whose path is appended to it
CAUCHY = ("verify", "cauchy", "--input")
RP_INSTANCE = ("verify", "rp-instance", "--prefix", "2", "--input")
CHAINABLE = ("generate", "chainable", "--target")


def _trace(cell="0", index="1"):
    return f"index,phase,coord_0\n{index},1,{cell}\n2,1,0\n"


def _sample(cell):
    return f"coord_0,coord_1\n0,0\n{cell},0\n"


@pytest.mark.parametrize("command, name, text", [
    # sparse entries: JSON ints (not bools) and finite floats only
    (CAUCHY, "w.jsonl", _record('{"1": "1/3"}')),
    (CAUCHY, "w.jsonl", _record('{"1": true}')),
    (CAUCHY, "w.jsonl", _record('{"1": Infinity}')),
    (CAUCHY, "w.jsonl", _record('{"1": NaN}')),
    (CAUCHY, "w.jsonl", _record('{"1": 1' + "0" * 400 + '}')),
    (CAUCHY, "w.jsonl", _record("[1]")),
    # index and phase: JSON ints, both present
    (CAUCHY, "w.jsonl", _record(phase="1.9")),
    (CAUCHY, "w.jsonl", '{"index": 1, "entries": {"1": 1}}\n'),
    (CAUCHY, "w.jsonl", _record(index="true")),
    (CAUCHY, "w.jsonl", _record() + "[1, 2]\n"),
    # series terms: one kind, one dense length, finite numbers, every term
    (RP_INSTANCE, "t.json", '{"terms": [[NaN, 0.0], [1.0, 0.0]]}'),
    (RP_INSTANCE, "t.json", '{"terms": [{"1": 1}, [1.0]]}'),
    (RP_INSTANCE, "t.json", '{"terms": [[1.0], {"1": 1}]}'),
    (RP_INSTANCE, "t.json", '{"terms": [[1.0, 0.0], [-1.0, 0.0], [0.5]]}'),
    (RP_INSTANCE, "t.json", '{"terms": [[1.0, 0.0], [-1.0, "0"]]}'),
    (RP_INSTANCE, "t.json", '{"terms": [{"1": 1}, {"1": "-1"}]}'),
    (RP_INSTANCE, "t.json", '{"terms": [5]}'),
    (RP_INSTANCE, "t.json", '{"terms": 5}'),
    (RP_INSTANCE, "t.json", '{"term": [[1.0]]}'),
    # sparse keys: integers as str(int) writes them
    (CAUCHY, "w.jsonl", _record('{"1_0": 1}')),
    (CAUCHY, "w.jsonl", _record('{" 1": 1}')),
    (CAUCHY, "w.jsonl", _record('{"+1": 1}')),
    # CSV cells: plain decimals in the float range, as render_scalar writes
    (CAUCHY, "w.csv", _trace("1/3")),
    (CAUCHY, "w.csv", _trace("1_0")),
    (CAUCHY, "w.csv", _trace(" 1")),
    (CAUCHY, "w.csv", _trace("1e400")),
    (CAUCHY, "w.csv", _trace("1e-999999999")),
    (CAUCHY, "w.csv", _trace("1" + "0" * 400)),
    (CAUCHY, "w.csv", _trace(index="+1")),
    (CHAINABLE, "s.csv", _sample("1/3")),
    (CHAINABLE, "s.csv", _sample("1e400")),
], ids=["fraction-string", "bool", "infinity", "nan", "huge-int", "entries-list",
        "float-phase", "missing-phase", "bool-index", "not-an-object",
        "dense-nan", "sparse-then-dense", "dense-then-sparse", "ragged-past-prefix",
        "dense-string", "sparse-string", "number-term", "terms-not-a-list",
        "no-terms-key", "key-underscore", "key-space", "key-plus",
        "cell-fraction", "cell-underscore", "cell-space", "cell-exponent",
        "cell-tiny-exponent", "cell-huge", "csv-index-plus",
        "sample-fraction", "sample-exponent"])
def test_malformed_values_are_usage_errors(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    r = run(*command, str(path))
    assert r.returncode == 2, r.stdout
    assert "cannot read" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_closed_stdout_exits_quietly():
    # `serwalk generate ... | head -1`: the reader leaves after one line
    p = subprocess.Popen(CLI + ["generate", "two-lines", "--phases", "9"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert p.stdout.readline() == "index,phase,coord_0,coord_1\n"
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_plot_round_trip(tmp_path):
    trace = tmp_path / "w.csv"
    marks = tmp_path / "marks.csv"
    run("generate", "two-lines", "--phases", "3", "--out", str(trace))
    marks.write_text("coord_0,coord_1\n0,0\n1,0\n")
    svg = tmp_path / "w.svg"
    r = run("plot", "--input", str(trace), "--marks", str(marks),
            "--out", str(svg))
    assert r.returncode == 0
    text = svg.read_text()
    assert text.count("<circle") == 2 and "<polyline" in text


def test_serwalk_log_env_controls_logging(tmp_path):
    import os
    env = dict(os.environ, SERWALK_LOG="info")
    r = subprocess.run(CLI + ["generate", "two-lines", "--phases", "1"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "generated two-lines" in r.stderr
    env["SERWALK_LOG"] = "error"
    r = subprocess.run(CLI + ["generate", "two-lines", "--phases", "1"],
                       capture_output=True, text=True, env=env)
    assert "generated two-lines" not in r.stderr
