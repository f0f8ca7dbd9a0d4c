import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from serwalk import cli

CLI = [sys.executable, "-m", "serwalk.cli"]
SRC = Path(__file__).resolve().parents[1] / "src"


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
                "--out", str(base))
        assert r.returncode == 0, r.stderr
        outs.append((base.with_suffix(".csv").read_bytes(),
                     (tmp_path / f"run_{tag}.perm.json").read_bytes()))
    assert outs[0] == outs[1]


def test_rearrange_reports_convergence(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n")
    base = tmp_path / "run"
    r = run("rearrange", "--target", str(target), "--stages", "4",
            "--out", str(base))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["convergence"] == "converges-to"
    assert len(report["stages"]) == 4


def test_rearrange_usage_errors(tmp_path):
    r = run("rearrange", "--target", str(tmp_path / "missing.csv"))
    assert r.returncode == 2
    r = run("rearrange", "--target", "x", "--stages", "0")
    assert r.returncode == 2


def test_rearrange_refuses_out_dash(tmp_path):
    # rearrange writes three files and a manifest under a base name; "-"
    # once left -.csv, -.perm.json and -.report.json and no manifest
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    r = run("rearrange", "--target", str(target), "--stages", "3",
            "--out", "-", cwd=tmp_path, env=env)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "rearrange writes files under a base name: --out - is not one\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.csv"]


@pytest.mark.parametrize("argv, inp, message", [
    (["rearrange", "--target", "pt.csv", "--stages", "2", "--out", "pt"], "pt.csv",
     "output pt.csv would overwrite input pt.csv"),
    (["generate", "chainable", "--target", "s.csv", "--out", "s.csv"], "s.csv",
     "output s.csv would overwrite input s.csv"),
    # the derived manifest counts as an output
    (["generate", "chainable", "--target", "s.manifest.json", "--out", "s"],
     "s.manifest.json", "output s.manifest.json would overwrite input s.manifest.json"),
    (["verify", "estimate", "--input", "t.csv", "--out", "./t.csv"], "t.csv",
     "output ./t.csv would overwrite input t.csv"),
    (["plot", "--input", "t.csv", "--out", "t.csv"], "t.csv",
     "output t.csv would overwrite input t.csv"),
], ids=["rearrange", "generate", "generate-manifest", "verify", "plot"])
def test_outputs_never_overwrite_inputs(tmp_path, monkeypatch, capsys, argv, inp, message):
    # each once exited 0 with its input destroyed
    monkeypatch.chdir(tmp_path)
    text = {"pt.csv": "coord_0,coord_1\n0.25,-0.5\n",
            "t.csv": "index,phase,coord_0\n1,1,0.5\n2,1,0\n"}.get(
                inp, "coord_0,coord_1\n0,0\n0.25,0\n")
    (tmp_path / inp).write_text(text)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"
    assert [p.name for p in tmp_path.iterdir()] == [inp]
    assert (tmp_path / inp).read_text() == text


@pytest.mark.parametrize("argv, message", [
    (["verify", "dichotomy", "--input", "tl.csv", "--gap", "nan"],
     "gap must be finite and >= 0, not nan"),
    (["verify", "dichotomy", "--input", "tl.csv", "--gap", "-1"],
     "gap must be finite and >= 0, not -1.0"),
    (["verify", "dichotomy", "--input", "tl.csv", "--bound", "nan"],
     "bound must be finite, not nan"),
    (["verify", "singleton", "--input", "c0.jsonl", "--tol", "nan"],
     "tol must be finite and positive, not nan"),
    (["verify", "singleton", "--input", "c0.jsonl", "--tol", "-1"],
     "tol must be finite and positive, not -1.0"),
    (["verify", "estimate", "--input", "tl.csv", "--resolution", "nan"],
     "resolution must be finite and positive"),
    (["verify", "rp-instance", "--input", "terms.json", "--epsilon", "nan"],
     "epsilon must be a finite positive number, not nan"),
    (["verify", "rp-instance", "--input", "terms.json", "--epsilon", "inf"],
     "epsilon must be a finite positive number, not inf"),
    (["verify", "rp-instance", "--input", "terms.json", "--epsilon", "0"],
     "epsilon must be a finite positive number, not 0.0"),
    (["verify", "singleton", "--input", "tl2.csv"], "walk too short (need >= 100 sums)"),
    (["verify", "vector-family", "--k", "0"], "k must be >= 1"),
    (["verify", "vector-family", "--k", "6"], "dimension budget exceeded"),
], ids=["gap-nan", "gap-negative", "bound-nan", "tol-nan", "tol-negative",
        "resolution-nan", "epsilon-nan", "epsilon-inf", "epsilon-zero",
        "singleton-short-walk", "vector-family-k0", "vector-family-k6"])
def test_out_of_range_parameters_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                  argv, message):
    # each but the last three once printed a verdict (exit 0 or 1) or a
    # message naming no parameter ("cannot convert float NaN to integer")
    monkeypatch.chdir(tmp_path)
    for generator in (["two-lines", "--phases", "4", "--out", "tl.csv"],
                      ["two-lines", "--phases", "2", "--out", "tl2.csv"],  # 28 sums
                      ["c0-singleton", "--phases", "8", "--out", "c0.jsonl"],
                      ["no-rp", "--kmax", "1", "--out", "terms.json"]):
        assert cli.main(["generate", *generator]) == 0
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


def test_generate_unbounded_names_its_phase_limit(tmp_path, monkeypatch, capsys):
    # its radii are 2, 3 and 4, and no flag sets them; a fourth phase once
    # exited 2 asking for "radii ..., one per phase"
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "unbounded", "--phases", "4", "--out", "ub.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "generate unbounded takes at most 3 phases\n"
    assert list(tmp_path.iterdir()) == []


def _chain_steps(length, bound):
    # walks._polyline_chain's step count for one leg
    n = 1
    while length / n > bound + 1e-12:
        n *= 2
    return n if length else 0


#: each exponential generator's sums at P phases; every phase is retraced
SUMS = {
    "two-lines": lambda P: sum(
        2 * (2 * _chain_steps(k, 2.0 ** -(k + 1)) + _chain_steps(1, 2.0 ** -(k + 1)))
        for k in range(P)),
    "halflines": lambda P: sum(
        2 * (k * _chain_steps(1, 2.0 ** (1 - k)) + 2 * k * _chain_steps(k - 1, 2.0 ** (1 - k)))
        for k in range(1, P + 1)),
    "c0-two-point": lambda P: 6 * (2 ** P - 1),
    "c0-singleton": lambda P: 2 ** (P + 1) - 2,
}


@pytest.mark.parametrize("name", SUMS)
def test_generator_ceilings_allow_at_most_2_20_sums(tmp_path, name):
    # the counts match the generated walks where those are small, and each
    # ceiling is the most phases with at most 2^20 sums
    for phases in range(1, 6):
        out = tmp_path / f"{phases}.trace"
        assert cli.main(["generate", name, "--phases", str(phases), "--out", str(out)]) == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("index,")]
        assert len(rows) == SUMS[name](phases)
    most = cli.GENERATORS[name][2]
    assert SUMS[name](most) <= 2 ** 20 < SUMS[name](most + 1)


@pytest.mark.parametrize("name, most, builder", [
    ("two-lines", 13, "serwalk.walks.gen_two_lines"),
    ("halflines", 10, "serwalk.walks.gen_halflines"),
    ("unbounded", 3, "serwalk.walks.build_unbounded_components_walk"),
    ("c0-two-point", 17, "serwalk.seqspace.gen_c0_two_point"),
    ("c0-singleton", 19, "serwalk.seqspace.gen_c0_singleton_divergent"),
])
def test_generate_refuses_phases_past_its_ceiling(tmp_path, monkeypatch, capsys, name,
                                                  most, builder):
    # c0-singleton --phases 40 once set out to build 2^41 sums; the
    # refusal comes before the generator runs
    monkeypatch.chdir(tmp_path)

    def refuse(*args):
        raise AssertionError(f"{builder} called")

    monkeypatch.setattr(builder, refuse)
    assert cli.main(["generate", name, "--phases", str(most + 1), "--out", "w"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"generate {name} takes at most {most} phases\n"
    assert list(tmp_path.iterdir()) == []


def _accepted_flags(parser, command=()):
    # (command, flag) for every flag a command's own parser accepts
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _accepted_flags(sub, (*command, name))
        elif command and action.dest != "help":
            yield " ".join(command), action.option_strings[0]


def test_the_accepted_flags_are_pinned():
    # a flag added or dropped shows here
    pairs = sorted(_accepted_flags(cli.build_parser()))
    phases_out = ["--phases", "--out"]
    assert len(pairs) == 36
    assert pairs == sorted([
        *((f"generate {g}", f) for g in ("two-lines", "halflines", "unbounded",
                                         "c0-two-point", "c0-singleton")
          for f in phases_out),
        *(("generate chainable", f) for f in [*phases_out, "--target"]),
        *(("generate no-rp", f) for f in ["--kmax", "--out"]),
        *(("rearrange", f) for f in ["--target", "--stages", "--out"]),
        *(("verify estimate", f) for f in ["--input", "--resolution", "--out"]),
        *(("verify dichotomy", f) for f in ["--input", "--resolution", "--gap", "--bound",
                                            "--out"]),
        *(("verify singleton", f) for f in ["--input", "--tol"]),
        ("verify cauchy", "--input"),
        ("verify vector-family", "--k"),
        *(("verify rp-instance", f) for f in ["--input", "--epsilon", "--prefix"]),
        *(("plot", f) for f in ["--input", "--marks", "--out"]),
    ])


def test_rearrange_reports_a_failed_construction(tmp_path, monkeypatch, capsys):
    # prefixes of 100 and 200 terms hold no term below eps/4, so the
    # construction fails at the last length; that is a property failure, and
    # it writes none of the four files
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "PREFIX_LENGTHS", [100, 200])
    (tmp_path / "pt.csv").write_text("coord_0,coord_1\n0.25,-0.5\n")
    assert cli.main(["rearrange", "--target", "pt.csv", "--out", "run"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rearrangement failed: series prefix too short: no term below eps/4\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pt.csv"]


@pytest.mark.parametrize("dim, digests", [
    (7, {"csv": "a4bc8311f0222f2336c1bd3ece517956762e81e62fba246152bf8fdf6b5f8166",
         "perm.json": "1fbd12a3987be6efbf71cecd8510ea8a41237b63cbcb1711e27b6fc21a14c646",
         "report.json": "eb33a1f0cc620f271851af5ffcbf2bf4e159077eb25dc7694d7b9604d24fc241"}),
    (8, {"csv": "f445671b3c42bdedd3126131a4b5c7e227636004bd8c71cc75b2b6039a061c6c",
         "perm.json": "b3261759c97763eb84fdbfb1e8ec26bb628440bb1ce8781546f122d7a7b307d3",
         "report.json": "b3f0a280479854f0237afdab88c54c3e031559157e513989a6b7f1f0b608ef92"}),
], ids=["R7", "R8"])
def test_rearrange_finds_its_prefix_length(tmp_path, dim, digests):
    # (1, 0, ..., 0) exhausts 80,000 terms in R^7 and R^8 and lands on
    # 160,000, with the bytes of a run given that length; the lengths tried
    # are logged at SERWALK_LOG=info
    target = tmp_path / "target.csv"
    target.write_text(",".join(f"coord_{i}" for i in range(dim)) + "\n"
                      + ",".join(["1"] + ["0"] * (dim - 1)) + "\n")
    base = tmp_path / "run"
    r = run("rearrange", "--target", str(target), "--out", str(base),
            env={**os.environ, "SERWALK_LOG": "info"})
    assert r.returncode == 0 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "INFO rearrange: trying a 80000-term prefix",
        "INFO rearrange: 80000 terms are too short: "
        "series prefix exhausted before target reached",
        "INFO rearrange: trying a 160000-term prefix"]
    got = {ext: hashlib.sha256((tmp_path / f"run.{ext}").read_bytes()).hexdigest()
           for ext in digests}
    assert got == digests
    assert json.loads((tmp_path / "run.manifest.json").read_text()) == {
        "command": "rearrange", "out": str(base), "stages": 5, "target": str(target)}


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


@pytest.mark.parametrize("k", [4, 5])
def test_verify_vector_family_up_to_the_dimension_budget(capsys, k):
    # k = 4 once exited 2 with "family too large for exhaustive check"
    assert cli.main(["verify", "vector-family", "--k", str(k)]) == 0
    assert capsys.readouterr().out == "pass\n"


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
    assert "the following arguments are required: --input" in r.stderr


@pytest.mark.parametrize("argv", [
    ["generate", "two-lines", "--kmax", "2"],
    ["generate", "two-lines", "--target", "s.csv"],
    ["generate", "no-rp", "--phases", "3"],
    ["verify", "cauchy", "--input", "t.csv", "--out", "r.json"],
    ["verify", "vector-family", "--input", "t.csv"],
    ["verify", "singleton", "--input", "t.csv", "--resolution", "0.2"],
    # no flag sets the halflines abscissae or the unbounded radii
    ["generate", "halflines", "--phases", "2", "--abscissae", "0,nan,1"],
    ["generate", "unbounded", "--radii", "inf,5"],
    # rearrange finds its own prefix length
    ["rearrange", "--target", "s.csv", "--terms", "100"],
    # the estimate's late window is a fixed rule
    ["verify", "estimate", "--input", "t.csv", "--window", "0.5"],
    ["verify", "dichotomy", "--input", "t.csv", "--window", "0.5"],
], ids=["two-lines-kmax", "two-lines-target", "no-rp-phases", "cauchy-out",
        "vector-family-input", "singleton-resolution", "halflines-abscissae",
        "unbounded-radii", "rearrange-terms", "estimate-window", "dichotomy-window"])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                        argv):
    # each was once accepted with its flag ignored or misread; now argparse
    # refuses it before the command opens its inputs or writes anything
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("coord_0,coord_1\n0,0\n0.25,0\n")
    (tmp_path / "t.csv").write_text("index,phase,coord_0\n1,1,0.5\n2,1,0\n")

    def refuse(*args, **kw):
        raise AssertionError(f"opened {args}")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "t.csv"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "rp-instance", "--prefix", "0"], "prefix must be >= 1"),
    (["verify", "rp-instance", "--prefix", "-1"], "prefix must be >= 1"),
])
def test_out_of_range_counts_are_usage_errors(tmp_path, argv, message):
    # --prefix -1 once balanced all terms but the last, and --prefix 0
    # printed an empty order
    terms = tmp_path / "terms.json"
    assert run("generate", "no-rp", "--kmax", "1", "--out", str(terms)).returncode == 0
    r = run(*argv, "--input", str(terms))
    assert r.returncode == 2
    assert r.stderr.strip() == message
    assert r.stdout == ""


def test_an_over_long_prefix_is_a_usage_error(tmp_path):
    # --prefix 50 once balanced the file's 8 terms and exited 0
    terms = tmp_path / "terms.json"
    assert run("generate", "no-rp", "--kmax", "1", "--out", str(terms)).returncode == 0
    r = run("verify", "rp-instance", "--input", str(terms), "--prefix", "50")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.strip() == f"prefix 50 is longer than the 8 terms of {terms}"
    r = run("verify", "rp-instance", "--input", str(terms), "--epsilon", "0.75",
            "--prefix", "8")
    assert r.returncode == 0


@pytest.mark.parametrize("command, kind, text", [
    (("verify", "cauchy", "--input"), "trace", "index,phase,x,banana\n1,1,0,0\n"),
    (("rearrange", "--target"), "sample", "coord_0,weight\n0.25,1\n"),
    (("rearrange", "--target"), "sample", "coord_1,coord_0\n0.25,-0.5\n"),
], ids=["trace-names", "sample-weight", "sample-swapped"])
def test_malformed_headers_are_usage_errors(tmp_path, command, kind, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    r = run(*command, str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"cannot read {kind} {path}: bad {kind} header")


def test_rearrange_rejects_ragged_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("coord_0,coord_1\n0.25,-0.5\n0.5\n")
    r = run("rearrange", "--target", str(target), "--out", str(tmp_path / "run"))
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
    (RP_INSTANCE, "t.json", '[[1.0, 0.0], [-1.0, 0.0]]'),
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
        "no-terms-key", "bare-list", "key-underscore", "key-space", "key-plus",
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


@pytest.mark.parametrize("command, kind, text, line", [
    (CAUCHY, "trace", _trace("1" * 200_000), 2),
    (CHAINABLE, "sample", _sample("1" * 200_000), 3),
], ids=["trace", "sample"])
def test_a_field_past_the_csv_limit_is_a_usage_error(tmp_path, command, kind, text, line):
    # csv.Error once escaped the readers: a traceback and exit 1
    path = tmp_path / "big.csv"
    path.write_text(text)
    r = run(*command, str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (f"cannot read {kind} {path}: field larger than field limit "
                        f"(131072) at {kind} line {line}\n")


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


@pytest.mark.parametrize("command, out", [
    (["generate", "two-lines", "--phases", "2"], ""),
    (["plot", "--input", "w.csv"], ""),
    (["rearrange", "--target", "t.csv", "--stages", "2"], "missing/r"),
], ids=["generate", "plot", "rearrange"])
def test_an_output_that_cannot_be_opened_is_a_usage_error(tmp_path, command, out):
    # a directory, or a file in a missing one: exit 1 would claim that a
    # verified property failed
    (tmp_path / "t.csv").write_text("coord_0,coord_1\n0.25,-0.5\n")
    assert run("generate", "two-lines", "--phases", "2",
               "--out", str(tmp_path / "w.csv")).returncode == 0
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
    r = run(*argv, "--out", str(tmp_path / out))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert r.stderr.startswith("cannot write: ") and str(tmp_path / out) in r.stderr


@pytest.mark.parametrize("out, made", [
    ("missing/r", None),
    ("d", "d.csv"),
], ids=["missing-directory", "csv-is-a-directory"])
def test_rearrange_refuses_an_unwritable_output_before_running(tmp_path, monkeypatch,
                                                               capsys, out, made):
    # the rearrangement itself may take minutes: refuse before it starts
    def no_run(*args):
        raise AssertionError("the rearrangement ran")

    monkeypatch.setattr(cli, "_rearrange", no_run)
    (tmp_path / "t.csv").write_text("coord_0,coord_1\n0.25,-0.5\n")
    if made:
        (tmp_path / made).mkdir()
    rc = cli.main(["rearrange", "--target", str(tmp_path / "t.csv"),
                   "--stages", "2", "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("cannot write: ")
    assert str(tmp_path / out) + ".csv" in err


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


@pytest.mark.parametrize("trace, marks, message", [
    ("tl.csv", "coord_0\n0\n", "plot marks must be 2-D points"),
    ("tl.csv", "coord_0,coord_1,coord_2\n0,0,0\n", "plot marks must be 2-D points"),
    ("w3.csv", None, "plotting needs a 2-D dense trace"),
    ("c0.jsonl", None, "plotting needs a 2-D dense trace"),
], ids=["marks-1d", "marks-3d", "trace-3d", "trace-c0"])
def test_plot_refuses_what_is_not_2d(tmp_path, monkeypatch, capsys, trace, marks,
                                     message):
    # 1-D marks once raised IndexError and left a half-written SVG, and 3-D
    # marks were plotted by their first two coordinates
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "two-lines", "--phases", "2", "--out", "tl.csv"]) == 0
    assert cli.main(["generate", "c0-two-point", "--phases", "2", "--out", "c0.jsonl"]) == 0
    (tmp_path / "w3.csv").write_text("index,phase,coord_0,coord_1,coord_2\n1,1,1,0,0\n")
    argv = ["plot", "--input", trace, "--out", "w.svg"]
    if marks is not None:
        (tmp_path / "marks.csv").write_text(marks)
        argv += ["--marks", "marks.csv"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"
    assert not (tmp_path / "w.svg").exists()


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
