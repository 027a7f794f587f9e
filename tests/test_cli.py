"""Command-line front end: scenario parsing, exit codes, output files,
determinism, and sidecar round-trips."""
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import fermatpath as fp
from fermatpath import cli
from fermatpath.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
    parse_scenario,
)
from fermatpath.paths import path_state
from fermatpath.solve import multi_start

from conftest import DATA, OFFSET_FIBER


FLAT_SCENARIO = """\
[model]
spec = flat

[endpoints]
p_y = 0 0
p_t = 0
q_y = 3 4
q_t = 0

[problem]
kappa = {kappa}

[solver]
segments = {segments}
rng_seed = 7
"""


def write_scenario(tmp_path, text, name="scenario.ini"):
    f = os.path.join(tmp_path, name)
    with open(f, "w") as fh:
        fh.write(text)
    return f


def read_file(*parts, mode="r"):
    with open(os.path.join(*parts), mode) as fh:
        return fh.read()


def flat_scenario(tmp_path, kappa="0", segments=100, **kw):
    return write_scenario(tmp_path, FLAT_SCENARIO.format(kappa=kappa, segments=segments))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_scenario_defaults(tmp_path):
    scen = parse_scenario(flat_scenario(tmp_path))
    assert scen.model.name == "flat"
    assert scen.kappas == (0.0,)
    assert scen.opts.N == 100
    assert scen.opts.rng_seed == 7
    assert scen.seeds == (0,)
    assert len(scen.region) == 2


def test_parse_scenario_overrides(tmp_path):
    scen = parse_scenario(
        flat_scenario(tmp_path), out_dir="elsewhere", segments=48, rng_seed=3
    )
    assert scen.out_dir == "elsewhere"
    assert scen.opts.N == 48
    assert scen.opts.rng_seed == 3


def test_parse_missing_key(tmp_path):
    f = write_scenario(tmp_path, "[model]\nspec = flat\n")
    with pytest.raises(fp.ScenarioError):
        parse_scenario(f)


def test_parse_unknown_model_exits_2(tmp_path, capsys):
    f = write_scenario(
        tmp_path,
        "[model]\nspec = nosuch\n[endpoints]\np_y = 0 0\nq_y = 1 1\n"
        "[problem]\nkappa = 0\n",
    )
    assert main(["validate", f]) == EXIT_PARSE
    assert "error" in capsys.readouterr().err


def test_parse_empty_kappa_exits_2(tmp_path):
    f = write_scenario(
        tmp_path,
        "[model]\nspec = flat\n[endpoints]\np_y = 0 0\nq_y = 1 1\n"
        "[problem]\nkappa =\n",
    )
    assert main(["sweep", f]) == EXIT_PARSE


@pytest.mark.parametrize(
    "section, line",
    [
        ("solver", "segmnts = 7"),
        ("solver", "grad_tl = 1e-2"),
        ("seeds", "windngs = 3"),
        ("solver", "armijo_c = 1e-4"),
        ("solver", "backtrack_ratio = 0.5"),
        ("solver", "initial_step = 1"),
    ],
)
def test_unknown_key_exits_2(tmp_path, capsys, section, line):
    # FLAT_SCENARIO ends in its [solver] section.
    extra = f"{line}\n" if section == "solver" else f"[{section}]\n{line}\n"
    f = write_scenario(tmp_path, FLAT_SCENARIO.format(kappa="0", segments=10) + extra)
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"error: {f}: unknown key [{section}] {key}\n"


def test_unknown_section_exits_2(tmp_path, capsys):
    f = write_scenario(
        tmp_path, FLAT_SCENARIO.format(kappa="0", segments=10) + "[sovler]\nN = 7\n"
    )
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {f}: unknown section [sovler]\n"


@pytest.mark.parametrize(
    "problem, message",
    [
        ("region = -1 4; 2", "region interval '2'"),
        ("region = -1 4 5; 0 1", "region interval '-1 4 5'"),
        ("region = 1 -1; 0 1", "region interval '1 -1'"),
        ("samples = 0", "samples must be at least 1"),
    ],
)
def test_malformed_problem_exits_2(tmp_path, capsys, problem, message):
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace(
        "kappa = 0\n", f"kappa = 0\n{problem}\n"
    )
    f = write_scenario(tmp_path, text)
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: ") and message in err


def test_negative_random_seed_count_exits_2(tmp_path, capsys):
    f = write_scenario(
        tmp_path, FLAT_SCENARIO.format(kappa="0", segments=10) + "[seeds]\nrandom = -2\n"
    )
    assert main(["solve", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {f}: [seeds] random: the number of random seeds must be at least 0, not -2\n"
    )


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("kappa = 0", "kappa = nan", "[problem] kappa"),
        ("kappa = 0", "kappa = -inf", "[problem] kappa"),
        ("kappa = 0", "kappa = -1 inf", "[problem] kappa"),
        ("p_t = 0", "p_t = inf", "[endpoints] p_t"),
        ("q_t = 0", "q_t = nan", "[endpoints] q_t"),
        ("p_y = 0 0", "p_y = nan 0", "[endpoints] p_y"),
        ("q_y = 3 4", "q_y = 3 -inf", "[endpoints] q_y"),
        ("kappa = 0", "kappa = 0\nregion = -inf 1; 0 1", "[problem] region"),
        ("kappa = 0", "kappa = 0\nregion = -1 1; 0 nan", "[problem] region"),
    ],
)
def test_non_finite_scenario_number_exits_2(tmp_path, capsys, old, new, key):
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace(old, new)
    f = write_scenario(tmp_path, text)
    assert main(["solve", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: {key} must ")
    assert not os.path.exists(os.path.join(tmp_path, "o"))


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("p_t = 0", "p_t = 1 2", "[endpoints] p_t"),
        ("q_t = 0", "q_t = soon", "[endpoints] q_t"),
        ("p_y = 0 0", "p_y = 0 x", "[endpoints] p_y"),
        ("kappa = 0", "kappa = -1 zero", "[problem] kappa"),
        ("kappa = 0", "kappa = 0\nregion = -1 1; 0 one", "[problem] region"),
        ("kappa = 0", "kappa = 0\nsamples = many", "[problem] samples"),
        ("segments = 10", "segments = ten", "[solver] segments"),
        ("segments = 10", "segments = 10\nmax_iters = 1.5", "[solver] max_iters"),
        ("segments = 10", "segments = 10\ngrad_tol = tiny", "[solver] grad_tol"),
        ("rng_seed = 7", "rng_seed = seven", "[solver] rng_seed"),
        ("rng_seed = 7", "rng_seed = 7\n[seeds]\nrandom = x", "[seeds] random"),
        ("rng_seed = 7", "rng_seed = 7\n[seeds]\nwindings = 0 a", "[seeds] windings"),
    ],
)
def test_malformed_scenario_value_names_its_key(tmp_path, capsys, old, new, key):
    """A value that does not parse exits 2 with a message that names the
    file, the section and the key, and writes nothing."""
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace(old, new)
    assert text != FLAT_SCENARIO.format(kappa="0", segments=10)
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: {key}")
    assert err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "line, args, message",
    [
        ("grad_tol = inf", [], "grad_tol must be positive and finite"),
        ("grad_tol = nan", [], "grad_tol must be positive and finite"),
        ("", ["--seed", "-1"], "rng_seed must be at least 0"),
    ],
)
def test_bad_solver_option_exits_2(tmp_path, capsys, line, args, message):
    text = FLAT_SCENARIO.format(kappa="0", segments=10) + line + "\n"
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out] + args) == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("spec", ["flat(0)", "flat(-1)"])
def test_model_dimension_below_one_exits_2(tmp_path, capsys, spec):
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace("spec = flat", f"spec = {spec}")
    f = write_scenario(tmp_path, text)
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {f}: [model] spec: argument of {spec!r}: "
        f"model dimension must be at least 1, not {spec[5:-1]}\n"
    )


@pytest.mark.parametrize("L0", ["3", "0.5 nu1^2"])
def test_model_file_dimension_zero_exits_2(tmp_path, capsys, L0):
    model = write_scenario(tmp_path, f"[model]\ndim = 0\nL0 = {L0}\n", name="m.ini")
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y =\nq_y =\n[problem]\nkappa = -4\n",
    )
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"error: {model}: [model] dim: model dimension must be at least 1, not 0\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("randers-rot(inf)", "argument of 'randers-rot(inf)' must be finite, not 'inf'"),
        ("affine(flat, inf)", "argument of 'affine(flat, inf)' must be finite, not 'inf'"),
        ("randers-const(nan, 1)",
         "argument of 'randers-const(nan, 1)' must be finite, not 'nan'"),
        ("affine-field(flat, nan y1)", "a factor of term 'nan y1' must be finite, not 'nan'"),
        ("cylinder(nan)", "argument of 'cylinder(nan)': "
         "a cylinder radius must be positive with a finite period, not nan"),
        ("cylinder(-1)", "argument of 'cylinder(-1)': "
         "a cylinder radius must be positive with a finite period, not -1"),
        ("cylinder(0)", "argument of 'cylinder(0)': "
         "a cylinder radius must be positive with a finite period, not 0"),
        ("cylinder(1e308)", "argument of 'cylinder(1e308)': "
         "a cylinder radius must be positive with a finite period, not 1e+308"),
        ("flat(2", "cannot parse model spec 'flat(2'"),
    ],
)
def test_bad_model_spec_exits_2(tmp_path, capsys, spec, message):
    """A registry spec whose argument is malformed, not finite or out of
    range exits 2 at parse time with one line naming [model] spec."""
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace("spec = flat", f"spec = {spec}")
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {f}: [model] spec: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "L0, message",
    [
        ("0.5 nu1^2 + 0.5 nu2^2 + nan y1",
         "[model] L0: a factor of term 'nan y1' must be finite, not 'nan'"),
        ("0.5 nu1^2 + 0.5 nu2^2 + 1e999",
         "[model] L0: a factor of term '1e999' must be finite, not '1e999'"),
        (None, "missing [model] L0"),
    ],
)
def test_model_file_L0_errors_exit_2(tmp_path, capsys, L0, message):
    body = "[model]\ndim = 2\n" + (f"L0 = {L0}\n" if L0 else "")
    model = write_scenario(tmp_path, body, name="m.ini")
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y = 0 0\nq_y = 1 0.5\n"
        "[problem]\nkappa = -1\n",
    )
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("p_y = 0 0", "p_y = 0 0 0", "{f}: endpoint dimension mismatch (model dim 2)"),
        ("kappa = 0", "kappa = 0\nregion = -1 1",
         "{f}: [problem] region needs 2 intervals, got 1"),
        ("p_y = 0 0", "p_y = 0 0%", "{f}: [endpoints] p_y must be a number, not '0%'"),
        ("spec = flat", "file = {missing}", "cannot read model definition '{missing}'"),
        ("spec = flat", "spec = flat\nfile = {missing}",
         "{f}: [model] has both spec and file; give one"),
        ("q_t = 0", "q_t = 0\nq_t = 1",
         "{f}: While reading from '{f}' [line 9]: "
         "option 'q_t' in section 'endpoints' already exists"),
    ],
)
def test_scenario_error_exits_2_with_one_line(tmp_path, capsys, old, new, message):
    missing = os.path.join(tmp_path, "missing.ini")
    text = FLAT_SCENARIO.format(kappa="0", segments=10)
    f = write_scenario(tmp_path, text.replace(old, new.format(missing=missing)))
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message.format(f=f, missing=missing)}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "kappa, message",
    [
        ("-0.5 -0.3",
         "{f}: [problem] kappa: solve takes one kappa, not 2; use sweep for lists"),
        ("", "{f}: [problem] kappa is empty"),
    ],
)
def test_solve_kappa_count_exits_2_naming_the_key(tmp_path, capsys, kappa, message):
    """solve takes one kappa: a list or an empty value exits 2 with one
    line naming the file and the key, before any output is written."""
    f = flat_scenario(tmp_path, kappa=kappa, segments=10)
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message.format(f=f)}\n"
    assert not os.path.exists(out)


def test_unreadable_or_malformed_scenario_exits_2(tmp_path, capsys):
    missing = os.path.join(tmp_path, "missing.ini")
    assert main(["validate", missing, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: cannot read scenario file {missing!r}\n"
    # A line that is not key = value: configparser's multi-line message
    # is printed on one line.
    f = write_scenario(tmp_path, FLAT_SCENARIO.format(kappa="0", segments=10) + "garbage\n")
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: Source contains parsing errors: ")
    assert err.count("\n") == 1 and "garbage" in err
    assert not os.path.exists(os.path.join(tmp_path, "o"))


def write_bytes(tmp_path, data, name):
    f = os.path.join(tmp_path, name)
    with open(f, "wb") as fh:
        fh.write(data)
    return f


def test_undecodable_scenario_exits_2_naming_the_file(tmp_path, capsys):
    """Input files are read as UTF-8; a byte that does not decode is a
    parse error whose message starts with the file."""
    text = FLAT_SCENARIO.format(kappa="0", segments=10).encode()
    f = write_bytes(tmp_path, text.replace(b"q_y = 3 4", b"q_y = 3 \xff4"), "s.ini")
    out = os.path.join(tmp_path, "o")
    assert main(["validate", f, "--out", out]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"error: {f}: not UTF-8 text: invalid start byte\n"
    assert not os.path.exists(out)


def test_undecodable_model_file_exits_2_naming_the_file(tmp_path, capsys):
    model = write_bytes(
        tmp_path, b"[model]\ndim = 2\nL0 = 0.5 nu1^2 + 0.5 nu2^2 # \xe9\n", "m.ini"
    )
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y = 0 0\nq_y = 3 4\n"
        "[problem]\nkappa = 0\n",
    )
    out = os.path.join(tmp_path, "o")
    assert main(["validate", f, "--out", out]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: not UTF-8 text: ")
    assert err.count("\n") == 1
    assert not os.path.exists(out)


def test_input_files_are_utf8_whatever_the_locale(tmp_path):
    """A UTF-8 comment reads the same in an interpreter whose locale
    encoding is ASCII."""
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace(
        "kappa = 0\n", "kappa = 0  # \u03ba, the energy level\n"
    )
    f = write_bytes(tmp_path, text.encode("utf-8"), "s.ini")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    code = (
        "import sys; from fermatpath.cli import parse_scenario; "
        "print(parse_scenario(sys.argv[1]).kappas)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, f], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "(0.0,)"


def test_percent_is_an_ordinary_character(tmp_path, capsys):
    """Values are not interpolated: '%' in a directory name is literal."""
    out = os.path.join(tmp_path, "out%x")
    f = write_scenario(
        tmp_path, FLAT_SCENARIO.format(kappa="0", segments=10) + f"[output]\ndir = {out}\n"
    )
    assert main(["validate", f, "--quiet"]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "validation.json"))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["validate", "solve", "sweep"])
def test_unusable_output_directory_exits_2(tmp_path, capsys, command):
    """An --out that names a file, or a directory that cannot be made below
    one, exits 2 with one error line."""
    f = flat_scenario(tmp_path, segments=10)
    blocker = write_scenario(tmp_path, "", name="a-file")
    for out in (blocker, os.path.join(blocker, "sub")):
        assert main([command, f, "--out", out, "--quiet"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f"{out!r}\n")
        assert err.count("\n") == 1


def test_semicolon_is_a_comment_only_at_line_start(tmp_path):
    """';' after a space separates region intervals; '#' starts an inline
    comment; a line starting with ';' is a comment."""
    text = FLAT_SCENARIO.format(kappa="0", segments=10).replace(
        "kappa = 0\n", "kappa = 0  # level\n; a comment line\nregion = -1 4 ; 0 5\n"
    )
    scen = parse_scenario(write_scenario(tmp_path, text))
    assert scen.region == ((-1.0, 4.0), (0.0, 5.0))
    assert scen.kappas == (0.0,)


def test_model_file_unknown_key_exits_2(tmp_path, capsys):
    model = write_scenario(
        tmp_path, "[model]\ndim = 2\nL0 = 0.5 nu1^2 + 0.5 nu2^2 + 3\nomgea = 0.2 nu1\n",
        name="m.ini",
    )
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y = 0 0\nq_y = 1 0\n"
        "[problem]\nkappa = -4\n",
    )
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {model}: unknown key [model] omgea\n"


def test_model_file_resolved_next_to_scenario(tmp_path, monkeypatch):
    """Run from another directory: a relative [model] file names a file
    beside the scenario, not in the working directory."""
    scen_dir = os.path.join(tmp_path, "scenarios")
    os.makedirs(scen_dir)
    write_scenario(
        scen_dir, "[model]\ndim = 2\nL0 = 0.5 nu1^2 + 0.5 nu2^2\n", name="m.ini"
    )
    write_scenario(
        scen_dir,
        "[model]\nfile = m.ini\n[endpoints]\np_y = 0 0\nq_y = 3 4\n"
        "[problem]\nkappa = 0\n[solver]\nsegments = 20\n",
    )
    monkeypatch.chdir(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["solve", "scenarios/scenario.ini", "--out", out, "--quiet"]) == EXIT_OK
    t_plus = float(read_file(out, "summary.csv").splitlines()[1].split(",")[1])
    assert t_plus == pytest.approx(5.0, abs=1e-6)


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMATPATH_OUT", os.path.join(tmp_path, "from-env"))
    scen = parse_scenario(flat_scenario(tmp_path))
    assert scen.out_dir.endswith("from-env")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_flat_ok(tmp_path, capsys):
    """validate prints exactly the seven report lines, and nothing on stderr."""
    f = flat_scenario(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["validate", f, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "validation.json"))
    captured = capsys.readouterr()
    assert captured.out == (
        "model            : flat (euclidean)\n"
        "qk_check         : True\n"
        "convexity_margin : 1\n"
        "growth_ok        : True\n"
        "supL0_at_zero    : 0\n"
        "kappa bound      : 0\n"
        "cone_samples     : 500\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize(
    "spec, cones",
    [("affine(flat, 0.0)", 500), ("affine(flat, 2.0)", 0), ("affine-field(flat, 0.1 y1)", 0)],
)
def test_validate_counts_cone_samples_only_for_a_linear_charge(tmp_path, capsys, spec, cones):
    """A zero offset leaves the charge linear, so affine(flat, 0.0) samples
    flat's cone; a nonzero offset has no cone to sample."""
    text = FLAT_SCENARIO.format(kappa="0", segments=100).replace(
        "spec = flat", f"spec = {spec}"
    )
    out = os.path.join(tmp_path, "out")
    assert main(["validate", write_scenario(tmp_path, text), "--out", out]) == EXIT_OK
    assert f"cone_samples     : {cones}\n" in capsys.readouterr().out
    assert json.loads(read_file(out, "validation.json"))["cone_samples"] == cones


def test_validate_rejects_positive_kappa(tmp_path, capsys):
    f = flat_scenario(tmp_path, kappa="0.1")
    out = os.path.join(tmp_path, "out")
    assert main(["validate", f, "--out", out]) == EXIT_VALIDATION
    assert "exceeds admissible bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, key, message",
    [
        ("segments = 10", "segments = 10\nmax_iters = 0", "max_iters",
         "max_iters and grad_tol must be positive and finite"),
        ("segments = 10", "segments = 10\ngrad_tol = -1", "grad_tol",
         "max_iters and grad_tol must be positive and finite"),
        ("segments = 10", "segments = 1", "segments", "need at least 2 segments"),
        ("rng_seed = 7", "rng_seed = -3", "rng_seed", "rng_seed must be at least 0, not -3"),
    ],
)
def test_out_of_range_solver_value_names_its_key(tmp_path, capsys, old, new, key, message):
    """A [solver] value that parses but is out of range exits 2 with the
    range message of SolverOptions after the file, the section and the key."""
    f = write_scenario(tmp_path, FLAT_SCENARIO.format(kappa="0", segments=10).replace(old, new))
    out = os.path.join(tmp_path, "o")
    assert main(["validate", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {f}: [solver] {key}: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--segments", "1"], "need at least 2 segments"),
        (["--seed", "-1"], "rng_seed must be at least 0, not -1"),
    ],
)
def test_out_of_range_flag_keeps_its_message(tmp_path, capsys, args, message):
    f = flat_scenario(tmp_path, segments=10)
    assert main(["validate", f, "--out", os.path.join(tmp_path, "o")] + args) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "spec, p_y, q_y",
    [
        ("flat", "0.5 1", "0.5 1"),
        ("cylinder(1)", "0 0", f"0 {2 * math.pi!r}"),
        ("cylinder(1)", "1 -2", f"1 {-2 + 4 * math.pi!r}"),
    ],
)
def test_endpoints_on_one_flow_line_exit_2(tmp_path, capsys, spec, p_y, q_y):
    """Endpoints whose slice positions coincide (modulo the periods) are a
    parse error of the pair [endpoints] p_y, q_y, for validate as for solve."""
    f = write_scenario(
        tmp_path,
        f"[model]\nspec = {spec}\n[endpoints]\np_y = {p_y}\nq_y = {q_y}\n"
        "[problem]\nkappa = -1\n",
    )
    for command in ("validate", "solve"):
        out = os.path.join(tmp_path, "o")
        assert main([command, f, "--out", out]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {f}: [endpoints] p_y, q_y: endpoints lie on the same flow line: "
            "the slice positions coincide\n"
        )
        assert not os.path.exists(out)


@pytest.mark.parametrize("spec", ["flat", "cylinder(1)"])
@pytest.mark.parametrize("p_y, q_y, p_t, q_t", [
    ("-1e308 0", "1e308 0.7", "0", "0.2"),
    ("0 0", "1 0.7", "-1e308", "1e308"),
])
def test_endpoints_of_overflowing_displacement_exit_2(tmp_path, capsys, spec, p_y, q_y, p_t, q_t):
    """Finite endpoints whose displacement overflows, in y or in t, are a
    parse error of the pair of keys that overflows, and numpy warns of
    nothing first."""
    keys = "p_y, q_y" if p_t == "0" else "p_t, q_t"
    f = write_scenario(
        tmp_path,
        f"[model]\nspec = {spec}\n[endpoints]\np_y = {p_y}\nq_y = {q_y}\n"
        f"p_t = {p_t}\nq_t = {q_t}\n[problem]\nkappa = -1\n",
    )
    out = os.path.join(tmp_path, "o")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {f}: [endpoints] {keys}: path nodes must be finite\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "line, message",
    [
        ("dim = two", "[model] dim must be an integer, not 'two'"),
        ("dim = 2\ntopology = 1 x", "[model] topology must be a number, not 'x'"),
        ("dim = 2\ntopology = nan 0",
         "[model] topology: a period must be at least 0 and finite, not nan"),
        ("dim = 2\ntopology = 0 inf",
         "[model] topology: a period must be at least 0 and finite, not inf"),
        ("dim = 2\ntopology = 1", "[model] topology needs 2 periods, got 1"),
        ("dim = 2\nomega = 0.2 q1",
         "[model] omega: a factor of term '0.2 q1' must be a number, not 'q1'"),
        ("dim = 2\nd = y3", "[model] d: variable index out of range in term 'y3' (dim=2)"),
        # omega must be linear in nu: a nu-free term would make omega(y, 0)
        # non-zero and its coefficients wrong.
        ("dim = 2\nomega = 1", "[model] omega: every term must have degree 1 in nu, not 0"),
        ("dim = 2\nomega = 0.3 y1 nu2 + 0.5",
         "[model] omega: every term must have degree 1 in nu, not 0"),
        ("dim = 2\nomega = 0.3 nu1 nu2",
         "[model] omega: every term must have degree 1 in nu, not 2"),
        ("dim = 2\nd = 0.1 y1 nu1", "[model] d: every term must have degree 0 in nu, not 1"),
    ],
)
def test_malformed_model_file_value_names_its_key(tmp_path, capsys, line, message):
    """A model-file value that does not parse, or a non-finite period,
    exits 2 at parse time with a message naming the file, the section and
    the key; nothing runs and no warning is raised."""
    model = write_scenario(
        tmp_path, f"[model]\n{line}\nL0 = 0.5 nu1^2 + 0.5 nu2^2\n", name="m.ini"
    )
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y = 0 0\nq_y = 1 0.5\n"
        "[problem]\nkappa = -1\n[solver]\nsegments = 10\n",
    )
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "body, messages",
    [
        ("L0 = -0.5 nu1^2 - 0.5 nu2^2",
         ["convexity margin -1 is not positive",
          "growth/lower-bound checks failed on samples"]),
        # The power overflows on the sampled velocities; the convexity
        # quotients are then nan, which fails like a margin <= 0, and no
        # numpy warning is raised.
        ("L0 = 0.5 nu1^2 + 0.5 nu2^2 + 1e308 nu1^8",
         ["convexity margin nan is not positive",
          "growth/lower-bound checks failed on samples"]),
    ],
)
@pytest.mark.filterwarnings("error")
def test_validation_failure_exits_3(tmp_path, capsys, body, messages):
    """Each sampled check that fails prints its own line, and validate exits
    3 after writing validation.json, which is JSON (a nan margin is null);
    sweep does the same and solves nothing."""
    model = write_scenario(tmp_path, f"[model]\ndim = 2\n{body}\n", name="m.ini")
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y = 0 0\nq_y = 1 0.5\n"
        "[problem]\nkappa = -1 -2\n[solver]\nsegments = 10\n",
    )
    expected = "".join(f"validation failure: {m}\n" for m in messages)
    out = os.path.join(tmp_path, "out")
    assert main(["validate", f, "--out", out, "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == expected
    assert os.listdir(out) == ["validation.json"]
    with open(os.path.join(out, "validation.json")) as fh:
        report = json.load(fh)
    margin = report["convexity_margin"]
    assert margin is None if "nan" in messages[0] else margin <= 0
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == expected
    assert os.listdir(out) == ["validation.json"]


def test_validate_offset_fiber_bound(tmp_path):
    text = (
        f"[model]\nfile = {OFFSET_FIBER}\n"
        "[endpoints]\np_y = 0 0\nq_y = 1 0\n"
        "[problem]\nkappa = -2\n"
    )
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "out")
    # bound is -3, kappa -2 is inadmissible
    assert main(["validate", f, "--out", out, "--quiet"]) == EXIT_VALIDATION


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_model_exits_3(tmp_path, capsys):
    # 1e308 * y1^8 overflows on the sampled region (|y1| > 1.08)
    model = write_scenario(
        tmp_path,
        "[model]\ndim = 2\nL0 = 0.5 nu1^2 + 0.5 nu2^2 + 1e308 y1^8\n",
        name="overflow.ini",
    )
    f = write_scenario(
        tmp_path,
        f"[model]\nfile = {model}\n[endpoints]\np_y = 0 0\nq_y = 1 0\n"
        "[problem]\nkappa = -1\n",
    )
    out = os.path.join(tmp_path, "out")
    assert main(["validate", f, "--out", out, "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: non-finite")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_flat_writes_outputs(tmp_path, capsys):
    f = flat_scenario(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["solve", f, "--out", out]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "t_plus" in captured
    summary = read_file(out, "summary.csv").splitlines()
    assert summary[0] == "branch,t_plus,winding,el_residual,energy_dev,noether_dev,iters"
    assert len(summary) == 2
    t_plus = float(summary[1].split(",")[1])
    assert t_plus == pytest.approx(5.0, abs=1e-6)
    rec = read_file(out, "record_000.json")
    assert '"path_file": "path_000.txt"' in rec
    z = fp.load_path(os.path.join(out, "path_000.txt"))
    geo = fp.load_path(os.path.join(out, "geodesic_000.txt"))
    model = fp.get_model("flat")
    arr = fp.arrival_times(model, z, 0.0)
    assert arr.t_plus == t_plus  # sidecar reproduces the reported value
    assert path_state(model, geo).E_val == pytest.approx(0.0, abs=1e-10)


def test_solve_rejects_kappa_list(tmp_path):
    f = flat_scenario(tmp_path, kappa="0 -0.5")
    assert main(["solve", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE


def test_solve_validation_gate(tmp_path):
    f = flat_scenario(tmp_path, kappa="0.1")
    assert main(["solve", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_validation_stops_the_command(tmp_path, capsys, command):
    """Without --quiet, a failed validation prints no report and no table:
    only its failure on stderr, and the output directory holds only
    validation.json."""
    f = flat_scenario(tmp_path, kappa="0.1", segments=10)
    out = os.path.join(tmp_path, "out")
    assert main([command, f, "--out", out]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation failure: kappa=0.1 exceeds admissible bound 0\n"
    assert os.listdir(out) == ["validation.json"]


def test_solve_cylinder_multiplicity(tmp_path):
    text = (
        "[model]\nspec = cylinder(1)\n"
        "[endpoints]\np_y = 0 0\nq_y = 1 1\n"
        "[problem]\nkappa = 0\n"
        "[solver]\nsegments = 100\n"
        "[seeds]\nwindings = -2 -1 0 1 2\n"
    )
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "out")
    assert main(["solve", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = read_file(out, "summary.csv").splitlines()[1:]
    assert len(rows) >= 3
    times = [float(r.split(",")[1]) for r in rows]
    assert times == sorted(times)
    assert times[0] == pytest.approx(math.sqrt(2.0), abs=1e-5)


def test_solve_affine_zero_matches_flat(tmp_path):
    out_flat = os.path.join(tmp_path, "flat")
    out_aff = os.path.join(tmp_path, "affine")
    f1 = flat_scenario(tmp_path)
    assert main(["solve", f1, "--out", out_flat, "--quiet"]) == EXIT_OK
    text = FLAT_SCENARIO.format(kappa="0", segments=100).replace(
        "spec = flat", "spec = affine(flat, 0.0)"
    )
    f2 = write_scenario(tmp_path, text, name="affine.ini")
    assert main(["solve", f2, "--out", out_aff, "--quiet"]) == EXIT_OK
    r1 = read_file(out_flat, "summary.csv").splitlines()[1]
    r2 = read_file(out_aff, "summary.csv").splitlines()[1]
    t1, t2 = float(r1.split(",")[1]), float(r2.split(",")[1])
    assert abs(t1 - t2) < 1e-9


def test_solve_no_convergence_exit_code(tmp_path):
    text = (
        "[model]\nspec = randers-rot(0.3)\n"
        "[endpoints]\np_y = 1 0\nq_y = -0.2 1.1\n"
        "[problem]\nkappa = 0\n"
        "[solver]\nsegments = 60\ngrad_tol = 1e-15\nmax_iters = 2\n"
        "[seeds]\nrandom = 2\n"
    )
    f = write_scenario(tmp_path, text)
    assert (
        main(["solve", f, "--out", os.path.join(tmp_path, "o"), "--quiet"])
        == EXIT_NO_CONVERGENCE
    )


def test_solve_of_a_model_that_is_not_fermat_exits_4(tmp_path, capsys):
    """The committed potential-model scenario: each of its three seeds
    reaches dt = 0 where theta is 0.108, so no record is a trajectory.  One
    warning per seed, "no seed converged", a table without rows, exit 4."""
    out = os.path.join(tmp_path, "o")
    code = main(["solve", str(DATA / "potential.ini"), "--out", out, "--quiet"])
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "no seed converged"
    assert len(err) == 4 and all(
        re.fullmatch(
            r"warning: dt = 0 after \d+ iterations, but theta is 0\.108: not a trajectory", line
        )
        for line in err[:-1]
    )
    assert read_file(out, "summary.csv").splitlines()[1:] == []


# randers-rot(0.3) with six random seeds, cut short: the random seeds stop
# within DUPLICATE_TOL of the straight seed's arrival time, unconverged.
DUPLICATE_SEEDS_SCENARIO = """\
[model]
spec = randers-rot(0.3)

[endpoints]
p_y = 0 0
p_t = 0
q_y = 1 0.7
q_t = 0.2

[problem]
kappa = -0.5

[solver]
segments = 200
max_iters = {max_iters}

[seeds]
windings = 0
random = 6
"""


def test_solve_merges_duplicate_records_by_position(tmp_path, capsys):
    """After 5 iterations no seed has converged and several are duplicates:
    merging them ends in "no seed converged", not in an error from
    comparing the records' path arrays.  Each of the 7 seeds warns that it
    stopped at the iteration cap."""
    f = write_scenario(tmp_path, DUPLICATE_SEEDS_SCENARIO.format(max_iters=5))
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out, "--quiet"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "".join(
        f"warning: iteration cap reached after 5 iterations (|grad|={g})\n"
        for g in ("0.00502", "0.0307", "0.043", "0.0214", "0.0209", "0.0614", "0.0395")
    ) + "no seed converged\n"


def test_solve_keeps_the_converged_duplicate(tmp_path):
    """After 20 iterations the straight seed has converged and the random
    seeds stop at max_iters within DUPLICATE_TOL of it, with smaller EL
    residuals: the converged record is the one kept and written."""
    f = write_scenario(tmp_path, DUPLICATE_SEEDS_SCENARIO.format(max_iters=20))
    out = os.path.join(tmp_path, "o")
    assert main(["solve", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = read_file(out, "summary.csv").splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("plus,") and rows[1].split(",")[2] == "0;0"
    assert json.loads(read_file(out, "record_000.json"))["seed"] == "0"


def test_solve_deterministic_csv(tmp_path):
    f = flat_scenario(tmp_path)
    out1 = os.path.join(tmp_path, "one")
    out2 = os.path.join(tmp_path, "two")
    assert main(["solve", f, "--out", out1, "--quiet"]) == EXIT_OK
    assert main(["solve", f, "--out", out2, "--quiet"]) == EXIT_OK
    b1 = read_file(out1, "summary.csv", mode="rb")
    b2 = read_file(out2, "summary.csv", mode="rb")
    assert b1 == b2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_flat_kappa_values(tmp_path):
    f = flat_scenario(tmp_path, kappa="0 -0.5 -2")
    out = os.path.join(tmp_path, "out")
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = read_file(out, "sweep.csv").splitlines()
    assert rows[0].startswith("kappa,branch,t_plus")
    got = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows[1:]}
    assert got[0.0] == pytest.approx(5.0, abs=1e-6)
    assert got[-0.5] == pytest.approx(math.sqrt(26.0), abs=1e-6)
    assert got[-2.0] == pytest.approx(math.sqrt(29.0), abs=1e-6)
    # monotone: larger kappa, earlier arrival
    assert got[-2.0] > got[-0.5] > got[0.0]


def test_sweep_no_convergence_exit_code(tmp_path, capsys):
    """Two iterations are too few at every kappa: each descent warns that it
    stopped at the iteration cap, and the sweep writes a CSV of its header
    alone and exits 4."""
    text = FLAT_SCENARIO.format(kappa="-1 -0.5", segments=40).replace(
        "spec = flat", "spec = randers-rot(0.3)"
    ).replace("q_y = 3 4", "q_y = 1 0.7") + "max_iters = 2\n"
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "out")
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == (
        "warning: iteration cap reached after 2 iterations (|grad|=0.0915)\n"
        "warning: iteration cap reached after 2 iterations (|grad|=0.07)\n"
        "no seed converged for any kappa\n"
    )
    assert read_file(out, "sweep.csv").splitlines() == [
        "kappa,branch,t_plus,winding,el_residual,energy_dev,noether_dev,iters"
    ]


def test_sweep_warns_when_arrival_grows_with_kappa(tmp_path, capsys, monkeypatch):
    """Records whose arrival time grows with kappa are written and warned
    about: each kappa here gets the records of the other one."""
    solve_at = cli.multi_start
    monkeypatch.setattr(
        cli, "multi_start",
        lambda model, p, q, kappa, *args: solve_at(model, p, q, -2.5 - kappa, *args),
    )
    f = flat_scenario(tmp_path, kappa="-2 -0.5", segments=20)
    assert main(["sweep", f, "--out", os.path.join(tmp_path, "out"), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: arrival time not monotone in kappa for ('plus', (0, 0)): "
        f"t(-0.5)={math.sqrt(29.0):.6g} > t(-2)={math.sqrt(26.0):.6g}\n"
    )


def test_sweep_does_not_compare_records_of_one_kappa(tmp_path, capsys):
    """Two random seeds stopped at once (grad_tol = 1000) leave two records
    of one winding class at each kappa, with different arrival times; the
    smallest per kappa falls with kappa, so nothing is warned about."""
    text = FLAT_SCENARIO.format(kappa="-1 -0.5", segments=20).replace(
        "rng_seed = 7", "rng_seed = 7\ngrad_tol = 1000"
    ) + "\n[seeds]\nrandom = 2\n"
    f = write_scenario(tmp_path, text)
    out = os.path.join(tmp_path, "out")
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = [r.split(",") for r in read_file(out, "sweep.csv").splitlines()[1:]]
    assert [r[0] for r in rows] == ["-1", "-1", "-0.5", "-0.5"]
    assert len({r[2] for r in rows}) == 4
    assert capsys.readouterr().err == ""


def test_sweep_single_kappa_degenerates_to_solve(tmp_path):
    f = flat_scenario(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = read_file(out, "sweep.csv").splitlines()
    assert len(rows) == 2


def test_quiet_suppresses_stdout(tmp_path, capsys):
    f = flat_scenario(tmp_path)
    main(["solve", f, "--out", os.path.join(tmp_path, "o"), "--quiet"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, kappa, table", [("solve", "0", "summary.csv"), ("sweep", "0 -0.5", "sweep.csv")]
)
def test_stdout_is_the_table_file(tmp_path, capsys, command, kappa, table):
    """Without --quiet, solve and sweep print exactly the bytes of their CSV
    table, and nothing on stderr."""
    f = flat_scenario(tmp_path, kappa=kappa, segments=20)
    out = os.path.join(tmp_path, "out")
    assert main([command, f, "--out", out]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == read_file(out, table, mode="rb").decode()
    assert captured.err == ""


# ---------------------------------------------------------------------------
# structured output and dependencies
# ---------------------------------------------------------------------------

def test_json_outputs_layout_and_round_trip(tmp_path):
    f = flat_scenario(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["solve", f, "--out", out, "--quiet"]) == EXIT_OK
    scen = parse_scenario(f)
    report = fp.validate_assumptions(
        scen.model, scen.region, scen.samples, scen.opts.rng_seed
    )
    rec = multi_start(scen.model, scen.p, scen.q, 0.0, scen.seeds, scen.opts)[0]
    expected = {
        "validation.json": report.as_dict(),
        "record_000.json": dict(
            rec.as_dict(), path_file="path_000.txt", geodesic_file="geodesic_000.txt"
        ),
    }
    for name, values in expected.items():
        text = read_file(out, name)
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
        body = lines[1:-1]
        assert all(re.fullmatch(r'  "\w+": \S.*', line) for line in body)
        assert all(line.endswith(",") for line in body[:-1])
        assert not body[-1].endswith(",")
        assert "True" not in text and "False" not in text
        assert "true" in text
        # == on floats: every value round-trips bit-exactly
        assert json.loads(text) == values


def test_cli_import_needs_no_scipy():
    """Importing the command line loads no third-party package but numpy:
    every top-level module it adds is in the standard library, numpy or
    fermatpath.  Modules loaded before the import (site hooks) do not
    count."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; before = set(sys.modules); import fermatpath.cli; "
        "allowed = sys.stdlib_module_names | {'numpy', 'fermatpath'}; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(m for m in new if m not in allowed))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# process entry: the allocator policy
# ---------------------------------------------------------------------------

class FakeMallopt:
    """mallopt of a fake libc: records (param, value) and answers `reply`."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.reply


def fake_libc(monkeypatch, libc):
    """Load `libc` in place of the process's C library, on a Linux platform."""
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)


def test_steady_heap_sets_mmap_then_trim_threshold(monkeypatch):
    mallopt = FakeMallopt(1)
    fake_libc(monkeypatch, SimpleNamespace(mallopt=mallopt))
    cli._steady_heap()
    assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert mallopt.restype is cli.ctypes.c_int


def test_steady_heap_without_mallopt_is_a_no_op(monkeypatch):
    libc = SimpleNamespace()
    fake_libc(monkeypatch, libc)
    cli._steady_heap()
    assert vars(libc) == {}


def test_steady_heap_refused_mmap_threshold_leaves_trim_alone(monkeypatch):
    """Setting the trim threshold alone would freeze the mmap threshold at
    128 KiB, so a refused mmap threshold ends the policy."""
    mallopt = FakeMallopt(0)
    fake_libc(monkeypatch, SimpleNamespace(mallopt=mallopt))
    cli._steady_heap()
    assert mallopt.calls == [(-3, 32 << 20)]


def test_main_leaves_the_allocator_alone(tmp_path, monkeypatch):
    def forbidden():
        raise AssertionError("main set the allocator policy")

    monkeypatch.setattr(cli, "_steady_heap", forbidden)
    assert main(["validate", flat_scenario(tmp_path), "--out",
                 os.path.join(tmp_path, "out"), "--quiet"]) == EXIT_OK


def test_run_returns_the_exit_code_of_main(tmp_path, monkeypatch):
    """The entry sets the policy once per call and passes main's code on;
    the fake policy keeps the allocator of this process as it is."""
    calls = []
    monkeypatch.setattr(cli, "_steady_heap", lambda: calls.append(1))
    no_convergence = write_scenario(
        tmp_path, DUPLICATE_SEEDS_SCENARIO.format(max_iters=5), "cut.ini"
    )
    cases = [
        (["validate", flat_scenario(tmp_path)], EXIT_OK),
        (["solve", os.path.join(tmp_path, "missing.ini")], EXIT_PARSE),
        (["solve", no_convergence], EXIT_NO_CONVERGENCE),
    ]
    for args, code in cases:
        assert cli.run([*args, "--out", os.path.join(tmp_path, "out"), "--quiet"]) == code
    assert len(calls) == len(cases)


def child_minor_faults(argv, timeout=120.0):
    """Run `python <argv>` with the package of this checkout; its minor page
    faults (ru_minflt) and exit code, read from os.wait4."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=devnull)
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return usage.ru_minflt, os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            pytest.fail(f"python {' '.join(argv)} ran longer than {timeout} s")
        time.sleep(0.01)


# randers-rot(0.3) between the fine-grid endpoints at N = 2e4, one straight
# seed that cannot meet grad_tol: each run is max_iters iterations, no output.
ITERATION_CAP_SCENARIO = """\
[model]
spec = randers-rot(0.3)

[endpoints]
p_y = 0 0
q_y = 1 0.7
q_t = 0.2

[problem]
kappa = -0.5

[solver]
segments = 20000
grad_tol = 1e-15
max_iters = {max_iters}
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator policy")
def test_cli_descent_iterations_fault_no_heap_pages_back(tmp_path):
    """Twenty more iterations at N = 2e4 take almost no more page faults:
    the (N, m) blocks an iteration frees stay in the heap for the next one
    (about 80 more faults).  Under glibc's default thresholds the twenty
    iterations fault about 4k pages back in."""
    faults = []
    for max_iters in (4, 24):
        scenario = write_scenario(
            tmp_path, ITERATION_CAP_SCENARIO.format(max_iters=max_iters), f"cap_{max_iters}.ini"
        )
        minflt, code = child_minor_faults([
            "-m", "fermatpath.cli", "solve", scenario,
            "--out", os.path.join(tmp_path, "out"), "--quiet",
        ])
        assert code == EXIT_NO_CONVERGENCE
        faults.append(minflt)
    assert faults[1] - faults[0] < 500, faults
