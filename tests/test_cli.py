"""Command-line front end: scenario parsing, exit codes, output files,
determinism, and sidecar round-trips."""
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
    parse_scenario,
)
from fermatpath.solve import multi_start


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


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMATPATH_OUT", os.path.join(tmp_path, "from-env"))
    scen = parse_scenario(flat_scenario(tmp_path))
    assert scen.out_dir.endswith("from-env")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_flat_ok(tmp_path, capsys):
    f = flat_scenario(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["validate", f, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "validation.json"))
    assert "kappa bound" in capsys.readouterr().out


def test_validate_rejects_positive_kappa(tmp_path, capsys):
    f = flat_scenario(tmp_path, kappa="0.1")
    out = os.path.join(tmp_path, "out")
    assert main(["validate", f, "--out", out]) == EXIT_VALIDATION
    assert "exceeds admissible bound" in capsys.readouterr().err


def test_validate_offset_fiber_bound(tmp_path):
    text = (
        "[model]\nfile = tests/data/offset_fiber.ini\n"
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
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0] == "branch,t_plus,winding,el_residual,energy_dev,noether_dev,iters"
    assert len(summary) == 2
    t_plus = float(summary[1].split(",")[1])
    assert t_plus == pytest.approx(5.0, abs=1e-6)
    rec = open(os.path.join(out, "record_000.json")).read()
    assert '"path_file": "path_000.txt"' in rec
    z = fp.load_path(os.path.join(out, "path_000.txt"))
    geo = fp.load_path(os.path.join(out, "geodesic_000.txt"))
    model = fp.get_model("flat")
    arr = fp.arrival_times(model, z, 0.0)
    assert arr.t_plus == t_plus  # sidecar reproduces the reported value
    assert fp.energy_integral(model, geo) == pytest.approx(0.0, abs=1e-10)


def test_solve_rejects_kappa_list(tmp_path):
    f = flat_scenario(tmp_path, kappa="0 -0.5")
    assert main(["solve", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_PARSE


def test_solve_validation_gate(tmp_path):
    f = flat_scenario(tmp_path, kappa="0.1")
    assert main(["solve", f, "--out", os.path.join(tmp_path, "o")]) == EXIT_VALIDATION


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
    rows = open(os.path.join(out, "summary.csv")).read().splitlines()[1:]
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
    r1 = open(os.path.join(out_flat, "summary.csv")).read().splitlines()[1]
    r2 = open(os.path.join(out_aff, "summary.csv")).read().splitlines()[1]
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


def test_solve_deterministic_csv(tmp_path):
    f = flat_scenario(tmp_path)
    out1 = os.path.join(tmp_path, "one")
    out2 = os.path.join(tmp_path, "two")
    assert main(["solve", f, "--out", out1, "--quiet"]) == EXIT_OK
    assert main(["solve", f, "--out", out2, "--quiet"]) == EXIT_OK
    b1 = open(os.path.join(out1, "summary.csv"), "rb").read()
    b2 = open(os.path.join(out2, "summary.csv"), "rb").read()
    assert b1 == b2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_flat_kappa_values(tmp_path):
    f = flat_scenario(tmp_path, kappa="0 -0.5 -2")
    out = os.path.join(tmp_path, "out")
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert rows[0].startswith("kappa,branch,t_plus")
    got = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows[1:]}
    assert got[0.0] == pytest.approx(5.0, abs=1e-6)
    assert got[-0.5] == pytest.approx(math.sqrt(26.0), abs=1e-6)
    assert got[-2.0] == pytest.approx(math.sqrt(29.0), abs=1e-6)
    # monotone: larger kappa, earlier arrival
    assert got[-2.0] > got[-0.5] > got[0.0]


def test_sweep_single_kappa_degenerates_to_solve(tmp_path):
    f = flat_scenario(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["sweep", f, "--out", out, "--quiet"]) == EXIT_OK
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert len(rows) == 2


def test_quiet_suppresses_stdout(tmp_path, capsys):
    f = flat_scenario(tmp_path)
    main(["solve", f, "--out", os.path.join(tmp_path, "o"), "--quiet"])
    assert capsys.readouterr().out == ""


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
        text = open(os.path.join(out, name)).read()
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
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, fermatpath.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
