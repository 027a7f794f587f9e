"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/selftest.py

Run from the repository root; about 10 s.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def traced(request, tmp_path_factory):
    """One untraced and one traced in-process command of a workload."""
    work = tmp_path_factory.mktemp(request.param)
    bench_run = run.Run(request.param, 3, work)
    _, plain_out = bench_run.main_inproc("plain")
    tracer = layers.Tracer()
    with tracer:
        missed = tracer.unbound_originals()
        _, traced_out = bench_run.main_inproc("traced")
    csv = run.CSV_NAME[bench_run.command]
    return {
        "run": bench_run,
        "tracer": tracer,
        "missed": missed,
        "plain": (plain_out / csv).read_bytes(),
        "traced": (traced_out / csv).read_bytes(),
    }


def test_every_wrapped_name_records_a_call(traced):
    assert traced["missed"] == []
    calls = traced["tracer"].calls()
    expected = {f"{m}.{f}" for m, f in layers.TARGETS} | {layers.EVAL_SPAN}
    if traced["run"].command != "solve":
        expected -= set(layers.WRITE_SPANS)
    # A scenario names its model either by registry spec or by file.
    text = (BENCH / "workloads" / f"{traced['run'].workload}.ini").read_text()
    expected.discard("models.get_model" if "\nfile =" in text else "models.load_custom_model")
    assert sorted(n for n in expected if calls[n] == 0) == []
    assert traced["run"].problems == []


def test_traced_csv_is_byte_identical(traced):
    assert traced["traced"] == traced["plain"]


def test_layer_metrics_are_counted(traced):
    tracer = traced["tracer"]
    n = traced["run"].scen.opts.N
    metrics = layers.layer_metrics(tracer.per_rep(), tracer.failures.count, 1.0, n)
    for name in ("solve.seeds", "solve.iters", "arrival.gradient_calls",
                 "paths.segment_geometry_calls", "models.eval_calls",
                 "models.eval_rows", "models.omega_coeffs_calls"):
        assert metrics[name][0] > 0, name
    expect_failed = 1 if traced["run"].workload == "fine-grid" else 0
    assert metrics["solve.seeds_failed"][0] == expect_failed


def test_seed_reaches_the_program_only_through_the_flag(tmp_path):
    for workload, command in run.WORKLOADS.items():
        text = (BENCH / "workloads" / f"{workload}.ini").read_text()
        assert "rng_seed" not in text
        argv = run.cli_argv(workload, command, "out", 4242)
        assert argv[argv.index("--seed") + 1] == "4242"
        assert sum("4242" in a for a in argv) == 1
        assert "4242" not in json.dumps(run.child_env())
        assert run.Run(workload, 4242, tmp_path).scen.opts.rng_seed == 4242


def _rows(reference, el=1e-9):
    return [dict(r, el_residual=el) for r in reference]


def test_output_check_accepts_the_reference():
    for workload in run.WORKLOADS:
        ref = outputs.load_reference(workload)
        assert ref
        assert outputs.check(_rows(ref), ref) == []


def test_output_check_rejects_a_perturbed_reference():
    ref = outputs.load_reference("many-seeds")
    rows = _rows(ref)
    rows[3]["t_plus"] *= 1.0 + 1e-7
    assert len(outputs.check(rows, ref)) == 1
    assert len(outputs.check(_rows(ref)[1:], ref)) == 1  # a class went missing


def test_output_check_bounds_unknown_classes():
    ref = outputs.load_reference("polynomial")
    extra = dict(ref[0], winding="1;0", el_residual=1e-6)
    assert outputs.check(_rows(ref) + [extra], ref) == []
    extra["el_residual"] = 1e-2
    assert len(outputs.check(_rows(ref) + [extra], ref)) == 1


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       300 |        900 | site",
        "import time:       400 |      20000 |     scipy.linalg",
        "import time:       500 |      30000 | fermatpath",
        "import time:       100 |       1000 | configparser",
    ])
    assert layers.parse_importtime(text) == (0.031, 0.02)


@pytest.mark.parametrize("code", [3, 0], ids=["exits-non-zero", "writes-no-csv"])
def test_a_broken_cli_gives_an_incorrect_result(tmp_path, monkeypatch, code):
    """A fresh CLI call that fails, or exits 0 without writing its CSV, ends
    the run with a result that reads correct: false, not with a traceback."""

    def broken_child(args, stderr_file, extra=()):
        Path(stderr_file).write_text("simulated failure\n")
        return 0.1, 50.0, code

    monkeypatch.setattr(run, "run_child", broken_child)
    bench_run = run.Run("polynomial", 1, tmp_path)
    res = run.result(bench_run, run.measure(bench_run, 0.1, trace=False))
    assert res["correct"] is False
    assert bench_run.problems
    assert set(res["metrics"]) == {"wall_s", "setup_s", "solve_s", "peak_rss_mb"}
    json.dumps(res, allow_nan=False)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
