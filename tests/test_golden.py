"""Golden bytes: three command-line runs whose outputs are pinned byte for byte.

The expected files in data/golden were written by an earlier version of
the program, so a kernel change that moves one bit of a record, a CSV
row or a path sidecar fails here.  Sidecars are pinned by their SHA-256
(data/golden/randers_rot/sidecars.sha256, in `sha256sum` format).

The minus-branch records of data/golden/minus_* are written the way
`fermatpath solve` writes a record (record_to_json and save_path) from
`multi_start(..., branch="minus")`, which no command runs.  They were
written by an earlier version whose kernels carried the branch sign, so
they check the time-reversed plus solve against an independent
implementation of the minus branch.

Every model here is 2-homogeneous with linear charge, whose outputs stay
byte-identical by design.  The scenarios use winding seeds only: random
seeds go through np.sin, whose SIMD results can differ between CPUs.  The
cylinder, static, minus_cylinder and minus_static cases are static models
(no omega, no offset), whose gradients skip the lift adjoint and whose
line-search trials take the t-nodes of their iterate; the others are not.
Of the static ones, the static and minus_static cases descend from their
seeds (minus_static, the static polynomial model of the static case on
the minus branch, in 12, 92 and 133 iterations); the cylinder ones stop
at iteration 0.

No command pairs a variation with per-segment coefficients
(paths.segment_pairing, through which tangent_split, dt_plus and the
t-part of a lifted field go): the four command-line scenarios write their
pinned bytes with it made to raise.
"""
import csv
import hashlib
import os
from pathlib import Path

import pytest

import fermatpath as fp
from fermatpath import arrival, paths
from fermatpath.cli import EXIT_OK, main
from fermatpath.models import load_custom_model
from fermatpath.paths import save_path
from fermatpath.solve import record_to_json

GOLDEN = Path(__file__).parent / "data" / "golden"

# The endpoints and kappa of the fine-grid benchmark, on 200 segments; a
# model is a registry spec or a model file of data/golden.
MINUS_CASES = {
    "minus_randers_rot": ("randers-rot(0.3)", [0]),
    "minus_cylinder": ("cylinder(1)", [0, 1, -1]),
    "minus_static": ("static.model.ini", [0, 1, -1]),
}


def minus_outputs(name, out):
    """Write the minus-branch records of MINUS_CASES[name] into `out` as
    `fermatpath solve` writes records; returns the file names."""
    spec, seeds = MINUS_CASES[name]
    if spec.endswith(".ini"):
        model = load_custom_model(str(GOLDEN / spec))
    else:
        model = fp.get_model(spec)
    records = fp.multi_start(
        model, fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.7], 0.2),
        -0.5, seeds, fp.SolverOptions(N=200), branch="minus",
    )
    names = []
    for i, rec in enumerate(records):
        files = (f"path_{i:03d}.txt", f"geodesic_{i:03d}.txt", f"record_{i:03d}.json")
        save_path(rec.z_star, str(out / files[0]), (rec.geodesic, str(out / files[1])))
        (out / files[2]).write_text(record_to_json(rec, *files[:2]))
        names += files
    return sorted(names)


def check_randers_rot_solve(out):
    """Solve the randers_rot scenario into `out` and compare the pinned files."""
    assert main(["solve", str(GOLDEN / "randers_rot.ini"), "--out", str(out), "--quiet"]) == EXIT_OK
    expected = GOLDEN / "randers_rot"
    assert sorted(os.listdir(out)) == [
        "geodesic_000.txt", "path_000.txt", "record_000.json", "summary.csv", "validation.json",
    ]
    for name in ("summary.csv", "record_000.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    for line in (expected / "sidecars.sha256").read_text().splitlines():
        digest, name = line.split()
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def check_sweep(name, out):
    """Sweep the scenario data/golden/<name>.ini into `out` and compare its
    sweep.csv with the pinned one; returns the CSV text."""
    assert main(["sweep", str(GOLDEN / f"{name}.ini"), "--out", str(out), "--quiet"]) == EXIT_OK
    text = (out / "sweep.csv").read_bytes()
    assert text == (GOLDEN / name / "sweep.csv").read_bytes(), name
    return text.decode()


def test_randers_rot_solve_is_golden(tmp_path):
    """randers-rot(0.3) solved on 400 segments from the straight seed."""
    check_randers_rot_solve(tmp_path / "out")


def test_polynomial_sweep_is_golden(tmp_path):
    """The 2-homogeneous polynomial model of the benchmark, swept over three
    kappa on 200 segments."""
    check_sweep("polynomial", tmp_path / "out")


def test_cylinder_sweep_is_golden(tmp_path):
    """The flat cylinder of the many-seeds benchmark, swept over three kappa
    on 200 segments from the straight seed and four extra windings: the
    plus branch of a static model.  Each straight lift is a geodesic of the
    flat cylinder, so every record stops at iteration 0; the pinned bytes
    are those of the projection, the first gradient's norm and the
    certification.  Descents from bent seeds are checked against the lift
    adjoint in test_kernels, and on the static case below."""
    check_sweep("cylinder", tmp_path / "out")


def test_static_sweep_is_golden(tmp_path):
    """A static polynomial model whose L0 depends on y1, swept over three
    kappa on 200 segments from three windings: the plus branch of a static
    model, descending from every seed, so the pinned bytes are those of
    descents that skip the lift adjoint."""
    assert load_custom_model(str(GOLDEN / "static.model.ini")).static
    rows = list(csv.DictReader(check_sweep("static", tmp_path / "out").splitlines()))
    assert len(rows) == 9
    assert all(int(row["iters"]) > 0 for row in rows)


def test_no_command_pairs_a_field(monkeypatch, tmp_path):
    """The four command-line scenarios write their pinned bytes with
    segment_pairing made to raise: no command runs it, so a change that puts
    it on a command's path must bring a workload for it."""

    def refuse(*args):
        raise AssertionError("segment_pairing ran")

    for module in (paths, arrival):
        monkeypatch.setattr(module, "segment_pairing", refuse)
    check_randers_rot_solve(tmp_path / "randers_rot")
    for name in ("polynomial", "cylinder", "static"):
        check_sweep(name, tmp_path / name)


@pytest.mark.parametrize("name", sorted(MINUS_CASES))
def test_minus_records_are_golden(name, tmp_path):
    """Minus-branch records and sidecars, byte for byte."""
    expected = GOLDEN / name
    names = minus_outputs(name, tmp_path)
    assert names == sorted(os.listdir(expected))
    for file in names:
        assert (tmp_path / file).read_bytes() == (expected / file).read_bytes(), file
