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
cylinder and minus_cylinder cases are static models (no omega, no
offset), whose gradients skip the lift adjoint; the others are not.
"""
import hashlib
import os
from pathlib import Path

import pytest

import fermatpath as fp
from fermatpath.cli import EXIT_OK, main
from fermatpath.paths import save_path
from fermatpath.solve import record_to_json

GOLDEN = Path(__file__).parent / "data" / "golden"

# The endpoints and kappa of the fine-grid benchmark, on 200 segments.
MINUS_CASES = {
    "minus_randers_rot": ("randers-rot(0.3)", [0]),
    "minus_cylinder": ("cylinder(1)", [0, 1, -1]),
}


def minus_outputs(name, out):
    """Write the minus-branch records of MINUS_CASES[name] into `out` as
    `fermatpath solve` writes records; returns the file names."""
    spec, seeds = MINUS_CASES[name]
    records = fp.multi_start(
        fp.get_model(spec), fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.7], 0.2),
        -0.5, seeds, fp.SolverOptions(N=200), branch="minus",
    )
    names = []
    for i, rec in enumerate(records):
        files = (f"path_{i:03d}.txt", f"geodesic_{i:03d}.txt", f"record_{i:03d}.json")
        save_path(rec.z_star, str(out / files[0]), (rec.geodesic, str(out / files[1])))
        (out / files[2]).write_text(record_to_json(rec, *files[:2]))
        names += files
    return sorted(names)


def test_randers_rot_solve_is_golden(tmp_path):
    """randers-rot(0.3) solved on 400 segments from the straight seed."""
    out = tmp_path / "out"
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


def test_polynomial_sweep_is_golden(tmp_path):
    """The 2-homogeneous polynomial model of the benchmark, swept over three
    kappa on 200 segments."""
    out = tmp_path / "out"
    assert main(["sweep", str(GOLDEN / "polynomial.ini"), "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / "polynomial" / "sweep.csv").read_bytes()


def test_cylinder_sweep_is_golden(tmp_path):
    """The flat cylinder of the many-seeds benchmark, swept over three kappa
    on 200 segments from the straight seed and four extra windings: the
    plus branch of a static model.  Each straight lift is a geodesic of the
    flat cylinder, so every record stops at iteration 0; the pinned bytes
    are those of the projection, the first gradient's norm and the
    certification.  Descents from bent seeds are checked against the lift
    adjoint in test_kernels."""
    out = tmp_path / "out"
    assert main(["sweep", str(GOLDEN / "cylinder.ini"), "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / "cylinder" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(MINUS_CASES))
def test_minus_records_are_golden(name, tmp_path):
    """Minus-branch records and sidecars, byte for byte."""
    expected = GOLDEN / name
    names = minus_outputs(name, tmp_path)
    assert names == sorted(os.listdir(expected))
    for file in names:
        assert (tmp_path / file).read_bytes() == (expected / file).read_bytes(), file
