"""Golden bytes: two command-line runs whose outputs are pinned byte for byte.

The expected files in data/golden were written by an earlier version of
the program, so a kernel change that moves one bit of a record, a CSV
row or a path sidecar fails here.  Sidecars are pinned by their SHA-256
(data/golden/randers_rot/sidecars.sha256, in `sha256sum` format).

Both models are 2-homogeneous with linear charge, whose outputs stay
byte-identical by design.  The scenarios use winding seeds only: random
seeds go through np.sin, whose SIMD results can differ between CPUs.
"""
import hashlib
import os
from pathlib import Path

from fermatpath.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"


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
