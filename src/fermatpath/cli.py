"""Command-line front end: validate / solve / sweep over scenario files.

A scenario is a flat key = value file with these sections and keys:

    [model]      exactly one of spec (a built-in model, e.g.
                 randers-rot(0.3)) or file (a polynomial model definition)
    [endpoints]  p_y, q_y (slice coordinates); p_t, q_t (default 0)
    [problem]    kappa (one or more energy levels); region ("lo hi"
                 intervals, one per coordinate, separated by ";") and
                 samples (at least 1) for the sampled assumption checks
    [solver]     segments, max_iters, grad_tol, rng_seed
    [seeds]      windings (extra wraps of the straight seed), random
                 (number of perturbed seeds, at least 0)
    [output]     dir

The output directory is --out, else [output] dir, else the environment
variable FERMATPATH_OUT, else fermatpath-out.  An unknown section or key
is a parse error, and so is a [model] section with both spec and file.  A
relative `[model] file` is looked up next to the scenario file first, then
in the working directory; models.load_custom_model describes the model
file, which is read the same strict way.  '#' starts a comment anywhere on
a line; ';' starts one only at the start of a line, because it also
separates the region intervals.  '%' is an ordinary character: values are
not interpolated.

Outputs are plot-ready CSV (17-significant-digit decimals, comma
delimited, mandatory header) plus structured-text records with path sidecar
files.  Identical scenario and seed produce byte-identical CSV.

Every command takes one pipeline.  It parses the scenario, then validates
it: the sampled assumptions and each kappa's admissibility, written to
validation.json.  Only `validate` prints the report; a failure ends every
command with exit 3.  `solve` and `sweep` then solve each kappa in
increasing order and write their table once, to its CSV file and, unless
--quiet, the same text to stdout.

Exit codes:

    0  success
    2  input error: a file that cannot be read or parsed, a missing or
       unknown section or key, or a malformed or out-of-range value of
       the scenario, of its model file or of a registry spec's arguments
       (a non-finite number, a polynomial coefficient that is not finite,
       a negative period, a cylinder radius that is not positive, a
       [solver] value SolverOptions refuses, endpoints on one flow
       line); the message of a bad value names the file, the section and
       the key.  Also an output directory that cannot be created or
       written.  One "error:" line on stderr.
    3  validation failure, including a model that evaluates to a
       non-finite value outside the per-seed descent
    4  no converged record; a record of a model that is not a Fermat
       model, whose descent reaches dt = 0 where theta is not 0, is not
       converged (solve._descend)

Warnings do not change the exit code.  Each is one "warning:" line on
stderr: a seed that failed, a descent that stopped unconverged (line-search
stall, stagnation, iteration cap, dt = 0 that is not a trajectory), and a
sweep's arrival time that grows with kappa.

The process entry point is `run`, used by the `fermatpath` console script
and by `python -m fermatpath.cli`: it sets the allocator policy of
`_steady_heap`, then runs `main`, which leaves the allocator alone, so
tests and library callers keep their own.
"""
from __future__ import annotations

import argparse
import ctypes
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .arrival import require_admissible
from .errors import AdmissibilityError, ModelEvaluationError, ScenarioError
from .models import (
    Point,
    StationaryModel,
    _check_samples,
    _numbers,
    _read,
    get_model,
    load_custom_model,
    read_ini,
    validate_assumptions,
)
from .paths import save_path
from .solve import (
    SolutionRecord,
    SolverOptions,
    _check_endpoints,
    _fmt,
    _json_text,
    multi_start,
    record_to_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4

OUT_DIR_ENV = "FERMATPATH_OUT"

# [solver] key -> SolverOptions field; SolverOptions alone holds the defaults.
_SOLVER_KEYS = {
    "segments" if f.name == "N" else f.name: f for f in fields(SolverOptions)
}
_SCENARIO_KEYS = {
    "model": ("spec", "file"),
    "endpoints": ("p_y", "p_t", "q_y", "q_t"),
    "problem": ("kappa", "region", "samples"),
    "solver": tuple(_SOLVER_KEYS),
    "seeds": ("windings", "random"),
    "output": ("dir",),
}


def _check_random(count: int):
    if count < 0:
        raise ValueError(f"the number of random seeds must be at least 0, not {count}")


@dataclass(frozen=True)
class Scenario:
    model: StationaryModel
    p: Point
    q: Point
    kappas: tuple[float, ...]
    seeds: tuple[object, ...]
    opts: SolverOptions
    region: tuple[tuple[float, float], ...]
    samples: int
    out_dir: str


def parse_scenario(
    path: str,
    *,
    out_dir: Optional[str] = None,
    segments: Optional[int] = None,
    rng_seed: Optional[int] = None,
) -> Scenario:
    """Read a scenario file; command-line overrides win over file values."""
    cp = read_ini(path, _SCENARIO_KEYS, "scenario file")

    if cp.has_option("model", "spec") and cp.has_option("model", "file"):
        raise ScenarioError(f"{path}: [model] has both spec and file; give one")
    if cp.has_option("model", "file"):
        # A relative file is looked up next to the scenario first, then
        # against the working directory.
        name = cp.get("model", "file")
        beside = os.path.join(os.path.dirname(path), name)
        model = load_custom_model(beside if os.path.isfile(beside) else name)
    else:
        spec = _read(cp, path, "model", "spec")
        try:
            model = get_model(spec)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: [model] spec: {exc}") from None

    p_y, q_y = (_read(cp, path, "endpoints", k, float, many=True) for k in ("p_y", "q_y"))
    if len(p_y) != model.dim or len(q_y) != model.dim:
        raise ScenarioError(
            f"{path}: endpoint dimension mismatch (model dim {model.dim})"
        )
    p_t, q_t = (_read(cp, path, "endpoints", k, float, 0.0) for k in ("p_t", "q_t"))
    p = Point(p_y, p_t)
    q = Point(q_y, q_t)
    fault = _check_endpoints(model, p, q)
    if fault:
        raise ScenarioError("{}: [endpoints] {}: {}".format(path, *fault))

    kappas = tuple(_read(cp, path, "problem", "kappa", float, many=True))
    if not kappas:
        raise ScenarioError(f"{path}: [problem] kappa is empty")

    # Only the keys present are passed; SolverOptions supplies the defaults
    # and alone checks the ranges, each file key on its own.
    solver = {
        f.name: _read(
            cp, path, "solver", key, type(f.default),
            check=lambda value, name=f.name: SolverOptions(**{name: value}),
        )
        for key, f in _SOLVER_KEYS.items()
        if cp.has_option("solver", key)
    }
    if segments is not None:
        solver["N"] = segments
    if rng_seed is not None:
        solver["rng_seed"] = rng_seed
    opts = SolverOptions(**solver)

    seeds = _read(cp, path, "seeds", "windings", int, [], many=True)
    seeds += ["random"] * _read(cp, path, "seeds", "random", int, 0, check=_check_random)
    if not seeds:
        seeds = [0]

    if cp.has_option("problem", "region"):
        pieces = cp.get("problem", "region").split(";")
        if len(pieces) != model.dim:
            raise ScenarioError(
                f"{path}: [problem] region needs {model.dim} intervals, got {len(pieces)}"
            )
        region = tuple(
            tuple(_numbers(piece, float, f"{path}: [problem] region")) for piece in pieces
        )
        for piece, bounds in zip(pieces, region):
            if len(bounds) != 2 or not bounds[0] <= bounds[1]:
                raise ScenarioError(
                    f"{path}: region interval {piece.strip()!r} is not 'lo hi' "
                    "with lo <= hi"
                )
    else:
        lo = np.minimum(p.y, q.y)
        hi = np.maximum(p.y, q.y)
        pad = 1.0 + 0.5 * float(np.linalg.norm(q.y - p.y))
        region = tuple((float(a - pad), float(b + pad)) for a, b in zip(lo, hi))

    samples = _read(cp, path, "problem", "samples", int, 500, check=_check_samples)

    out = out_dir or cp.get("output", "dir", fallback=None) or os.environ.get(
        OUT_DIR_ENV, "fermatpath-out"
    )
    return Scenario(
        model=model,
        p=p,
        q=q,
        kappas=kappas,
        seeds=tuple(seeds),
        opts=opts,
        region=region,
        samples=samples,
        out_dir=out,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(scen: Scenario, quiet: bool) -> int:
    """Check the model's sampled assumptions and each kappa's admissibility.

    Writes validation.json, prints the report unless quiet, then prints each
    failure on stderr and returns EXIT_VALIDATION if there was one.
    """
    report = validate_assumptions(
        scen.model, scen.region, scen.samples, scen.opts.rng_seed
    )
    problems = []
    if not report.convexity_margin > 0.0:  # nan fails too
        problems.append(
            f"convexity margin {report.convexity_margin:.3g} is not positive"
        )
    if not report.growth_ok:
        problems.append("growth/lower-bound checks failed on samples")
    if not report.qk_check:
        problems.append("charge of the symmetry field is not -1")
    for kappa in scen.kappas:
        try:
            require_admissible(kappa, report.kappa_admissible_bound)
        except AdmissibilityError as exc:
            problems.append(str(exc))
    os.makedirs(scen.out_dir, exist_ok=True)
    with open(os.path.join(scen.out_dir, "validation.json"), "w") as fh:
        fh.write(_json_text(report.as_dict()))
    if not quiet:
        print(
            f"model            : {scen.model.name or '<custom>'} ({scen.model.topology})\n"
            f"qk_check         : {report.qk_check}\n"
            f"convexity_margin : {report.convexity_margin:.6g}\n"
            f"growth_ok        : {report.growth_ok}\n"
            f"supL0_at_zero    : {report.supL0_at_zero:.6g}\n"
            f"kappa bound      : {report.kappa_admissible_bound:.6g}\n"
            f"cone_samples     : {report.cone_samples}"
        )
    for msg in problems:
        print(f"validation failure: {msg}", file=sys.stderr)
    return EXIT_VALIDATION if problems else EXIT_OK


_SUMMARY_COLUMNS = (
    "branch",
    "t_plus",
    "winding",
    "el_residual",
    "energy_dev",
    "noether_dev",
    "iters",
)


def _summary_row(rec: SolutionRecord) -> list[str]:
    return [
        rec.branch,
        _fmt(rec.t_plus),
        ";".join(str(k) for k in rec.winding),
        _fmt(rec.el_residual),
        _fmt(rec.energy_dev),
        _fmt(rec.noether_dev),
        str(rec.iters),
    ]


def _write_table(scen: Scenario, quiet: bool, name: str, header, rows) -> None:
    """Write a CSV table to the output directory, and the same text to
    stdout unless quiet."""
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    with open(os.path.join(scen.out_dir, name), "w", newline="") as fh:
        fh.write(text)
    if not quiet:
        sys.stdout.write(text)


def _solved(scen: Scenario) -> list[tuple[float, list[SolutionRecord]]]:
    """Each kappa of the scenario, in increasing order, with its converged
    records."""
    return [
        (kappa, [
            r for r in multi_start(scen.model, scen.p, scen.q, kappa, scen.seeds, scen.opts)
            if r.converged
        ])
        for kappa in sorted(scen.kappas)
    ]


def cmd_solve(scen: Scenario, quiet: bool) -> int:
    """Solve at the scenario's one kappa; `main` has checked the count and
    validated the scenario."""
    [(_, records)] = _solved(scen)
    rows = []
    for i, rec in enumerate(records):
        path_file = f"path_{i:03d}.txt"
        geo_file = f"geodesic_{i:03d}.txt"
        save_path(
            rec.z_star, os.path.join(scen.out_dir, path_file),
            (rec.geodesic, os.path.join(scen.out_dir, geo_file)),
        )
        with open(os.path.join(scen.out_dir, f"record_{i:03d}.json"), "w") as fh:
            fh.write(record_to_json(rec, path_file, geo_file))
        rows.append(_summary_row(rec))
    _write_table(scen, quiet, "summary.csv", _SUMMARY_COLUMNS, rows)
    if not records:
        print("no seed converged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_sweep(scen: Scenario, quiet: bool) -> int:
    solved = _solved(scen)
    rows = [[_fmt(kappa)] + _summary_row(rec) for kappa, records in solved for rec in records]
    _write_table(scen, quiet, "sweep.csv", ("kappa",) + _SUMMARY_COLUMNS, rows)
    # The smallest arrival time of each winding class at each kappa.
    by_class: dict[tuple, dict[float, float]] = {}
    for kappa, records in solved:
        for rec in records:
            best = by_class.setdefault((rec.branch, rec.winding), {})
            best[kappa] = min(rec.t_plus, best.get(kappa, math.inf))
    # Larger kappa shrinks the discriminant, so arrival times must not grow.
    # Records of one class at one kappa are not compared with each other.
    for key, best in by_class.items():
        pairs = sorted(best.items())
        for (k0, t0), (k1, t1) in zip(pairs, pairs[1:]):
            if t1 > t0 + 1e-6 * (1.0 + abs(t0)):
                print(
                    f"warning: arrival time not monotone in kappa for {key}: "
                    f"t({k1:g})={t1:.6g} > t({k0:g})={t0:.6g}",
                    file=sys.stderr,
                )
    if not rows:
        print("no seed converged for any kappa", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermatpath",
        description="Fixed-energy connecting trajectories by arrival-time minimization",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("validate", "check model assumptions and kappa admissibility"),
        ("solve", "minimize the arrival time for one kappa"),
        ("sweep", "solve across a kappa list"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("scenario", help="scenario configuration file")
        sp.add_argument("--out", help="output directory (default: [output] dir, "
                        f"else ${OUT_DIR_ENV}, else fermatpath-out)")
        sp.add_argument("--segments", type=int, help="override grid segments")
        sp.add_argument("--seed", type=int, help="override rng seed")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout")
    return ap


_COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep}


# glibc's mallopt parameter numbers.  32 MiB is glibc's
# DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, the ceiling its dynamic mmap
# threshold climbs toward; the trim threshold keeps glibc's own ratio of
# trim = 2 x mmap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _steady_heap() -> None:
    """Let the process keep freed heap blocks instead of returning them to
    the kernel (glibc on Linux; elsewhere nothing).

    Each descent iteration allocates and frees dozens of (N, m)
    temporaries, 0.4-0.8 MB each at N = 5e4.  Under glibc's defaults the
    freed top of the heap is returned to the kernel and faulted back in on
    the next iteration: a fine-grid solve (bench/workloads/fine-grid.ini)
    took 22k-26k minor page faults as a fresh process, and 9k with the
    mmap threshold at 32 MiB and the trim threshold at 64 MiB, which took
    about 5% off its wall time.  The setting is process-wide, so only `run`
    makes it.  A library caller gets the same policy from glibc's
    environment, set before Python starts:

        MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=67108864

    In a loop of in-process fine-grid solves this took the minor faults per
    solve from 5k-15k (the count depends on what the process allocated
    before) to none, and the time per solve from about 0.22 to 0.19 s.

    The mmap threshold is set first, and the trim threshold only if glibc
    took it: setting the trim threshold alone also freezes the mmap
    threshold at its 128 KiB default, so every (N, m) temporary would be
    mapped and unmapped on its own (an in-process fine-grid solve took
    148k minor faults instead of 5k-15k, and nearly twice the time).
    Without mallopt (macOS, Windows) or when the value is refused (32-bit
    glibc; musl, whose mallopt returns 0) the allocator stays as it is.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Process entry point: set the allocator policy (`_steady_heap`), then
    run `main`, which leaves the allocator of its caller alone."""
    _steady_heap()
    return main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # The package's log warnings go to stderr while the command runs.
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("fermatpath").addHandler(warnings)
    try:
        scen = parse_scenario(
            args.scenario,
            out_dir=args.out,
            segments=args.segments,
            rng_seed=args.seed,
        )
        if args.command == "solve" and len(scen.kappas) != 1:
            raise ScenarioError(
                f"{args.scenario}: [problem] kappa: solve takes one kappa, "
                f"not {len(scen.kappas)}; use sweep for lists"
            )
        code = cmd_validate(scen, quiet=args.quiet or args.command != "validate")
        if code != EXIT_OK or args.command == "validate":
            return code
        return _COMMANDS[args.command](scen, quiet=args.quiet)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ModelEvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        logging.getLogger("fermatpath").removeHandler(warnings)


if __name__ == "__main__":
    sys.exit(run())
