#!/usr/bin/env python3
"""Benchmark of the fermatpath command line, end to end and layer by layer.

    python3 bench/run.py --workload fine-grid --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is driven from outside only: it
runs as `python -m fermatpath.cli` in fresh interpreters, and in-process
through its public functions.  No file under src/ is changed.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, solve_s,
peak_rss_mb); --trace 1 prints the per-layer metrics of a traced run (see
layers.py) together with the unscaled timings.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Steadiness.  Each run interleaves short repetitions of every measurement
until --seconds have passed.  Each repetition's time is divided by the time
of a fixed reference kernel (HostRef) run right before and after it, and
multiplied by REF_NOMINAL_S, so a timing reads as seconds on a host whose
reference kernel takes REF_NOMINAL_S.  The median over repetitions is
reported.  This removes the slow stretches of a shared host, which move the
program and the reference together.

Each repetition runs the program on its own CLI seed, drawn from the
workload seed, so the median also averages over inputs: the iteration count
of a descent from a random start varies by about 10% between seeds (20 to
24 on fine-grid), which would otherwise show as run-to-run spread.  The
traced in-process commands all use the workload seed itself, so their
counts repeat exactly.
"""
from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import layers
from outputs import check, load_reference, rows_from_csv, rows_from_records

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH / "workloads"
WORK_ROOT = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"

# Workload name -> CLI command.  The scenario is workloads/<name>.ini.
WORKLOADS = {
    "fine-grid": "solve",
    "many-seeds": "sweep",
    "polynomial": "sweep",
}
CSV_NAME = {"solve": "summary.csv", "sweep": "sweep.csv"}

# Reference-kernel time of the host the baseline was recorded on.
REF_NOMINAL_S = 0.020
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def scenario_path(workload: str) -> str:
    return str((WORKLOAD_DIR / f"{workload}.ini").relative_to(ROOT))


def scenario_kappas(workload: str) -> list[float]:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(ROOT / scenario_path(workload))
    return [float(x) for x in cp.get("problem", "kappa").split()]


def cli_argv(workload: str, command: str, out_dir: str, seed: int) -> list[str]:
    """Interpreter arguments of one CLI call; the seed goes in only as --seed."""
    return ["-m", "fermatpath.cli", command, scenario_path(workload),
            "--out", out_dir, "--seed", str(seed), "--quiet"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ---------------------------------------------------------------------------
# host-speed reference
# ---------------------------------------------------------------------------

class HostRef:
    """A fixed numpy kernel shaped like the solver's per-iteration work on a
    grid of n segments: differences, midpoints, quadratic forms, a cumulative
    sum and a row-norm maximum over (n+1, 2) arrays, repeated to take about
    20 ms.

    It is the benchmark's own code and never changes with the program.  A
    tight interpreter loop or large passes alone tracked the program's speed
    worse: the host's slow stretches slow small-array work and 5e4-row work
    by different amounts, so the kernel runs on arrays of the workload's
    own grid size."""

    def __init__(self, n_segments: int):
        import numpy as np

        rng = np.random.default_rng(0)
        self.n = n_segments
        self.y = rng.standard_normal((n_segments + 1, 2))
        self.t = rng.standard_normal(n_segments + 1)
        self.reps = max(4, round(20_000 / (48 + 0.069 * n_segments)))

    def __call__(self) -> float:
        import numpy as np

        y, t, n = self.y, self.t, self.n
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(self.reps):
            dy = np.diff(y, axis=0)
            mid = y[:-1] + 0.5 * dy
            v = dy * n
            vt = np.diff(t) * n
            l0 = 0.5 * np.einsum("ij,ij->i", v, v)
            om = 0.3 * (mid[:, 0] * v[:, 1] - mid[:, 1] * v[:, 0])
            g = np.concatenate([v, vt[:, None]], axis=1)
            acc += float(np.max(np.linalg.norm(g, axis=1)))
            acc += float(np.cumsum(l0 + om * vt)[-1]) / n
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# fresh-interpreter children
# ---------------------------------------------------------------------------

def _kill(pid: int):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], stderr_file: str, extra=()) -> tuple[float, float, int]:
    """Run `python <extra> <args>` to completion: (seconds, peak RSS in MB, exit code).

    The peak RSS is this child's own, from os.wait4."""
    argv = [sys.executable, *extra, *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_file, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    return elapsed, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, work: Path):
        from fermatpath import cli

        self.workload = workload
        self.command = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.kappas = scenario_kappas(workload)
        self.reference = load_reference(workload)
        self.scen = cli.parse_scenario(scenario_path(workload), rng_seed=seed)
        # Each repetition gets its own CLI seed, drawn from the workload seed.
        self.rep_seeds = random.Random(seed)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.host_ref = HostRef(self.scen.opts.N)
        self.refs: list[float] = []
        self.last_ref = math.nan

    # -- bookkeeping -------------------------------------------------------

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def ref(self) -> float:
        r = self.host_ref()
        self.refs.append(r)
        return r

    def median(self, name: str) -> float:
        """Median of a metric's samples; NaN if a failure left it unsampled."""
        values = self.samples.get(name)
        return statistics.median(values) if values else math.nan

    # -- the measured pieces ------------------------------------------------

    def cli_child(self, command: str, tag: str, seed: int) -> float:
        """Seconds of one fresh-interpreter CLI call; records the peak RSS of
        solve and sweep calls and checks their CSV."""
        out = self.work / tag
        err = str(self.work / f"{tag}.stderr")
        secs, rss, code = run_child(cli_argv(self.workload, command, str(out), seed), err)
        if code != 0:
            with open(err) as fh:
                detail = fh.read().strip().splitlines()[-1:] or [""]
            self.problems.append(f"{command} exited {code}: {detail[0]}")
        elif command != "validate":
            self.add("peak_rss_mb", rss)
            self.check_csv(out, f"fresh {command}")
        return secs

    def check_csv(self, out: Path, what: str) -> bytes:
        try:
            data = (out / CSV_NAME[self.command]).read_bytes()
        except OSError as exc:
            self.problems.append(f"{what}: no CSV: {exc}")
            return b""
        single = self.kappas[0] if self.command == "solve" else None
        for p in check(rows_from_csv(data.decode(), single), self.reference):
            self.problems.append(f"{what}: {p}")
        return data

    def between_refs(self, fn) -> tuple[float, float]:
        """Time fn() between the previous reference timing and a new one:
        (raw seconds, scaled seconds)."""
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        after = self.ref()
        scaled = raw * REF_NOMINAL_S / math.sqrt(self.last_ref * after)
        self.last_ref = after
        return raw, scaled

    def solve_inproc(self, seed: int) -> tuple[float, float]:
        """Seconds inside multi_start, summed over kappa, raw and scaled.

        Each kappa's call is scaled by its own adjacent reference timings:
        host speed changes within the second a many-kappa solve takes.
        Checks the records and counts each seed x kappa as one operation."""
        from fermatpath import cli, solve

        scen = cli.parse_scenario(scenario_path(self.workload), rng_seed=seed)
        original = solve.minimize_arrival
        outcome = {"attempted": 0, "failed": 0}

        def counted(*args, **kwargs):
            outcome["attempted"] += 1
            try:
                rec = original(*args, **kwargs)
            except Exception:
                outcome["failed"] += 1
                raise
            outcome["failed"] += 0 if rec.converged else 1
            return rec

        raw = scaled = 0.0
        rows = []
        solve.minimize_arrival = counted
        try:
            for kappa in sorted(scen.kappas):
                records = []
                r, s = self.between_refs(lambda: records.extend(solve.multi_start(
                    scen.model, scen.p, scen.q, kappa, scen.seeds, scen.opts)))
                raw += r
                scaled += s
                rows += rows_from_records(kappa, records)
        finally:
            solve.minimize_arrival = original
        for p in check(rows, self.reference):
            self.problems.append(f"in-process solve: {p}")
        self.attempted += outcome["attempted"]
        self.failed += outcome["failed"]
        return raw, scaled

    def cycle(self):
        """One repetition of every end-to-end measurement, each between two
        reference-kernel timings.  The full command and the in-process solve
        spread most from run to run, so each is sampled twice, on two seeds;
        set-up is sampled once."""
        seed, other = (self.rep_seeds.randrange(1, 2**31) for _ in range(2))
        self.last_ref = self.ref()
        for name, (raw, scaled) in (
            ("setup_s", self.between_refs(
                lambda: self.cli_child("validate", "validate", seed))),
            ("wall_s", self.between_refs(
                lambda: self.cli_child(self.command, "fresh", seed))),
            ("solve_s", self.solve_inproc(seed)),
            ("wall_s", self.between_refs(
                lambda: self.cli_child(self.command, "fresh", other))),
            ("solve_s", self.solve_inproc(other)),
        ):
            self.add(name, scaled)
            self.add("raw." + name, raw)

    def warm_up(self):
        """Untimed: compiles bytecode for the children and warms the
        in-process solver."""
        self.last_ref = self.ref()
        self.cli_child("validate", "validate", self.seed)
        self.solve_inproc(self.seed)
        self.attempted = self.failed = 0

    def end_to_end(self) -> dict:
        return {
            "wall_s": (self.median("wall_s"), "s"),
            "setup_s": (self.median("setup_s"), "s"),
            "solve_s": (self.median("solve_s"), "s"),
            "peak_rss_mb": (self.median("peak_rss_mb"), "MB"),
        }

    # -- traced run ------------------------------------------------------------

    def main_inproc(self, tag: str) -> tuple[float, Path]:
        from fermatpath import cli

        out = self.work / tag
        argv = [self.command, scenario_path(self.workload), "--out", str(out),
                "--seed", str(self.seed), "--quiet"]
        t0 = time.perf_counter()
        code = cli.main(argv)
        secs = time.perf_counter() - t0
        if code != 0:
            self.problems.append(f"in-process {tag} {self.command} exited {code}")
        return secs, out

    def trace_cycle(self, tracer, rep: int):
        self.cycle()
        import_s, scipy_s = self.importtime_child()
        self.add("setup.import_s", import_s)
        self.add("setup.import_scipy_s", scipy_s)
        # Alternate which of the two in-process runs goes first.
        if rep % 2:
            plain_s, plain_out = self.main_inproc("plain")
        tracer.rep = rep
        with tracer:
            if rep == 0:
                missed = tracer.unbound_originals()
                if missed:
                    self.problems.append("trace missed bindings: " + ", ".join(missed))
            traced_s, traced_out = self.main_inproc("traced")
        if not rep % 2:
            plain_s, plain_out = self.main_inproc("plain")
        self.add("trace.overhead_s", traced_s - plain_s)
        plain = self.check_csv(plain_out, "untraced in-process")
        traced = self.check_csv(traced_out, "traced in-process")
        if plain != traced:
            self.problems.append("traced CSV differs from untraced CSV")
        self.add("cli.out_bytes", layers.out_bytes(str(traced_out)))

    def importtime_child(self) -> tuple[float, float]:
        err = str(self.work / "importtime.stderr")
        _, _, code = run_child(
            cli_argv(self.workload, "validate", str(self.work / "importtime"), self.seed),
            err, extra=("-X", "importtime"))
        if code != 0:
            self.problems.append(f"importtime validate exited {code}")
            return math.nan, math.nan
        with open(err) as fh:
            return layers.parse_importtime(fh.read())

    def per_layer(self, tracer) -> dict:
        metrics = layers.layer_metrics(tracer.per_rep(), tracer.failures.count,
                                       self.median("raw.solve_s"), self.scen.opts.N)
        metrics.update({
            "setup.import_s": (self.median("setup.import_s"), "s"),
            "setup.import_scipy_s": (self.median("setup.import_scipy_s"), "s"),
            "cli.out_bytes": (self.median("cli.out_bytes"), "bytes"),
            "host.ref_s": (statistics.median(self.refs), "s"),
            "raw.wall_s": (self.median("raw.wall_s"), "s"),
            "raw.setup_s": (self.median("raw.setup_s"), "s"),
            "raw.solve_s": (self.median("raw.solve_s"), "s"),
            "trace.overhead_s": (self.median("trace.overhead_s"), "s"),
        })
        return metrics


def measure(run: Run, seconds: float, trace: bool) -> dict:
    run.warm_up()
    tracer = None
    if trace:
        tracer = layers.Tracer()
        run.main_inproc("plain")
    deadline = time.perf_counter() + seconds
    reps = 0
    while True:
        t0 = time.perf_counter()
        if trace:
            run.trace_cycle(tracer, reps)
        else:
            run.cycle()
        reps += 1
        now = time.perf_counter()
        if run.problems or (reps >= MIN_REPS and now + (now - t0) > deadline):
            break
    if not trace:
        return run.end_to_end()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(str(SPAN_DIR / f"spans-{run.workload}-seed{run.seed}.csv"))
    return run.per_layer(tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fermatpath" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the children it starts, so that the
    # reference kernel always runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Failed seeds are counted, not printed.
    logging.getLogger("fermatpath.solve").addHandler(logging.NullHandler())

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, work)
        metrics = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result(run, metrics)))
    return 0


def result(run: Run, metrics: dict) -> dict:
    """The result line.  A metric that a failure left unmeasured reads null."""
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
