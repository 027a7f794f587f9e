"""Outside-in layer trace of fermatpath.

The tracer changes no program file.  It rebinds the public functions of
`cli`, `solve`, `arrival`, `paths` and `models` to timing wrappers in
every fermatpath module that holds a reference to them (from-imports make
several bindings per function), and replaces the callable fields of each
model that `get_model` / `load_custom_model` return with counting wrappers
through `dataclasses.replace`.  Spans (name, start, end, parent, repetition)
stay in memory until `write_spans` is called.

Per-layer metrics are self times: a span's duration minus the durations of
the wrapped spans it directly caused.  Work done in unwrapped helpers counts
towards the nearest wrapped caller.
"""
from __future__ import annotations

import dataclasses
import logging
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function): the layer boundaries the trace records.
TARGETS = (
    ("cli", "main"),
    ("cli", "parse_scenario"),
    ("models", "get_model"),
    ("models", "load_custom_model"),
    ("models", "validate_assumptions"),
    ("models", "omega_coeffs"),
    ("models", "chart_partials"),
    ("solve", "multi_start"),
    ("solve", "minimize_arrival"),
    ("solve", "seed_path"),
    ("solve", "el_residual"),
    ("solve", "conservation_check"),
    ("solve", "record_to_json"),
    ("arrival", "arrival_times"),
    ("arrival", "arrival_gradient"),
    ("paths", "segment_geometry"),
    ("paths", "project_to_N"),
    ("paths", "lift_spatial_variation"),
    ("paths", "linearized_charge_coeffs"),
    ("paths", "save_path"),
)

# Callable fields of StationaryModel; every call is one evaluator call.
EVALUATOR_FIELDS = (
    "L0", "dL0_dy", "dL0_dnu", "omega", "domega_dy",
    "d_offset", "dd_dy", "dE0_dy", "dE0_dnu",
)
EVAL_SPAN = "models.eval"
_MODEL_FACTORIES = ("models.get_model", "models.load_custom_model")

# Span names that only run where a command writes path sidecars.
WRITE_SPANS = ("solve.record_to_json", "paths.save_path")

_ROOT = -1


def _program_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "fermatpath" or k.startswith("fermatpath."))]


class _FailureLog(logging.Handler):
    """Counts the `seed ... failed` messages of fermatpath.solve: seeds whose
    descent raised.  (A seed that stalls or stagnates logs too, but returns
    an unconverged record, which the trace counts instead.)"""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("seed ") and " failed" in record.getMessage():
            self.count += 1


class Tracer:
    """Installs the wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, rep, note)
        self._stack = [_ROOT]
        self.rep = 0
        self._restore: list = []
        self._wrapped: dict = {}
        self.failures = _FailureLog()

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            extra = "raised"
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                extra = note(args, result) if note else None
                return result
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.rep, extra)

        traced.__wrapped__ = fn
        traced.__traced__ = name
        return traced

    def _wrap_model(self, model):
        fields = {}
        for field in EVALUATOR_FIELDS:
            fn = getattr(model, field)
            if fn is not None and not hasattr(fn, "__traced__"):
                fields[field] = self._wrap(EVAL_SPAN, fn, _rows)
        return dataclasses.replace(model, **fields) if fields else model

    def _wrap_factory(self, name, fn):
        inner = self._wrap(name, fn)
        wrap_model = self._wrap_model

        def factory(*args, **kwargs):
            return wrap_model(inner(*args, **kwargs))

        factory.__wrapped__ = fn
        factory.__traced__ = name
        return factory

    def install(self):
        """Rebind every target in every loaded fermatpath module."""
        import fermatpath  # noqa: F401  (loads the package modules)
        import fermatpath.cli  # noqa: F401

        modules = _program_modules()
        for mod_name, fn_name in TARGETS:
            fn = getattr(sys.modules[f"fermatpath.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            if name in _MODEL_FACTORIES:
                wrapper = self._wrap_factory(name, fn)
            elif name == "solve.minimize_arrival":
                wrapper = self._wrap(name, fn, _outcome)
            else:
                wrapper = self._wrap(name, fn)
            self._wrapped[name] = fn
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))
        logging.getLogger("fermatpath.solve").addHandler(self.failures)

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()
        logging.getLogger("fermatpath.solve").removeHandler(self.failures)

    def unbound_originals(self) -> list[str]:
        """Bindings that still point at an unwrapped target (should be none)."""
        missed = []
        for mod in _program_modules():
            for attr, value in vars(mod).items():
                for name, fn in self._wrapped.items():
                    if value is fn:
                        missed.append(f"{mod.__name__}.{attr} ({name})")
        return missed

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def calls(self) -> Counter:
        """Calls per span name over all repetitions."""
        return Counter(s[0] for s in self.spans if s is not None)

    def per_rep(self) -> list[dict]:
        """Exact counts and self times for each repetition."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for idx, (name, t0, t1, parent, rep, extra) in enumerate(spans):
            if parent != _ROOT:
                child_time[parent] += t1 - t0
                children[parent].append(name)
        reps: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        for idx, (name, t0, t1, parent, rep, extra) in enumerate(spans):
            r = reps[rep]
            r["calls:" + name] += 1
            r["self:" + name] += (t1 - t0) - child_time[idx]
            r["incl:" + name] += t1 - t0
            if name == EVAL_SPAN and extra != "raised":
                r["rows"] += extra
            elif name == "solve.minimize_arrival":
                trials = children[idx].count("arrival.arrival_times")
                r["ls_trials"] += max(trials - 1, 0)
                if extra != "raised":
                    r["iters"] += extra[0]
                    r["not_converged"] += 0 if extra[1] else 1
            if parent != _ROOT and name in WRITE_SPANS and spans[parent][0] == "cli.main":
                r["cli_write"] += t1 - t0
        return [dict(reps[k]) for k in sorted(reps)]

    def write_spans(self, filename: str, rep: int = 0):
        """Write the spans of one repetition as CSV, times from its first span."""
        with open(filename, "w") as fh:
            fh.write("id,parent,rep,name,start_s,end_s\n")
            base = None
            for idx, (name, t0, t1, parent, r, _) in enumerate(self.spans):
                if r != rep:
                    continue
                base = t0 if base is None else base
                fh.write(f"{idx},{parent},{r},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


def _rows(args, result):
    return len(args[0])


def _outcome(args, record):
    return (record.iters, record.converged)


def layer_metrics(reps: list[dict], raised: int, solve_raw_s: float,
                  n_segments: int) -> dict:
    """Per-layer metrics of one traced command: counts from the first
    repetition (they repeat exactly), times as medians over repetitions."""

    def med(key_fn):
        return statistics.median(key_fn(r) for r in reps)

    first = reps[0]

    def count(key):
        return first.get(key, 0)

    seeds = count("calls:solve.minimize_arrival")
    iters = count("iters")
    trials = count("ls_trials")
    # Failed seeds: those the solver logged as raising, plus records that
    # came back unconverged.  The log covers every repetition.
    failed = raised / len(reps) + count("not_converged")
    eval_calls = count("calls:" + EVAL_SPAN)

    def self_s(*names):
        return med(lambda r: sum(r.get("self:" + n, 0.0) for n in names))

    return {
        "cli.parse_scenario_s": (med(lambda r: r.get("incl:cli.parse_scenario", 0.0)), "s"),
        "cli.validate_s": (self_s("models.validate_assumptions"), "s"),
        "cli.write_s": (med(lambda r: r.get("cli_write", 0.0)), "s"),
        "solve.seeds": (seeds, "count"),
        "solve.seeds_failed": (failed, "count"),
        "solve.iters": (iters, "count"),
        "solve.ls_trials": (trials, "count"),
        "solve.ls_accept_ratio": (iters / trials if trials else 0.0, "ratio"),
        "solve.minimize_s": (self_s("solve.minimize_arrival"), "s"),
        "solve.certify_s": (self_s("solve.el_residual", "solve.conservation_check"), "s"),
        "solve.seed_path_s": (self_s("solve.seed_path"), "s"),
        "solve.us_per_iter_node": (
            1e6 * solve_raw_s / (max(iters, 1) * n_segments), "us"),
        "arrival.gradient_calls": (count("calls:arrival.arrival_gradient"), "count"),
        "arrival.gradient_s": (self_s("arrival.arrival_gradient"), "s"),
        "arrival.times_calls": (count("calls:arrival.arrival_times"), "count"),
        "arrival.times_s": (self_s("arrival.arrival_times"), "s"),
        "paths.segment_geometry_calls": (count("calls:paths.segment_geometry"), "count"),
        "paths.segment_geometry_s": (self_s("paths.segment_geometry"), "s"),
        "paths.project_to_N_s": (self_s("paths.project_to_N"), "s"),
        "paths.lift_s": (self_s("paths.lift_spatial_variation"), "s"),
        "paths.charge_coeffs_calls": (count("calls:paths.linearized_charge_coeffs"), "count"),
        "paths.save_path_s": (self_s("paths.save_path"), "s"),
        "models.eval_calls": (eval_calls, "count"),
        "models.eval_rows": (count("rows"), "count"),
        "models.eval_s": (self_s(EVAL_SPAN), "s"),
        "models.eval_calls_per_iter": (eval_calls / max(iters, 1), "ratio"),
        "models.omega_coeffs_calls": (count("calls:models.omega_coeffs"), "count"),
        "models.chart_partials_s": (self_s("models.chart_partials"), "s"),
    }


def parse_importtime(stderr_text: str) -> tuple[float, float]:
    """(program import seconds, scipy.linalg cumulative seconds) from the
    output of `python -X importtime`.

    The program's import time is the sum of the cumulative times of the
    top-level imports from the first `fermatpath` import on; interpreter
    start-up imports before it are excluded.
    """
    total_us = 0
    scipy_us = 0
    started = False
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, package = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name = package[1:]
        us = int(cumulative)
        if name.strip() == "scipy.linalg":
            scipy_us = max(scipy_us, us)
        if name.startswith(" "):
            continue
        if name == "fermatpath":
            started = True
        if started:
            total_us += us
    if not started:
        raise ValueError("no fermatpath import in -X importtime output")
    return total_us / 1e6, scipy_us / 1e6


def out_bytes(directory: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())
