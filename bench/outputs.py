"""Output check against committed reference records.

A reference lists, for the default workload seed, every record the CLI
wrote: kappa, branch, winding class and t_plus.  An output passes when

- every reference class (kappa, branch, winding) is present,
- each record of a reference class matches a reference t_plus of that
  class within T_RTOL relative, and
- each record of a class the reference does not know has an
  Euler-Lagrange residual below EL_BOUND (a genuine trajectory that another
  seed happened to find).

Run `python3 bench/outputs.py` from the repository root to rewrite the
references from the current program at the default seed.
"""
from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
DEFAULT_SEED = 0
T_RTOL = 1e-8
EL_BOUND = 1e-4


def rows_from_csv(text: str, kappa: float | None = None) -> list[dict]:
    """Records of a summary.csv (one kappa, given) or sweep.csv (kappa column)."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({
            "kappa": float(row["kappa"]) if "kappa" in row else kappa,
            "branch": row["branch"],
            "winding": row["winding"],
            "t_plus": float(row["t_plus"]),
            "el_residual": float(row["el_residual"]),
        })
    return rows


def rows_from_records(kappa: float, records) -> list[dict]:
    """The rows the CLI would write for one kappa: converged records only."""
    return [
        {
            "kappa": kappa,
            "branch": r.branch,
            "winding": ";".join(str(k) for k in r.winding),
            "t_plus": r.t_plus,
            "el_residual": r.el_residual,
        }
        for r in records if r.converged
    ]


def check(rows: list[dict], reference: list[dict]) -> list[str]:
    """Problems found in `rows` against the reference records; empty if none."""
    def key(r):
        return (r["kappa"], r["branch"], r["winding"])

    expected: dict[tuple, list[float]] = {}
    for r in reference:
        expected.setdefault(key(r), []).append(r["t_plus"])
    problems = []
    seen = set()
    for r in rows:
        k = key(r)
        if k in expected:
            seen.add(k)
            if not any(abs(r["t_plus"] - t) <= T_RTOL * abs(t) for t in expected[k]):
                problems.append(
                    f"{k}: t_plus {r['t_plus']!r} differs from reference {expected[k]}"
                )
        elif not r["el_residual"] < EL_BOUND:
            problems.append(
                f"{k}: class not in reference and el_residual "
                f"{r['el_residual']:.3g} >= {EL_BOUND:g}"
            )
    for k in sorted(set(expected) - seen):
        problems.append(f"{k}: reference class missing from output")
    return problems


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["records"]


def main() -> int:
    from run import CSV_NAME, ROOT, WORKLOADS, cli_argv, child_env, scenario_kappas

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        out = ROOT / ".bench_work" / f"reference-{name}"
        subprocess.run(
            [sys.executable, *cli_argv(name, WORKLOADS[name], str(out), DEFAULT_SEED)],
            check=True, cwd=ROOT, env=child_env(),
        )
        kappas = scenario_kappas(name)
        rows = rows_from_csv((out / CSV_NAME[WORKLOADS[name]]).read_text(),
                             kappas[0] if len(kappas) == 1 else None)
        shutil.rmtree(out)
        records = [{k: r[k] for k in ("kappa", "branch", "winding", "t_plus")}
                   for r in rows]
        lines = ",\n  ".join(json.dumps(r) for r in records)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            fh.write(f'{{"workload": "{name}", "seed": {DEFAULT_SEED}, "records": [\n  {lines}\n]}}\n')
        print(f"{name}: {len(records)} reference records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    os.chdir(BENCH.parent)
    sys.exit(main())
