"""Output check for one benchmark experiment, and the goldens it compares with.

At a workload's own graph seed, every CSV column except ``gap`` must match
the digests in ``goldens.json``. ``gap`` is checked as ``objective - f_star``
against the f_star the run's own oracle returned (``nan`` in every row when
the oracle failed), so a corrected oracle still passes. At every seed the
invariants hold: the header, one row per round numbered 1..T (T = t_max
unless the run converged), finite columns, the ergodic average inside each
agent's box, and a summary, when written, that agrees with the CSV.

    python3 perfbench/check.py [WORKLOAD ...]

rewrites ``goldens.json`` from the current tree by running ``drdga run`` on
each workload at its own seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HEADER = "t,objective,gap,violation,violation_inst,disagreement,max_lambda,beta"
GOLDENS = Path(__file__).with_name("goldens.json")

# Relative slack for gap = objective - f_star: both CSV numbers carry 12
# significant digits, so the difference can be off by about 1e-12 of the
# larger operand.
_GAP_RTOL = 1e-10
# Slack for the ergodic average leaving its box through rounding.
_BOX_TOL = 1e-12


def column_digests(lines: list[str]) -> dict[str, str]:
    """sha256 prefix of each column's text, gap excluded."""
    names = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return {
        name: hashlib.sha256("\n".join(row[k] for row in cells).encode()).hexdigest()[:16]
        for k, name in enumerate(names)
        if name != "gap"
    }


def _golden_for(workload, seed):
    if not workload:
        return None
    entry = json.loads(GOLDENS.read_text()).get(workload)
    if entry is None or (seed is not None and seed != entry["seed"]):
        return None
    return entry


def check_output(csv_path, summary_path, *, workload, seed, exp, state, rows, reason,
                 f_star) -> list[str]:
    """Every way the run's outputs are wrong, as one message each; empty if correct."""
    csv_path, summary_path = Path(csv_path), Path(summary_path)
    if exp is None or not csv_path.exists():
        return ["no CSV was written"]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != HEADER:
        return [f"header is {lines[0] if lines else ''!r}"]
    problems = []

    n = len(lines) - 1
    t_max = exp.run.t_max
    if n != len(rows) or n < 1 or n > t_max or (reason != "converged" and n != t_max):
        problems.append(f"{n} rows for {len(rows)} rounds, t_max {t_max}, stop {reason}")
    table = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if [int(r[0]) for r in table] != list(range(1, n + 1)):
        problems.append("t column is not 1..T")
    names = HEADER.split(",")
    for k, name in enumerate(names):
        if name != "gap" and not all(math.isfinite(r[k]) for r in table):
            problems.append(f"non-finite {name}")

    obj_k, gap_k = names.index("objective"), names.index("gap")
    for r in table:
        objective, gap = r[obj_k], r[gap_k]
        if f_star is None:
            ok = math.isnan(gap)
        else:
            ok = abs(gap - (objective - f_star)) <= _GAP_RTOL * max(1.0, abs(objective), abs(f_star))
        if not ok:
            problems.append(f"gap {gap!r} at t={int(r[0])} is not objective - f_star ({f_star!r})")
            break

    if state is not None and state.t >= 2:
        from drdga.engine import ergodic_average

        for i, (agent, avg) in enumerate(zip(exp.problem.agents, ergodic_average(state)), 1):
            slack = _BOX_TOL * (1.0 + abs(agent.lower).max() + abs(agent.upper).max())
            if (avg < agent.lower - slack).any() or (avg > agent.upper + slack).any():
                problems.append(f"agent {i}: ergodic average leaves its box")
                break

    if summary_path.exists():
        summary = dict(
            line.split(" = ", 1) for line in summary_path.read_text().splitlines() if " = " in line
        )
        expected = {"algorithm": exp.algorithm, "stop_reason": reason, "terminal_round": str(n)}
        for key, value in expected.items():
            if summary.get(key) != value:
                problems.append(f"summary {key} = {summary.get(key)!r}, expected {value!r}")
        if (summary.get("f_star") == "unavailable") != (f_star is None):
            problems.append(f"summary f_star = {summary.get('f_star')!r} for oracle {f_star!r}")

    golden = _golden_for(workload, seed)
    if golden is not None:
        digests = column_digests(lines)
        for name, digest in golden["columns"].items():
            if digests.get(name) != digest:
                problems.append(f"column {name} differs from the golden")
    return problems


def main(argv=None) -> int:
    import os
    import subprocess
    import sys
    import tempfile

    from run import ROOT, WORKLOADS, child_env

    chosen = argv if argv else sys.argv[1:] or list(WORKLOADS)
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        for name in chosen:
            workload = WORKLOADS[name]
            out = os.path.join(tmp, name + ".csv")
            cmd = [sys.executable, "-m", "drdga.cli", "run", "--config", workload["config"],
                   "--out", out]
            if workload["algorithm"]:
                cmd += ["--algorithm", workload["algorithm"]]
            # num_s20 and quad_m100 exit 2 after the CSV, when the summary fails.
            subprocess.run(cmd, cwd=ROOT, env=child_env(), check=False)
            lines = Path(out).read_text(encoding="utf-8").splitlines()
            raw = Path(out).read_bytes()
            goldens[name] = {
                "seed": workload["seed"],
                "rows": len(lines) - 1,
                "csv_sha256": hashlib.sha256(raw).hexdigest()[:16],
                "columns": column_digests(lines),
            }
            print(name, goldens[name]["csv_sha256"], flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
