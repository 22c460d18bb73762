#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``run.py`` writes (one per
workload, seed and trace setting).  For every workload and end-to-end
metric the tool prints the median and quartiles over the seeds of each
set and the change of the median, marked ``WORSE`` when it exceeds the
metric's bound in ``BENCHMARK.json``.  It then flags, for every
(workload, seed) both sets ran, any energy that moved and any move of
``embedding.iterations``, ``vqe.evaluations`` or
``sim.pauli_applications`` in the traced runs.  Exit code 1 when
something is flagged or worse, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WATCHED_COUNTS = ("embedding.iterations", "vqe.evaluations", "sim.pauli_applications")


def load(directory: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results: list[dict]) -> dict[tuple[str, str], tuple[float, float, float]]:
    """(workload, metric) -> quartiles over the untraced runs' values."""
    values: dict[tuple[str, str], list[float]] = {}
    for result in results:
        if result["trace"]:
            continue
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(metric["value"])
    return {key: quartiles(vals) for key, vals in values.items()}


def flags(base: list[dict], new: list[dict]) -> list[str]:
    """Physics and work counts that moved between runs of the same inputs."""
    index = {(r["workload"], r["seed"], r["trace"]): r for r in base}
    found = []
    for result in new:
        key = (result["workload"], result["seed"], result["trace"])
        old = index.get(key)
        if old is None:
            continue
        label = f"{key[0]} seed={key[1]} trace={key[2]}"
        if old["energies"] != result["energies"]:
            moved = max(
                (abs(a - b) for a, b in zip(old["energies"], result["energies"])),
                default=float("inf"),
            )
            if len(old["energies"]) != len(result["energies"]):
                moved = float("inf")
            found.append(f"{label}: energies moved (max |dE| = {moved:.3e} Ha)")
        for name in WATCHED_COUNTS:
            if name in old["metrics"] and name in result["metrics"]:
                a, b = old["metrics"][name]["value"], result["metrics"][name]["value"]
                if a != b:
                    found.append(f"{label}: {name} moved {a:g} -> {b:g}")
    return found


def _bounds() -> dict[str, dict]:
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if not base or not new:
        print("error: a result directory holds no result files", file=sys.stderr)
        return 2
    bounds = _bounds()
    base_summary, new_summary = summarize(base), summarize(new)
    worse = 0
    print(f"{'workload':<15} {'metric':<12} {'base q1/median/q3':>30} {'new q1/median/q3':>30} {'change':>8}")
    for key in sorted(base_summary.keys() & new_summary.keys()):
        (b1, b2, b3), (n1, n2, n3) = base_summary[key], new_summary[key]
        change = (n2 - b2) / b2 if b2 else float("nan")
        spec = bounds.get(key[1], {})
        sign = -1.0 if spec.get("better") == "higher" else 1.0
        mark = ""
        if "bound" in spec and sign * change > spec["bound"]:
            mark, worse = "  WORSE", worse + 1
        print(
            f"{key[0]:<15} {key[1]:<12} {b1:>9.4g} {b2:>9.4g} {b3:>9.4g}   "
            f"{n1:>9.4g} {n2:>9.4g} {n3:>9.4g}   {change:>+7.1%}{mark}"
        )
    found = flags(base, new)
    for line in found:
        print("FLAG", line)
    if not found:
        print("no energy, iteration, evaluation or Pauli-application count moved")
    return 1 if found or worse else 0


if __name__ == "__main__":
    sys.exit(main())
