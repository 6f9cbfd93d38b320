"""Smoke check of the benchmark itself, on three tiny maps.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that both modes emit exactly the metrics that BENCHMARK.json
declares, with their units; that a deliberately wrong expected answer is
counted as a failure; and that a map interrupted by its deadline counts as
failed, enters the timings at the deadline value, and leaves a complete
trace.  Exits non-zero on the first violated check.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def declared(section: str) -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    setup_s, cli = run.measure_setup()
    import workloads

    rng = random.Random(0)
    dense = {c.label: c for c in workloads.dense_trivial_pass(rng)}
    rotation = {c.label: c for c in workloads.rotation_family_pass(rng)}
    tiny = [dense["silverman(3)"], dense["dense(4)"], rotation["sample_degree3_order4"]]

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, report = run.benchmark([tiny], 0, trace, setup_s, cli)
        check(result["correct"] and result["failed"] == 0,
              f"tiny maps must all pass (trace={trace}): {report['failures']}")
        check(emitted(result) == declared(section),
              f"trace={trace} metrics differ from BENCHMARK.json {section}")
        check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
              f"trace={trace} metric values must be numbers")
        baseline_failed_rate = report["failed_rate"]

    wrong = dataclasses.replace(tiny[0], verdict="real")
    result, report = run.benchmark([[wrong] + tiny[1:]], 0, False, setup_s, cli)
    check(report["failed_rate"] > baseline_failed_rate and not result["correct"],
          "a wrong expected answer must raise failed_rate")
    check(report["failures"] == {"wrong": 1}, f"expected one wrong answer: {report['failures']}")

    run.DEADLINE_S = 1e-3
    for trace in (False, True):
        result, report = run.benchmark([tiny[2:]], 0, trace, setup_s, cli)
        check(report["failures"] == {"deadline": 1},
              f"trace={trace}: the deadline must interrupt the map: {report['failures']}")
        if not trace:
            check(report["verdict_s.p50"] == run.DEADLINE_S,
                  "a deadline hit must enter the timings at the deadline value")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
