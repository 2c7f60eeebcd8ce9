"""Self-test of the benchmark at tiny sizes (about two minutes).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload runs, traced and untraced, and emits every metric that
  ``BENCHMARK.json`` names, with the unit named there, and no failures;
* a planted wrong answer -- a corrupted row fed to the oracle -- shows up as
  a failed, mismatched operation;
* counts that do not depend on timing repeat exactly across two same-seed
  runs of closure-batch and view-churn driven for a fixed number of turns.

Exits non-zero and names the first broken check otherwise.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import data  # noqa: E402
import report  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "reach-prepared": {"graph": {"n": 16, "m": 24, "tc_target": 60, "tc_band": 1.0}},
    "adhoc-auto": {"graph": {"n": 16, "m": 24, "tc_target": 60, "tc_band": 1.0},
                   "bits": 16},
    "view-churn": {"graph": {"n": 16, "m": 20, "tc_target": 40, "tc_band": 1.0},
                   "churn": 0.1, "batches": 4, "check_every": 2},
    "closure-batch": {"graph": {"n": 16, "m": 24, "tc_target": 60, "tc_band": 1.0},
                      "graphs": 2, "bits": 32, "chunk": 16},
}

#: Counters that a fixed number of turns must reproduce exactly.
DETERMINISTIC = {
    "closure-batch": (
        "repro_plan_cache_hits_total", "repro_plan_cache_misses_total",
        "repro_service_queries_total", "repro_service_rows_streamed_total",
        "repro_service_busy_rejections_total", "repro_vec_flat_fixpoints_total",
        "repro_vec_dcr_trees_total", "session.executes", "session.vec_compiles",
    ),
    "view-churn": (
        "repro_plan_cache_misses_total", "repro_service_busy_rejections_total",
        "repro_service_notifications_total", "session.executes",
        "session.vec_compiles", "session.delta_applies",
        "session.fallback_recomputes", "session.view_rows_touched",
        "session.dred_overdeletes", "session.dred_rederives",
    ),
}


def tiny_design() -> dict:
    design = json.loads((HERE / "design.json").read_text())
    for name, sizes in TINY.items():
        design["workloads"][name].update(sizes)
    return design


def one_run(name: str, trace: bool) -> tuple[dict, dict]:
    """A run in a fresh process: traced runs install process-wide shims."""
    return bench.run(name, 7, 1.0, trace, tiny_design(), SRC)


def check_metrics(benchmark: dict) -> None:
    ctx = multiprocessing.get_context("spawn")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in benchmark[section]}
        for name in TINY:
            with ctx.Pool(1) as pool:
                _, result = pool.apply(one_run, (name, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise SystemExit(f"{name} trace={trace}: metrics differ from "
                                 f"BENCHMARK.json {section}: "
                                 f"{sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{name} trace={trace}: {result['failed']} of "
                                 f"{result['attempted']} operations failed")
            print(f"ok  {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")


def drive(name: str, turns: int, corrupt=None) -> tuple[workloads.Tally, dict]:
    """Start, run ``turns`` turns per connection, check, stop."""
    cfg = tiny_design()["workloads"][name]
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[name](cfg, 7, tally)
    server, _ = bench.start(wl, SRC, False)
    bench.warm(wl, server, 0)
    if corrupt is not None:
        corrupt(wl)
    try:
        before = report.scrape(wl.conns[0])
        wl.run_loops(float("inf"), measured=True, limit=turns)
        after = report.scrape(wl.conns[0])
        wl.finish()
    finally:
        wl.close()
        server.close()
    return tally, report.delta(before, after)


def check_planted() -> None:
    def corrupt(wl):
        # After the server has its data: one edge the server never saw goes
        # into the oracle's input, adding a closure row the server cannot return.
        n = wl.cfg["graph"]["n"]
        tc = wl.want[("tc_dcr", 0)]
        extra = next((a, b) for a in range(n) for b in range(n)
                     if a != b and (a, b) not in tc)
        tc = data.closure(wl.graphs[0] + [extra])
        wl.want.update({(s, 0): tc for s in ("tc_dcr", "tc_logloop", "tc_sri")})

    tally, _ = drive("closure-batch", 10, corrupt)
    if tally.mismatches == 0 or tally.failed == 0:
        raise SystemExit("a corrupted oracle row went unnoticed")
    print(f"ok  planted wrong answer: {tally.failed} of {tally.attempted} "
          "operations failed")


def check_deterministic() -> None:
    for name, keys in DETERMINISTIC.items():
        runs = [drive(name, 12)[1] for _ in range(2)]
        diff = {k: (runs[0].get(k), runs[1].get(k)) for k in keys
                if runs[0].get(k) != runs[1].get(k)}
        if diff:
            raise SystemExit(f"{name}: counts differ across same-seed runs: {diff}")
        print(f"ok  {name}: {len(keys)} counts repeat exactly "
              f"({', '.join(f'{k}={runs[0].get(k)}' for k in keys[:4])}, ...)")


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check_planted()
    check_deterministic()
    check_metrics(benchmark)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
