"""Wire-level benchmark of the query service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reach-prepared --seed 1 --seconds 10 --trace 0

One run starts a ``QueryServer`` in its own process (``serve.py``) over a
database generated from ``--seed``, drives it over TCP from this process as a
closed loop on each of the workload's connections, checks every answer
against the benchmark's own oracle, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).

``--trace 0`` reports the end-to-end metrics.  Set-up (server process start,
seeded load, connections, views and prepare) is repeated ``setups_per_run``
times, a fresh server process each time, and its median reported; the last
set-up is then warmed up, untimed, and measured for ``--seconds``.

``--trace 1`` reports the per-layer metrics: the first half of ``--seconds``
runs untraced (the write, freshness and failure metrics and the untraced read
median come from it), the second half against a server started through the
launcher with the benchmark's shims installed, and with the client shimmed
the same way.  The spans of both processes are joined by wire correlation id
into one tree per operation; see ``report.py``.

Workload sizes, connection counts and the predictions of which layer moves
which metric are recorded in ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s", "read_p50_ms": "ms", "read_tail_ms": "ms", "read_qps": "1/s",
    "rows_per_s": "rows/s", "server_rss_mb": "MB",
}


def per_layer_units() -> dict:
    import report

    units = {f"{layer}.self_ms": "ms" for layer in report.LAYERS
             if layer != "engine.lock_wait"}
    units.update({f"{layer}.share": "1" for layer in report.LAYERS})
    units["other.share"] = "1"
    units.update({
        "engine.lock_wait_ms": "ms", "engine.lock_hold_ms": "ms",
        "vectorized.execute_ms": "ms", "vectorized.flat_fixpoints": "count/op",
        "parser.parse_ms": "ms", "rewrite.ms": "ms", "router.route_ms": "ms",
        "vectorized.compile_ms": "ms", "vectorized.compiles": "count/op",
        "client.ship_ms": "ms", "api.plan_hit_ratio": "1",
        "router.reroutes": "count", "memo.execute_ms": "ms",
        "incremental.apply_ms": "ms", "incremental.rows_touched": "count/op",
        "incremental.rederive_ratio": "1", "incremental.fallback_recomputes": "count/op",
        "catalog.commit_ms": "ms",
        "encoding.encode_ms": "ms", "client.decode_ms": "ms",
        "protocol.frame_bytes": "B", "protocol.codec_ms": "ms",
        "cursor.fetch_frames": "count/op",
        "server.queue_wait_ms": "ms", "server.busy_rejections": "count",
        "client.roundtrip_ms": "ms", "other_ms": "ms",
        "trace.overlap_ms": "ms", "trace.overhead_ratio": "1",
        "write_p50_ms": "ms", "write_tail_ms": "ms", "fresh_p50_ms": "ms",
        "failed_ratio": "1",
    })
    units.update({f"router.backend_share.{b}": "1" for b in report.BACKENDS})
    return units


class Server:
    """The server process: started by the launcher, stopped and waited for."""

    def __init__(self, src: Path, doc: dict, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--trace", str(int(trace)),
             "--src", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.proc.stdin.write(json.dumps(doc) + "\n")
            self.proc.stdin.flush()
            self.port = json.loads(self._line(120))["port"]
        except BaseException:
            self.close()
            raise

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server process exited with {self.proc.poll()}" if ready else
                f"server process gave no reply within {timeout}s")
        return line

    def rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, read from outside."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not found")

    def spans(self) -> dict:
        self.proc.stdin.write("spans\n")
        self.proc.stdin.flush()
        return json.loads(self._line(60))

    def close(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=20)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def start(wl, src: Path, trace: bool):
    """One set-up: server process, load, connections, views and prepare; timed."""
    t0 = perf_counter()
    server = Server(src, wl.database(), trace)
    try:
        wl.start("127.0.0.1", server.port)
    except BaseException:
        wl.close()
        server.close()
        raise
    return server, perf_counter() - t0


def warm(wl, server, turns: int) -> None:
    """Untimed warm-up turns between set-up and the measured window."""
    try:
        wl.warm(turns)
    except BaseException:
        wl.close()
        server.close()
        raise


def measure(wl, server, seconds: float, rec=None) -> dict:
    """The timed window, its counters and the end-of-run checks."""
    import report

    try:
        before = report.scrape(wl.conns[0])
        wl.rec = rec
        t_start = perf_counter_ns()
        wl.run_loops(t_start + int(seconds * 1e9), measured=True)
        t_end = max([op.t1 for op in wl.ops], default=perf_counter_ns())
        wl.rec = None
        after = report.scrape(wl.conns[0])
        wl.finish()
        out = {
            "window_s": (t_end - t_start) * 1e-9,
            "counters": report.delta(before, after),
            "rss_mb": server.rss_mb(),
            "ops": wl.ops,
            "fresh_ms": wl.fresh_ms(),
        }
        if rec is not None:
            out["server_spans"] = server.spans()
        return out
    finally:
        wl.close()
        server.close()


def latency_metrics(res: dict, pct: float) -> tuple[dict, dict]:
    import report

    reads = [op for op in res["ops"] if op.kind == "read"]
    writes = [op for op in res["ops"] if op.kind == "write"]
    lat = [(op.t1 - op.t0) * 1e-6 for op in reads]
    tail, beyond = report.tail(lat, pct)
    metrics = {
        "read_p50_ms": report.median(lat),
        "read_tail_ms": tail,
        "read_qps": len(reads) / res["window_s"],
        "rows_per_s": sum(op.rows for op in reads) / res["window_s"],
    }
    detail = {"read_samples": len(lat), "read_tail_pct": pct, "read_beyond_tail": beyond,
              "p50_ms_by_label": {
        label: report.median([(op.t1 - op.t0) * 1e-6 for op in res["ops"]
                              if op.label == label])
        for label in sorted({op.label for op in res["ops"]})}}
    if writes:
        wlat = [(op.t1 - op.t0) * 1e-6 for op in writes]
        wtail, wbeyond = report.tail(wlat, pct)
        metrics.update(write_p50_ms=report.median(wlat), write_tail_ms=wtail,
                       fresh_p50_ms=report.median(res["fresh_ms"]))
        detail.update(write_samples=len(wlat), write_beyond_tail=wbeyond,
                      fresh_samples=len(res["fresh_ms"]))
    return metrics, detail


def plan_hit_ratio(c: dict) -> float:
    """Share of executes that needed no fresh rewrite (a plan-cache miss)."""
    executes = c.get("session.executes", 0)
    return 1 - c.get("repro_plan_cache_misses_total", 0) / executes if executes else 0.0


def bypass_checks(name: str, c: dict) -> dict:
    """The count-based bypass predictions of design.json, checked."""
    hit_ratio = plan_hit_ratio(c)
    incremental = sum(c.get(f"session.{k}", 0) for k in (
        "delta_applies", "dred_overdeletes", "fallback_recomputes", "view_rows_touched"))
    checks = {}
    if name in ("reach-prepared", "closure-batch"):
        checks["api.plan_hit_ratio == 1"] = hit_ratio == 1
    if name == "adhoc-auto":
        checks["api.plan_hit_ratio < 0.05"] = hit_ratio < 0.05
    else:
        checks["routes == 0"] = c.get("session.routes", 0) == 0
    if name != "view-churn":
        checks["incremental counters == 0"] = incremental == 0
    return checks


def counter_metrics(res: dict) -> dict:
    c = res["counters"]
    reads = sum(1 for op in res["ops"] if op.kind == "read") or 1
    writes = sum(1 for op in res["ops"] if op.kind == "write")
    over = c.get("session.dred_overdeletes", 0)
    return {
        "api.plan_hit_ratio": plan_hit_ratio(c),
        "vectorized.compiles": c.get("session.vec_compiles", 0) / reads,
        "vectorized.flat_fixpoints": c.get("repro_vec_flat_fixpoints_total", 0) / reads,
        "router.reroutes": c.get("repro_router_reroutes_total", 0),
        "incremental.rows_touched":
            c.get("session.view_rows_touched", 0) / writes if writes else 0.0,
        "incremental.rederive_ratio":
            c.get("session.dred_rederives", 0) / over if over else 0.0,
        "incremental.fallback_recomputes":
            c.get("session.fallback_recomputes", 0) / writes if writes else 0.0,
        "server.busy_rejections": c.get("repro_service_busy_rejections_total", 0),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "repro" / "service" / "server.py").is_file():
        print(f"perfbench: no program to measure: {src}/repro is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    design = json.loads((HERE / "design.json").read_text())
    if args.workload not in design["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(design['workloads'])}", file=sys.stderr)
        return 2
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         design, src)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "detail": detail}))
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, trace: bool, design: dict,
        src: Path) -> tuple[dict, dict]:
    """One run of one workload: (detail, result); ``result`` is the last line printed."""
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import report
    import workloads

    cfg = design["workloads"][name]
    pct = design["tail_pct"]
    warmup = design["warmup_ops"]
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[name](cfg, seed, tally)

    if not trace:
        setups = []
        for _ in range(design["setups_per_run"] - 1):
            server, took = start(wl, src, False)
            setups.append(took)
            wl.close()
            server.close()
        server, took = start(wl, src, False)
        setups.append(took)
        warm(wl, server, warmup)
        res = measure(wl, server, seconds)
        lat, detail = latency_metrics(res, pct)
        values = {"setup_s": report.median(setups), "server_rss_mb": res["rss_mb"],
                  **{k: lat[k] for k in END_TO_END if k in lat}}
        units = END_TO_END
        detail.update({k: v for k, v in lat.items() if k not in END_TO_END})
        detail["setups_s"] = setups
        detail["counters"] = res["counters"]
    else:
        # Installs process-wide shims: one traced run per process.
        import tracing

        server, _ = start(wl, src, False)
        warm(wl, server, warmup)
        plain = measure(wl, server, seconds / 2)
        plain_lat, detail = latency_metrics(plain, pct)
        rec = tracing.Recorder()
        tracing.install_client(rec)
        server, _ = start(wl, src, True)
        warm(wl, server, warmup)
        traced = measure(wl, server, seconds / 2, rec=rec)
        traced_lat, _ = latency_metrics(traced, pct)
        per_op = report.breakdown(traced["ops"], rec.dump(), traced["server_spans"])
        values = report.layer_metrics(per_op, traced["server_spans"]["routes"])
        values.update(counter_metrics(traced))
        values["cursor.fetch_frames"] = report.median(
            [o["requests"] - 1 for o in per_op if o["kind"] == "read"])
        values["trace.overhead_ratio"] = (
            traced_lat["read_p50_ms"] / plain_lat["read_p50_ms"])
        for k in ("write_p50_ms", "write_tail_ms", "fresh_p50_ms"):
            values[k] = plain_lat.get(k, 0.0)
        values["failed_ratio"] = tally.failed / max(tally.attempted, 1)
        units = per_layer_units()
        detail["untraced_read_p50_ms"] = plain_lat["read_p50_ms"]
        detail["traced_read_p50_ms"] = traced_lat["read_p50_ms"]
        detail["traced_ops"] = len(per_op)
        detail["mean_self_ms"] = report.mean_decomposition(per_op)
        detail["routes"] = traced["server_spans"]["routes"]
        detail["counters"] = traced["counters"]
        detail["bypass_predictions_hold"] = bypass_checks(name, traced["counters"])

    detail["failed_ratio"] = tally.failed / max(tally.attempted, 1)
    detail["mismatches"] = tally.mismatches
    detail["errors"] = tally.errors
    if hasattr(wl, "deletes_misreported"):
        detail["delete_replies_misreporting_applied"] = wl.deletes_misreported
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return detail, {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


if __name__ == "__main__":
    sys.exit(main())
