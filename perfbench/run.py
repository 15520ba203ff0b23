#!/usr/bin/env python3
"""planarcert benchmark.

    python3 perfbench/run.py --workload {sweep,check,certify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a planarcert checkout; the package is imported from
``src/``.  Every operation goes through ``planarcert.cli.main`` in one
worker process (a closed loop with one client), under a deadline enforced
from here: a worker that overruns it is killed and restarted.  Every
output is checked, against known answers for the campaigns and against
the independent checker in ``checker.py`` for verdicts.

With ``--trace 0`` the run measures the end-to-end metrics, with times in
reference units (see REFERENCE_LOOP_S); with ``--trace 1`` it traces the
package's public functions and reports per-layer metrics instead.  The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  A fuller record, with provenance,
goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from workloads import BUILDERS, Op, Workload  # noqa: E402

SETUP_REPEATS = 3
STREAM_CHUNK = 100
# The host's speed drifts by +-25% over tens of seconds and between runs
# (other tenants of a shared 2-vCPU VM), which no amount of repetition in a
# run averages out.  Untraced runs therefore report times in reference
# units: every CALIBRATE_EVERY_S between operations the worker times a fixed
# integer loop, and an operation's time is scaled by REFERENCE_LOOP_S over
# the mean loop time within CALIBRATION_WINDOW_S of it.  The reference is
# roughly the loop's time on a 2-vCPU x86-64 VM with CPython 3.11 (4 to
# 5 ms), so reference and raw times are close there; raw times are kept in
# the result file.
REFERENCE_LOOP_S = 0.005
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 1.0
STARTUP_TIMEOUT = 60.0
TIMEOUT = "timeout"


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


class Worker:
    """One ``worker.py`` process, spoken to in JSON lines."""

    def __init__(self, span_file: str | None = None) -> None:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), SRC]
        if span_file:
            argv.append(span_file)
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        reply = self._read(STARTUP_TIMEOUT)
        if not isinstance(reply, dict) or not reply.get("ready"):
            self.kill()
            raise RuntimeError("benchmark worker did not start")

    def _read(self, timeout: float):
        if not self.selector.select(timeout):
            return TIMEOUT
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def call(self, request: dict, timeout: float):
        """The reply, TIMEOUT, or None if the worker died."""
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._read(timeout)

    def peak_rss_kb(self) -> int:
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def kill(self) -> None:
        self.proc.kill()
        self._reap()

    def close(self) -> None:
        """Let the worker finish (and write its spans), then reap it."""
        self._close_stdin()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self._reap()

    def _close_stdin(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass

    def _reap(self) -> None:
        self.proc.wait()
        self.selector.close()
        self.proc.stdout.close()
        self._close_stdin()


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


@dataclass
class Result:
    op: Op
    status: str  # ok | timeout | crash | wrong | skipped
    latency: float  # seconds; the deadline for timeouts and skipped rungs
    deadline: float
    reason: str = ""
    layers: dict | None = None  # traced runs: this operation's totals
    at: float = 0.0  # when it started (perf_counter)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def charged(self) -> float:
        """PAR-2: the latency if it succeeded, else twice the deadline."""
        return self.latency if self.ok else 2 * self.deadline


class Runner:
    def __init__(self, workload: Workload, span_file: str | None = None) -> None:
        self.workload = workload
        self.span_file = span_file
        self.worker = Worker(span_file)
        self.counts = {"restarts": 0, "timeouts": 0, "crashes": 0, "wrong": 0}
        self.peak_kb = 0
        self.layers: dict[str, list] = {}
        self.calibrate = False
        self.calibrations: list[tuple[float, float]] = []  # (when, loop seconds)

    def speed(self, r: "Result") -> float:
        """REFERENCE_LOOP_S over the mean loop time from CALIBRATION_WINDOW_S
        before `r` started to CALIBRATION_WINDOW_S after it ended: above 1
        while the host runs faster than the reference, below while slower."""
        times = [t for t, _ in self.calibrations]
        lo = bisect.bisect_left(times, r.at - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(times, r.at + r.latency + CALIBRATION_WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest ones
            i = bisect.bisect_right(times, r.at)
            lo, hi = max(i - 1, 0), min(i + 1, len(times))
        return REFERENCE_LOOP_S / statistics.fmean(c for _, c in self.calibrations[lo:hi])

    def scaled(self, r: "Result") -> float:
        """PAR-2 charge in reference seconds (a failure's charge is fixed)."""
        return r.latency * self.speed(r) if r.ok else r.charged

    def restart(self) -> None:
        self.counts["restarts"] += 1
        self.worker = Worker(self.span_file)

    def close(self) -> None:
        self.peak_kb = max(self.peak_kb, self.worker.peak_rss_kb())
        self.worker.close()

    def run(self, op: Op, trace: bool) -> Result:
        deadline = self.workload.probe_deadline if op.probe else self.workload.deadline
        if self.calibrate and (
            not self.calibrations
            or time.perf_counter() - self.calibrations[-1][0] >= CALIBRATE_EVERY_S
        ):
            self.take_calibration()
        at = time.perf_counter()
        reply = self.worker.call({"argv": op.argv, "trace": trace}, deadline)
        if reply == TIMEOUT:
            self.peak_kb = max(self.peak_kb, self.worker.peak_rss_kb())
            self.worker.kill()
            self.restart()
            self.counts["timeouts"] += 1
            return Result(op, "timeout", deadline, deadline, "deadline exceeded", at=at)
        if reply is None or reply["crash"]:
            self.worker.kill()
            self.restart()
            self.counts["crashes"] += 1
            if reply is None:
                return Result(op, "crash", deadline, deadline, "worker died", at=at)
            return Result(op, "crash", reply["elapsed"], deadline, reply["crash"], at=at)
        self.peak_kb = max(self.peak_kb, reply["rss_kb"])
        layers = reply.get("layers")
        for name, row in (layers or {}).items():
            total = self.layers.setdefault(name, [0] * len(row))
            for i, value in enumerate(row):
                total[i] += value
        elapsed = reply["elapsed"]
        problem = op.verify(reply["code"], reply["out"])
        if problem:
            self.counts["wrong"] += 1
            return Result(op, "wrong", elapsed, deadline, problem, layers, at)
        return Result(op, "ok", elapsed, deadline, "", layers, at)

    def take_calibration(self) -> None:
        reply = self.worker.call({"calibrate": True}, STARTUP_TIMEOUT)
        if isinstance(reply, dict):
            self.calibrations.append((time.perf_counter(), reply["calibration"]))

    def run_pass(self, ops: list[Op], trace: bool) -> tuple[float, list[Result]]:
        start = time.perf_counter()
        results = [self.run(op, trace) for op in ops]
        return time.perf_counter() - start, results

    def run_ladder(self, trace: bool) -> list[Result]:
        """Run the ladder once.  Each probe ladder is climbed until a rung
        fails; the rungs above it are charged as failures without running."""
        failed: set[str] = set()
        results = []
        deadline = self.workload.probe_deadline
        for op in self.workload.ladder:
            if op.probe in failed:
                results.append(Result(op, "skipped", deadline, deadline, "lower rung failed"))
                continue
            result = self.run(op, trace)
            if not result.ok and op.probe:
                failed.add(op.probe)
            results.append(result)
        return results

    def run_timed(self, seconds: float) -> list[tuple[float, list[Result]]]:
        """Repeat the operations until `seconds` have passed, in chunks:
        whole passes, or STREAM_CHUNK operations of a stream."""
        ops = self.workload.ops
        chunks = []
        start = time.perf_counter()
        done = 0
        while not chunks or time.perf_counter() - start < seconds:
            if self.workload.stream:
                chunk = [ops[(done + i) % len(ops)] for i in range(STREAM_CHUNK)]
                done += STREAM_CHUNK
            else:
                chunk = ops
            chunks.append(self.run_pass(chunk, trace=False))
        self.take_calibration()  # a sample after the last operation
        return chunks


# ---------------------------------------------------------------------------
# Set-up, the measured phases and the metrics
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool, span_file: str | None):
    """Build the corpus and start the worker, SETUP_REPEATS times; keep the
    last and report the median time."""
    times = []
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    runner = None
    for _ in range(SETUP_REPEATS):
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        os.makedirs(workdir)
        workload = BUILDERS[name](seed, workdir, smoke)
        runner = Runner(workload, span_file)
        times.append(time.perf_counter() - start)
    return runner, workdir, statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(runner: Runner, setup_s: float, ladder: list[Result],
               chunks: list[tuple[float, list[Result]]]) -> tuple[dict, list[Result]]:
    """Times in reference units (see REFERENCE_LOOP_S); a failure is
    charged twice its deadline."""
    results = [r for r in ladder if not r.op.probe] + [r for _, rs in chunks for r in rs]
    charged = sorted(runner.scaled(r) * 1000 for r in results)
    for q in (50, 90):
        beyond = len(charged) - int(len(charged) * q / 100)
        if beyond < 10:
            print(f"note: p{q} has only {beyond} samples beyond it", file=sys.stderr)
    ok = [r for r in results if r.ok]
    # PAR-2 over the ladder, plus a median pass where passes are whole:
    # the size ladder on check, a campaign cycle on sweep, and the
    # boolean-id probes and every stored verdict on certify
    par2 = sum(runner.scaled(r) for r in ladder)
    if not runner.workload.stream:
        par2 += statistics.median(sum(runner.scaled(r) for r in rs) for _, rs in chunks)
    rates = [
        sum(r.op.weight for r in rs if r.ok)
        / (wall * statistics.fmean(runner.speed(r) for r in rs))
        for wall, rs in chunks
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/ref_s"),
        "latency_p50_ms": (percentile(charged, 50), "ref_ms"),
        "latency_p90_ms": (percentile(charged, 90), "ref_ms"),
        "par2_s": (par2, "ref_s"),
        "ok_share": (len(ok) / len(results), "share"),
        "peak_rss_mb": (runner.peak_kb / 1024, "MB"),
        "max_certified_n": (max((r.op.n for r in ladder + results if r.ok), default=0),
                            "vertices"),
    }
    return metrics, results


SEARCHES = {f"{m}.{f}" for m, f, kind in layertrace.TRACED if kind in ("search", "distinct")}
DISTINCT = {f"{m}.{f}" for m, f, kind in layertrace.TRACED if kind == "distinct"}
CAMPAIGNS = {
    "verify_kuratowski": "kuratowski",
    "verify_kuratowski_classes": "kuratowski-classes",
    "verify_lemma_characterization": "lemma",
    "verify_chartrand_harary": "chartrand-harary",
    "verify_menger_cubic": "menger-cubic",
    "verify_lifting": "lifting",
}
MODULES = ("cli", "documents", "planarity", "subdivision", "embedding", "lemmas",
           "harness", "graphs")
# the campaign whose embedding-call duplication is reported on its own
DUPLICATION_CAMPAIGN = "kuratowski"


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for module, fn, _ in layertrace.TRACED:
        if fn in CAMPAIGNS:
            names.append(f"harness.{CAMPAIGNS[fn]}.wall_s")
            continue
        name = f"{module}.{fn}"
        names += [f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"]
        if name in SEARCHES:
            names.append(f"{name}.found_ratio")
        if name in DISTINCT:
            names.append(f"{name}.distinct_ratio")
    names += [
        "documents.parse_edge_list.edges_per_s",
        "documents.verdict_doc_is_valid.accept_ratio",
        "subdivision.validate_subdivision.accept_ratio",
        f"harness.{DUPLICATION_CAMPAIGN}.find_planar_rotation.calls",
        f"harness.{DUPLICATION_CAMPAIGN}.find_planar_rotation.distinct_ratio",
    ]
    names += [f"layer.{m}.self_s" for m in MODULES]
    names += ["worker.restarts", "worker.timeouts", "worker.crashes", "worker.wrong",
              "trace.overhead_s"]
    return names


def per_layer(runner: Runner, overhead_s: float, results: list[Result]) -> dict:
    C, B, S, F, D, E = range(6)
    rows = runner.layers
    metrics = {}
    duplication = [
        r.layers.get("embedding.find_planar_rotation", [0] * 6)
        for r in results
        if r.op.argv[:2] == ["harness", DUPLICATION_CAMPAIGN] and r.layers is not None
    ]

    def ratio(a, b):
        return a / b if b else 0.0

    for module, fn, _ in layertrace.TRACED:
        name = f"{module}.{fn}"
        row = rows.get(name, [0, 0.0, 0.0, 0, 0, 0])
        if fn in CAMPAIGNS:
            metrics[f"harness.{CAMPAIGNS[fn]}.wall_s"] = (row[B], "s")
            continue
        metrics[f"{name}.calls"] = (row[C], "count")
        metrics[f"{name}.busy_s"] = (row[B], "s")
        metrics[f"{name}.self_s"] = (row[S], "s")
        if name in SEARCHES:
            metrics[f"{name}.found_ratio"] = (ratio(row[F], row[C]), "ratio")
        if name in DISTINCT:
            metrics[f"{name}.distinct_ratio"] = (ratio(row[D], row[C]), "ratio")
    parse = rows.get("documents.parse_edge_list", [0, 0.0, 0.0, 0, 0, 0])
    metrics["documents.parse_edge_list.edges_per_s"] = (ratio(parse[E], parse[B]), "1/s")
    for name in ("documents.verdict_doc_is_valid", "subdivision.validate_subdivision"):
        row = rows.get(name, [0, 0.0, 0.0, 0, 0, 0])
        metrics[f"{name}.accept_ratio"] = (ratio(row[F], row[C]), "ratio")
    calls = sum(row[C] for row in duplication)
    distinct = sum(row[D] for row in duplication)
    key = f"harness.{DUPLICATION_CAMPAIGN}.find_planar_rotation"
    metrics[f"{key}.calls"] = (calls / len(duplication) if duplication else 0, "count")
    metrics[f"{key}.distinct_ratio"] = (ratio(distinct, calls), "ratio")
    for module in MODULES:
        self_s = sum(row[S] for name, row in rows.items() if name.split(".")[0] == module)
        metrics[f"layer.{module}.self_s"] = (self_s, "s")
    for key, value in runner.counts.items():
        metrics[f"worker.{key}"] = (value, "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def measure(args, smoke: bool = False) -> dict:
    """One run; returns the result object printed on the last line."""
    trace = bool(args.trace)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_file = os.path.join(OUT, f"spans-{tag}.jsonl") if trace else None
    runner, workdir, setup_s = set_up(args.workload, args.seed, smoke, span_file)
    runner.calibrate = not trace
    ops = runner.workload.ops
    try:
        # the ladder first: a probe that overruns kills its worker, and
        # only the last worker lives to write its spans
        ladder = runner.run_ladder(trace)
        if trace:
            untraced, _ = runner.run_pass(ops, trace=False)
            traced, results = runner.run_pass(ops, trace=True)
            results += [r for r in ladder if not r.op.probe]
        else:
            chunks = runner.run_timed(args.seconds)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = per_layer(runner, traced - untraced, results)
        chunks = []
    else:
        metrics, results = end_to_end(runner, setup_s, ladder, chunks)
    failed = [r for r in results if not r.ok]
    record = {
        "correct": not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "provenance": provenance(args),
        "failures": [(r.op.label, r.status, r.reason) for r in failed],
        "slowest": [(r.op.label, round(r.latency, 4))
                    for r in sorted(results, key=lambda r: -r.latency)[:12]],
        "ladder": [(r.op.label, r.status, round(r.latency, 4), r.reason) for r in ladder],
        "result": record,
        "calibrations": [round(c, 6) for _, c in runner.calibrations],
        "chunks": [(w, [(r.op.label, r.status, r.latency, runner.speed(r)) for r in rs])
                   for w, rs in chunks],
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail["provenance"]), file=sys.stderr)
    for label, status, latency, reason in detail["ladder"]:
        print(f"ladder {label}: {status} {latency}s {reason}", file=sys.stderr)
    for label, status, reason in detail["failures"][:20]:
        print(f"FAILED {label}: {status} {reason}", file=sys.stderr)
    return record


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------


def smoke() -> int:
    import selftest

    problems = selftest.run_all()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [m["name"] for m in spec["per_layer"]] != layer_metric_names():
        problems.append("BENCHMARK.json per_layer list differs from layer_metric_names()")
    for name in BUILDERS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1, trace=trace)
            record = measure(args, smoke=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            reported = {k: v["unit"] for k, v in record["metrics"].items()}
            missing = {m["name"] for m in wanted if reported.get(m["name"]) != m["unit"]}
            # the check ladder's 5x5 grid overruns and its long path crashes
            exercised = not (name == "check" and trace) or (
                record["metrics"]["worker.timeouts"]["value"] >= 1
                and record["metrics"]["worker.crashes"]["value"] >= 1
            )
            status = "ok" if record["correct"] and not missing and exercised else "FAIL"
            print(f"smoke {name} trace={trace}: {status} attempted={record['attempted']} "
                  f"failed={record['failed']}")
            if status != "ok":
                problems.append(f"{name} trace={trace}: correct={record['correct']} "
                                f"missing={sorted(missing)} restart paths run={exercised}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-scale run of every workload plus the checker's own tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "planarcert", "cli.py")):
        print(f"error: no planarcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = measure(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
