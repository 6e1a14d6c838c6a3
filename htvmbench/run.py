"""HTVM benchmark: compile, execute and serve, end to end and per layer.

Usage (from the repository root)::

    python3 htvmbench/run.py --workload platform-l1 --seed 1 \\
        --seconds 20 --trace 0

Every run sets the program up (graph build, compile, cold native
builds, pack + verified load, fleet start) several times and reports
the median as ``setup_s``. After each set-up it measures a block of
three phases, which alternate in slices, pooled over the blocks:
compilation of every Table I cell, execution in ``fast`` and
``native`` mode, and an open-loop schedule against both serving tiers.
The workload fixes the L1 budget of the compile phase; execution and
serving deploy at the platform L1 in both workloads.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` reruns the
phases with the program's layers wrapped and prints the per-layer
metrics instead. Every output is checked against the reference
interpreter; the last line of standard output is one JSON object, and
the exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload -> L1 budget of the compile phase (None = the platform's L1)
WORKLOADS = {"platform-l1": None, "l1-16kb": 16 * 1024}
MODELS = ("dscnn", "mobilenet", "resnet", "toyadmos")
#: share of --seconds each phase measures; serve splits its share
#: evenly between the two tiers
SHARES = {"compile": 0.40, "infer": 0.25, "serve": 0.35}
SETUP_REPS = 2  #: set-ups per run; setup_s is their median
#: the phases alternate in this many slices per block, so that each
#: samples the whole stretch between two set-ups
SLICES = 4
OVERHEAD_PAIRS = 5  #: traced/untraced pairs behind obs.overhead_pct


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Run:
    """One benchmark invocation: set-up, phases, checks, report.

    The run measures in one untraced block after each of the
    ``SETUP_REPS`` set-ups and pools the samples, so every metric spans
    the whole run rather than one stretch of it. With ``--trace 1`` a
    traced block of the same length follows the last untraced one; it
    gives the per-layer split, while latencies and percentiles still
    come from the untraced blocks.
    """

    def __init__(self, args: argparse.Namespace, work: str) -> None:
        self.args = args
        self.work = work
        self.budget = WORKLOADS[args.workload]
        self.metrics: Dict[str, tuple] = {}
        self.failures: List[str] = []   # wrong outputs, crashes
        self.attempted = 0
        self.refused = 0                # serving errors: failed, not wrong

    # -- set-up ---------------------------------------------------------------

    def set_up(self, clocks=None) -> tuple:
        """One timed set-up: ``(seconds, compile cells, infer cells,
        serving deployment)``."""
        import compile_phase
        import infer_phase
        import serve_phase

        rep = tempfile.mkdtemp(prefix="setup-", dir=self.work)
        native_dir = os.path.join(rep, "native")
        art_dir = os.path.join(rep, "artifacts")
        os.makedirs(native_dir)
        os.makedirs(art_dir)
        build = (infer_phase.build_patch(clocks["build"]) if clocks
                 else contextlib.nullcontext())
        load = self.verify_patch(clocks["verify"]) if clocks else None
        seed = self.args.seed
        t0 = time.perf_counter()
        cells = compile_phase.make_cells(MODELS, self.budget, seed)
        with build:
            infer_cells = infer_phase.setup(MODELS, seed, native_dir)
        dep = serve_phase.setup(
            [c for c in infer_cells if c.config == "mixed"], art_dir, load)
        return time.perf_counter() - t0, cells, infer_cells, dep

    @staticmethod
    def verify_patch(clock):
        import repro.verify as verify_mod
        from tracing import Patch

        return Patch(clock, [(verify_mod, "check_artifact_dict",
                              "verify.artifact_ms"),
                             (verify_mod, "verify_model",
                              "verify.artifact_ms")])

    # -- phases ---------------------------------------------------------------

    def run(self) -> None:
        import compile_phase
        import infer_phase
        import serve_phase
        from measure import median
        from tracing import LayerClock

        seed = self.args.seed
        traced = bool(self.args.trace)
        clocks = ({"build": LayerClock(), "verify": LayerClock()}
                  if traced else None)
        share = 1.0 / SETUP_REPS
        logs = {"compile": compile_phase.PassLog(),
                "infer": infer_phase.InferLog(),
                "serve.inproc": [], "serve.fleet": []}
        times, builds = [], []
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            if clocks:
                clocks["build"].reset()
                clocks["verify"].reset()
            seconds, cells, infer_cells, dep = self.set_up(clocks)
            times.append(seconds)
            if clocks:
                builds.append(clocks["build"].incl_s["codegen.build.cold_s"])
            try:
                infer_phase.make_inputs(infer_cells, seed)
                serve_phase.make_inputs(dep, seed)
                infer_phase.warm_up(infer_cells)
                self.warm_tiers(serve_phase, dep)
                for k in range(SLICES):
                    self.compile(compile_phase, cells, logs["compile"],
                                 share / SLICES, check=last and k == 0)
                    self.infer(infer_phase, infer_cells, logs["infer"],
                               share / SLICES)
                    self.serve(serve_phase, dep, logs, share / SLICES,
                               seed=(seed * SETUP_REPS + rep) * SLICES + k)
                if traced and last:
                    self.trace_infer(infer_phase, infer_cells, share)
                    self.trace_serve(serve_phase, dep, share, seed)
                    self.trace_compile(compile_phase, cells, share)
            finally:
                dep.close()
        self.failures += logs["compile"].failures
        self.metrics["setup_s"] = (
            median(times), "s", f"median of {len(times)} set-ups")
        self.metrics.update(compile_phase.metrics(logs["compile"]))
        self.metrics.update(infer_phase.metrics(logs["infer"]))
        for prefix in ("serve.inproc", "serve.fleet"):
            self.tier(serve_phase, prefix, logs[prefix])
        if traced:
            self.metrics["codegen.build.cold_s"] = (
                median(builds), "s", "native builds per set-up, median")
            n = len(dep.load_ms)
            self.metrics["serve.artifact.load_ms"] = (
                sum(dep.load_ms) / n, "ms",
                f"load_artifact(verify=True), mean of {n}")
            verify = clocks["verify"]
            self.metrics["verify.artifact_ms"] = (
                1e3 * verify.self_s["verify.artifact_ms"] / n, "ms",
                f"static checks per artifact load, n={n}")
            self.metrics["obs.overhead_pct"] = self.overhead(
                compile_phase, infer_phase, cells, infer_cells)

    def compile(self, phase, cells, log, share: float, check: bool) -> None:
        seconds = self.args.seconds * SHARES["compile"] * share
        n_before = len(log.cold_s) + len(log.warm_s)
        min_cold = math.ceil(phase.MIN_COLD / (SETUP_REPS * SLICES))
        models = phase.measure(cells, seconds, log, min_cold=min_cold)
        self.attempted += len(log.cold_s) + len(log.warm_s) - n_before
        if not check:
            return
        checks: List[str] = []
        modeled = phase.check(cells, models, self.args.seed, checks)
        self.attempted += sum(1 for m in models.values() if m is not None)
        self.failures += checks
        self.metrics.update(phase.soc_metrics(modeled))

    def trace_compile(self, phase, cells, share: float) -> None:
        seconds = self.args.seconds * SHARES["compile"] * share
        found, ops = phase.traced(cells, seconds)
        self.metrics.update(found)
        self.attempted += ops

    def infer(self, phase, cells, log, share: float) -> None:
        seconds = self.args.seconds * SHARES["infer"] * share
        runs, n_failed = log.runs, len(log.failures)
        phase.measure(cells, seconds, log=log)
        self.attempted += log.runs - runs
        self.failures += log.failures[n_failed:]

    def trace_infer(self, phase, cells, share: float) -> None:
        seconds = self.args.seconds * SHARES["infer"] * share
        found, ops = phase.traced(cells, seconds)
        self.metrics.update(found)
        self.attempted += ops

    def warm_tiers(self, phase, dep) -> None:
        for _, submit in phase.tiers(dep):
            self.failures += phase.warm_up(submit, dep).failures

    def serve(self, phase, dep, logs, share: float, seed: int) -> None:
        """Both tiers in turn, on one open-loop schedule."""
        seconds = self.args.seconds * SHARES["serve"] * share / 2
        schedule = phase.make_schedule(list(dep.paths), seconds, seed)
        for prefix, submit in phase.tiers(dep):
            logs[prefix].append(phase.run_schedule(submit, schedule, dep))

    def trace_serve(self, phase, dep, share: float, seed: int) -> None:
        seconds = self.args.seconds * SHARES["serve"] * share / 2
        schedule = phase.make_schedule(list(dep.paths), seconds, seed)
        for trace_fn in (phase.traced_inproc, phase.traced_fleet):
            log, found = trace_fn(dep, schedule)
            self.metrics.update(found)
            self.settle(log)

    def tier(self, phase, prefix: str, logs) -> None:
        """Pool one tier's untraced blocks into its metrics and counts."""
        log = phase.TierLog([r for b in logs for r in b.requests],
                            max(b.max_late_s for b in logs),
                            [f for b in logs for f in b.failures])
        self.metrics[f"{prefix}.late_ms"] = (
            1e3 * log.max_late_s, "ms", "generator's maximum lateness")
        self.metrics[f"{prefix}.stalls"] = (
            sum(phase.count_stalls(b) for b in logs), "count",
            f">= {phase.STALL_S * 1e3:g} ms with none done")
        if log.latencies_ms:
            self.metrics.update(phase.tier_metrics(prefix, log))
        else:
            self.failures.append(f"{prefix}: no request succeeded")
        self.settle(log)

    def settle(self, log) -> None:
        """Count one tier log's requests, wrong outputs and refusals."""
        self.attempted += len(log.requests)
        self.failures += log.failures
        # refused or failed by the server: counted, not a wrong output
        self.refused += sum(1 for r in log.requests if r.error) \
            - len(log.failures)

    def overhead(self, compile_phase, infer_phase, cells,
                 infer_cells) -> tuple:
        """Traced vs untraced wall time of one cold compile pass plus
        one infer round, over alternating pairs."""
        from measure import median
        from tracing import LayerClock

        def unit(traced: bool) -> float:
            clock = LayerClock() if traced else None
            patch = (infer_phase.infer_patch(clock) if traced
                     else contextlib.nullcontext())
            t0 = time.perf_counter()
            compile_phase.cold_pass(cells, clock)
            with patch:
                infer_phase.measure(infer_cells, 0)
            return time.perf_counter() - t0

        ratios = []
        for i in range(OVERHEAD_PAIRS):
            if i % 2:
                on, off = unit(True), unit(False)
            else:
                off, on = unit(False), unit(True)
            ratios.append(on / off)
        return (100.0 * (median(ratios) - 1.0), "%",
                f"median of {OVERHEAD_PAIRS} traced/untraced pairs")

    # -- report ---------------------------------------------------------------

    def report(self, names: List[str]) -> dict:
        failed = len(self.failures) + self.refused
        attempted = max(self.attempted, 1)
        for name in sorted(self.metrics):
            value, unit, note = self.metrics[name]
            print(f"{name:34s} {value:14.6f} {unit:11s} ({note})")
        print(f"{'failed_share':34s} {failed / attempted:14.6f} "
              f"{'share':11s} ({failed}/{attempted} operations)")
        for line in self.failures[:20]:
            print(f"FAILED: {line}")
        missing = [n for n in names if n not in self.metrics]
        if missing and not self.failures:
            raise RuntimeError(f"metrics not measured: {missing}")
        names = [n for n in names if n in self.metrics]
        return {
            "correct": not self.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": self.metrics[n][0],
                            "unit": self.metrics[n][1]} for n in names},
        }


def declared_metrics(trace: int) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("htvmbench: no program sources under src/repro",
              file=sys.stderr)
        return 2
    names = declared_metrics(args.trace)
    # on SIGTERM still stop the fleet's workers and remove the work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # everything the run writes (native libraries, artifacts) stays in
    # a fresh directory inside the checkout, removed on exit
    work_root = os.path.join(ROOT, ".htvmbench")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(work, "native-default")
    # the C compiler's scratch files stay in the checkout too
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from measure import provenance

        print("provenance " + json.dumps(provenance(ROOT), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        bench = Run(args, work)
        bench.run()
        result = bench.report(names)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
