"""Native backend benchmark: compiled C vs. the numpy fast executor.

For every MLPerf Tiny model (digital configuration) the benchmark
measures the three costs that matter for the compile-once/serve-many
story of ``exec_mode="native"``:

* **cold build** — ``cc -O3`` of the emitted units into the
  fingerprint-keyed shared library (paid once per artifact, ever),
* **warm load**  — ``dlopen`` + ABI check + weight binding (paid once
  per process),
* **steady state** — single-request latency of the loaded library vs.
  the ``fast`` interpreter, the number a serving worker lives on.

Per-kind rows time every native step of the zoo on its own, C kernel
against the ``fast`` kernel, and report the median per step kind: the
evidence for which kinds the emitter covers (``SUPPORTED_KINDS``).
All timings are steady-state medians over ``--reps`` calls.

Every timed pair is first checked byte-identical against ``fast`` and
``tiled`` (identical modeled cycles too); ``--check`` runs only that
gate, which is what CI's native-smoke job calls. Without a C compiler
the benchmark degrades exactly like the executor does: it reports the
skip and exits cleanly. Results land in ``BENCH_native.json``.

Runs standalone (``python benchmarks/bench_native.py --reps 5``) and
under pytest.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import pytest

from bench_timing import median_of
from repro.codegen.build import (
    NativeModule, build_native_library, find_c_compiler,
    load_native_module,
)
from repro.core.compiler import compile_model
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, random_inputs
from repro.runtime.executor import execute_layer_fast
from repro.soc import DianaSoC

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_native.json"
MODELS = ("dscnn", "mobilenet", "resnet", "toyadmos")
REPS = 10


class DivergenceError(AssertionError):
    """Native mode disagreed with fast/tiled mode."""


def _compiled(model: str, config: str):
    precision, soc_kwargs, cfg = CONFIGS[config]
    graph = MLPERF_TINY[model](precision=precision)
    soc = DianaSoC(**soc_kwargs)
    return graph, soc, compile_model(graph, soc, cfg)


def _check_equivalence(model: str, config: str, graph, soc, compiled,
                       cache_dir: str):
    """Byte/cycle equality of native vs. fast vs. tiled."""
    feeds = random_inputs(graph, seed=1)
    fast = Executor(soc, exec_mode="fast").run(compiled, feeds)
    tiled = Executor(soc, exec_mode="tiled").run(compiled, feeds)
    native = Executor(soc, exec_mode="native",
                      native_cache_dir=cache_dir).run(compiled, feeds)
    for name, other in (("fast", fast), ("tiled", tiled)):
        if not np.array_equal(native.output, other.output):
            raise DivergenceError(f"{model}/{config}: native != {name}")
        if native.total_cycles != other.total_cycles:
            raise DivergenceError(
                f"{model}/{config}: cycles differ vs {name} "
                f"({native.total_cycles} vs {other.total_cycles})")
    return native.total_cycles


def run_check(cache_dir: str, models=MODELS) -> dict:
    """The CI gate: zoo digital + resnet across Table I configs."""
    gate = {}
    for model in models:
        graph, soc, compiled = _compiled(model, "digital")
        cycles = _check_equivalence(model, "digital", graph, soc, compiled,
                                    cache_dir)
        gate[f"{model}/digital"] = {"bit_exact": True, "cycles_equal": True,
                                    "total_cycles": cycles}
    for config in CONFIGS:
        if config == "digital":
            continue
        graph, soc, compiled = _compiled("resnet", config)
        cycles = _check_equivalence("resnet", config, graph, soc, compiled,
                                    cache_dir)
        gate[f"resnet/{config}"] = {"bit_exact": True, "cycles_equal": True,
                                    "total_cycles": cycles}
    return gate


def _step_input(spec, rng):
    shape = ((spec.in_channels,) if spec.kind == "dense"
             else (spec.in_channels, spec.iy, spec.ix))
    return rng.integers(-128, 128, size=(1,) + shape, dtype=np.int8)


def run_kinds(cache_dir: str, models=MODELS, reps=REPS) -> dict:
    """Median per-step time of each natively covered step kind over
    ``models`` (digital), native kernel vs. the fast kernel, each step
    checked byte-identical first."""
    times = {}
    rng = np.random.default_rng(0)
    for model in models:
        _, soc, compiled = _compiled(model, "digital")
        mod = load_native_module(compiled, cache_dir)
        for i in sorted(mod.native_idx):
            step = compiled.steps[i]
            spec = step.spec
            accel = soc.accelerator(step.accel_target)
            x = _step_input(spec, rng)
            y = _step_input(spec, rng) if spec.kind == "add" else None
            if not np.array_equal(mod.run_step(i, spec, x, y),
                                  execute_layer_fast(accel, spec, x, y)):
                raise DivergenceError(f"{model}/{step.name}: native != fast")
            row = times.setdefault(spec.kind, ([], []))
            row[0].append(median_of(mod.run_step, reps, i, spec, x, y))
            row[1].append(median_of(execute_layer_fast, reps,
                                    accel, spec, x, y))
    return {kind: {"steps": len(native),
                   "native_ms": 1e3 * statistics.median(native),
                   "fast_ms": 1e3 * statistics.median(fast),
                   "min_speedup_vs_fast": min(
                       f / max(n, 1e-12) for n, f in zip(native, fast))}
            for kind, (native, fast) in sorted(times.items())}


def run_bench(cache_dir: str, models=MODELS, reps=REPS,
              write=True) -> dict:
    compiler = find_c_compiler()
    per_model = {}
    for model in models:
        graph, soc, compiled = _compiled(model, "digital")
        _check_equivalence(model, "digital", graph, soc, compiled,
                           cache_dir)
        feeds = random_inputs(graph, seed=1)

        t0 = time.perf_counter()
        lib = build_native_library(compiled, cache_dir=cache_dir,
                                   force=True)
        cold_build_s = time.perf_counter() - t0
        assert lib is not None, f"{model}: native build failed"
        warm_load_s = median_of(NativeModule, max(1, reps // 2),
                                lib, compiled)

        native = Executor(soc, exec_mode="native",
                          native_cache_dir=cache_dir)
        fast = Executor(soc, exec_mode="fast")
        native_s = median_of(native.run, reps, compiled, feeds)
        fast_s = median_of(fast.run, reps, compiled, feeds)
        per_model[model] = {
            "cold_build_s": cold_build_s,
            "warm_load_s": warm_load_s,
            "native_s": native_s,
            "fast_s": fast_s,
            "speedup_vs_fast": fast_s / max(native_s, 1e-12),
            "full_run": bool(
                getattr(load_native_module(compiled, cache_dir),
                        "has_full_run", False)),
        }

    record = {
        "config": "digital",
        "compiler": compiler,
        "reps": reps,
        "models": per_model,
        "kinds": run_kinds(cache_dir, models=models, reps=reps),
        "table1_equivalence": run_check(cache_dir, models=()),
        # headline: the serving win where the whole network runs in one
        # native call (null when toyadmos was excluded)
        "toyadmos_speedup": (
            per_model["toyadmos"]["speedup_vs_fast"]
            if "toyadmos" in per_model else None),
    }
    if write:
        OUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def _format(record: dict) -> str:
    lines = [f"native backend bench (digital, {record['compiler']}, "
             f"median of {record['reps']}):"]
    for model, r in record["models"].items():
        lines.append(
            f"  {model:<10} build {r['cold_build_s'] * 1e3:7.1f} ms   "
            f"load {r['warm_load_s'] * 1e3:6.2f} ms   "
            f"fast {r['fast_s'] * 1e3:7.3f} ms   "
            f"native {r['native_s'] * 1e3:7.3f} ms "
            f"({r['speedup_vs_fast']:.2f}x"
            f"{', full-run' if r['full_run'] else ''})")
    lines.append("  per step kind (median over native steps):")
    for kind, r in record["kinds"].items():
        lines.append(
            f"    {kind:<9} {r['steps']:3d} steps   "
            f"fast {r['fast_ms']:7.3f} ms   native {r['native_ms']:7.3f} ms"
            f"   (worst step {r['min_speedup_vs_fast']:.2f}x)")
    if record["toyadmos_speedup"] is not None:
        lines.append(f"  toyadmos steady-state speedup: "
                     f"{record['toyadmos_speedup']:.2f}x")
    return "\n".join(lines)


def test_native_vs_fast(report, benchmark):
    """Equivalence gate + a quick timing pass (full run: CI/standalone)."""
    if find_c_compiler() is None:
        pytest.skip("no C compiler on PATH")
    cache = tempfile.mkdtemp(prefix="bench-native-")
    try:
        record = run_bench(cache, models=("toyadmos",), reps=3,
                           write=False)
        r = record["models"]["toyadmos"]
        assert r["full_run"]  # whole network in one native call
        assert r["speedup_vs_fast"] > 1.0
        graph, soc, compiled = _compiled("toyadmos", "digital")
        feeds = random_inputs(graph, seed=1)
        native = Executor(soc, exec_mode="native", native_cache_dir=cache)
        native.run(compiled, feeds)
        benchmark(lambda: native.run(compiled, feeds))
        report(_format(record))
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def main(argv=None) -> int:
    global OUT
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=REPS,
                        help="timing repetitions (median)")
    parser.add_argument("--models", nargs="+", default=list(MODELS),
                        choices=sorted(MLPERF_TINY))
    parser.add_argument("--check", action="store_true",
                        help="equivalence gate only, no timings, no "
                             "BENCH_native.json")
    parser.add_argument("--cache-dir", default=None,
                        help="native library cache (default: a "
                             "temporary directory)")
    parser.add_argument("--out", default=str(OUT))
    args = parser.parse_args(argv)
    OUT = pathlib.Path(args.out)
    if find_c_compiler() is None:
        print("SKIP: no C compiler on PATH — native mode would serve "
              "via its fast fallback; nothing to measure")
        return 0
    cache = args.cache_dir or tempfile.mkdtemp(prefix="bench-native-")
    try:
        if args.check:
            gate = run_check(cache, models=tuple(args.models))
            for cell in gate:
                print(f"  {cell}: bit-exact, cycles equal")
            print(f"OK: {len(gate)} cells native == fast == tiled")
            return 0
        record = run_bench(cache, models=tuple(args.models),
                           reps=args.reps)
        print(_format(record))
        print(f"wrote {OUT}")
        return 0
    except DivergenceError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.cache_dir is None:
            shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
