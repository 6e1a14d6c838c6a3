"""Infer phase: the four models x {digital, mixed}, compiled in set-up.

Each round runs every cell batch-1 in ``fast`` and ``native`` mode and
as one batch of 8 in ``fast`` mode. Compilation is set-up only, so the
phase isolates the runtime, the numeric kernels and the native code.
Native wins where its one-call full-run path applies (ToyADMOS) and
loses on ResNet's convolutions, so the geometric mean over cells moves
with native kernel work either way.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.codegen.build as build_mod
import repro.numerics as numerics_mod
import repro.runtime.executor as executor_mod
from repro.codegen.build import NativeModule
from repro.core import TilingCache, compile_model
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import (
    Executor, random_inputs, random_inputs_batched, run_reference,
    run_reference_batched,
)
from repro.soc import get_platform

from measure import geomean, median
from tracing import LayerClock, Patch

CONFIG_NAMES = ("digital", "mixed")
BATCH = 8
POOL = 4  #: distinct batch-1 inputs per cell


@dataclass
class InferCell:
    model: str
    config: str
    graph: object
    soc: object
    cfg: object
    compiled: object
    fast: Executor
    native: Executor
    inputs: List[dict] = field(default_factory=list)
    refs: List[np.ndarray] = field(default_factory=list)
    batch_feeds: Optional[dict] = None
    batch_ref: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        return f"{self.model}.{self.config}"


def setup(models, seed: int, native_dir: str) -> List[InferCell]:
    """Compile every cell and build its native library cold."""
    cache = TilingCache()
    cells = []
    for model in models:
        for config in CONFIG_NAMES:
            precision, soc_kwargs, base = CONFIGS[config]
            graph = MLPERF_TINY[model](precision=precision, seed=seed)
            soc = get_platform("diana", **soc_kwargs)
            compiled = compile_model(graph, soc, base, cache=cache)
            native = Executor(soc, exec_mode="native",
                              native_cache_dir=native_dir)
            # the first native run builds the shared library
            native.run(compiled, random_inputs(graph, seed=seed))
            cells.append(InferCell(model, config, graph, soc, base, compiled,
                                   Executor(soc, exec_mode="fast"), native))
    return cells


def make_inputs(cells: List[InferCell], seed: int) -> None:
    """Seeded inputs and their references (outside the set-up time)."""
    rng = random.Random(seed)
    for cell in cells:
        for _ in range(POOL):
            feeds = random_inputs(cell.graph, seed=rng.randrange(2 ** 31))
            cell.inputs.append(feeds)
            cell.refs.append(np.asarray(run_reference(cell.graph, feeds)))
        cell.batch_feeds = random_inputs_batched(
            cell.graph, BATCH, seed=rng.randrange(2 ** 31))
        cell.batch_ref = np.asarray(
            run_reference_batched(cell.graph, cell.batch_feeds))


@dataclass
class InferLog:
    fast_s: Dict[str, List[float]] = field(default_factory=dict)
    native_s: Dict[str, List[float]] = field(default_factory=dict)
    batch_s: Dict[str, List[float]] = field(default_factory=dict)
    runs: int = 0
    failures: List[str] = field(default_factory=list)


def _timed(log: InferLog, times: List[float], what: str, fn, feeds,
           expected: np.ndarray, observe=None) -> None:
    log.runs += 1
    before = observe() if observe is not None else None
    t0 = time.perf_counter()
    try:
        result = fn(feeds)
    except Exception as exc:  # noqa: BLE001 — counted as a failure
        log.failures.append(f"{what}: {type(exc).__name__}: {exc}")
        return
    times.append(time.perf_counter() - t0)
    if observe is not None:
        observe(before)
    out = getattr(result, "output", None)
    if out is None:
        out = result.outputs
    if not np.array_equal(np.asarray(out), expected):
        log.failures.append(f"{what}: output differs from the reference")


def measure(cells: List[InferCell], seconds: float,
            observers: Optional[Dict[str, object]] = None,
            log: Optional[InferLog] = None) -> InferLog:
    """Rounds over every cell and mode until ``seconds`` elapsed.

    ``observers`` maps ``(mode, cell name)`` to a callable invoked
    with no argument before each timed call and with that call's
    return value after it. Samples are appended to ``log`` if given.
    """
    if log is None:
        log = InferLog()
    obs = observers or {}
    for cell in cells:
        log.fast_s.setdefault(cell.name, [])
        log.native_s.setdefault(cell.name, [])
        log.batch_s.setdefault(cell.name, [])
    t_end = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < t_end:
        for cell in cells:
            k = r % POOL
            run_fast = lambda f, c=cell: c.fast.run(c.compiled, f)  # noqa: E731
            run_native = lambda f, c=cell: c.native.run(c.compiled, f)  # noqa: E731
            run_batch = lambda f, c=cell: c.fast.run_batch(c.compiled, f)  # noqa: E731
            _timed(log, log.fast_s[cell.name], f"fast {cell.name}", run_fast,
                   cell.inputs[k], cell.refs[k], obs.get(("fast", cell.name)))
            _timed(log, log.native_s[cell.name], f"native {cell.name}",
                   run_native, cell.inputs[k], cell.refs[k],
                   obs.get(("native", cell.name)))
            _timed(log, log.batch_s[cell.name], f"batch8 {cell.name}",
                   run_batch, cell.batch_feeds, cell.batch_ref,
                   obs.get(("batch8", cell.name)))
        r += 1
    return log


def warm_up(cells: List[InferCell]) -> None:
    """Fill the executors' replay caches before timing."""
    for cell in cells:
        for _ in range(2):
            cell.fast.run(cell.compiled, cell.inputs[0])
            cell.native.run(cell.compiled, cell.inputs[0])
            cell.fast.run_batch(cell.compiled, cell.batch_feeds)


def metrics(log: InferLog) -> Dict[str, tuple]:
    n = min(len(v) for v in log.fast_s.values())
    cells = len(log.fast_s)
    note = f"geomean of {cells} cell medians, n>={n} per cell"
    return {
        "infer.fast_ms": (geomean(1e3 * median(v)
                                  for v in log.fast_s.values()), "ms", note),
        "infer.native_ms": (geomean(1e3 * median(v)
                                    for v in log.native_s.values()), "ms",
                            note),
        "infer.batch8_ms": (geomean(1e3 * median(v) / BATCH
                                    for v in log.batch_s.values()),
                            "ms/sample", note),
    }


class _TimedPlan:
    """Stands in for a compiled CPU-kernel plan; times ``run_args``."""

    def __init__(self, plan, run_args) -> None:
        self._plan = plan
        self.run_args = run_args

    def __getattr__(self, name):
        return getattr(self._plan, name)


STEP_FAST = "runtime.step_fast_ms"
STEP_CPU = "runtime.step_cpu_ms"
CONV = "numerics.conv2d_ms"
NATIVE_RUN = "codegen.native.run_ms"


@contextlib.contextmanager
def infer_patch(clock: LayerClock):
    """Time accelerator steps, CPU-kernel steps, the convolution
    kernels and native library calls."""
    original_plan = executor_mod.compile_plan

    def compile_plan(body):
        plan = original_plan(body)
        return _TimedPlan(plan, clock.wrap(STEP_CPU, plan.run_args))

    targets = [
        (executor_mod, "execute_layer_fast", STEP_FAST),
        (numerics_mod, "conv2d", CONV),
        (numerics_mod, "conv2d_acc", CONV),
        (NativeModule, "run_full", NATIVE_RUN),
        (NativeModule, "run_step", NATIVE_RUN),
    ]
    executor_mod.compile_plan = compile_plan
    try:
        with Patch(clock, targets):
            yield
    finally:
        executor_mod.compile_plan = original_plan


def traced(cells: List[InferCell], seconds: float) -> tuple:
    """Per-layer self time per inference, from wrapped calls.

    Returns the metrics and the number of inferences run."""
    clock = LayerClock()
    self_s: Dict[tuple, Dict[str, float]] = {}
    calls: Dict[tuple, Dict[str, int]] = {}

    def observer(key):
        def observe(before=None):
            now = (dict(clock.self_s), dict(clock.calls))
            if before is None:
                return now
            acc = self_s.setdefault(key, {})
            cnt = calls.setdefault(key, {"inferences": 0})
            for name, v in now[0].items():
                acc[name] = acc.get(name, 0.0) + v - before[0].get(name, 0.0)
            for name, v in now[1].items():
                cnt[name] = cnt.get(name, 0) + v - before[1].get(name, 0)
            cnt["inferences"] += 1
            return None
        return observe

    observers = {(mode, c.name): observer((mode, c.name))
                 for mode in ("fast", "native") for c in cells}
    with infer_patch(clock):
        log = measure(cells, seconds, observers)
    if log.failures:
        raise RuntimeError("; ".join(log.failures[:3]))

    def per_inference(mode: str, name: str) -> float:
        vals = [1e3 * self_s[(mode, c.name)].get(name, 0.0)
                / calls[(mode, c.name)]["inferences"] for c in cells]
        return sum(vals) / len(vals)

    fallback = 0.0
    for c in cells:
        cnt = calls[("native", c.name)]
        fallback += (cnt.get(STEP_FAST, 0) + cnt.get(STEP_CPU, 0)) \
            / cnt["inferences"]
    note = f"self, per inference, mean over {len(cells)} cells"
    return {
        STEP_FAST: (per_inference("fast", STEP_FAST), "ms", note + ", fast"),
        STEP_CPU: (per_inference("fast", STEP_CPU), "ms", note + ", fast"),
        CONV: (per_inference("fast", CONV), "ms", note + ", fast"),
        NATIVE_RUN: (per_inference("native", NATIVE_RUN), "ms",
                     note + ", native"),
        "codegen.native.fallback_steps": (
            fallback, "count",
            f"interpreted steps per native inference, sum over "
            f"{len(cells)} cells"),
    }, log.runs


def build_patch(clock: LayerClock) -> Patch:
    """Times native library builds (held around set-up)."""
    return Patch(clock, [(build_mod, "load_native_module",
                          "codegen.build.cold_s")])
