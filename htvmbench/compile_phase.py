"""Compile phase: every Table I cell under rules and dp mapping.

Each pass compiles every cell against a fresh ``TilingCache`` (cold),
then again against the now-warm cache. The workload fixes the L1
budget: at the platform L1 the front end and the partitioner dominate
a compile, at 16 kB the DORY tiler does most of the work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.core.compiler as compiler_mod
import repro.dory.tiler as tiler_mod
import repro.transforms.base as transforms_base
from repro.core import TilingCache, compile_model
from repro.errors import OutOfMemoryError
from repro.eval import paper
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, random_inputs, run_reference
from repro.soc import get_platform, latency_ms

from measure import beyond, median, percentile
from tracing import LayerClock, Patch

#: ``cpu-tvm`` never offloads, so it has no dp variant.
MAPPINGS = ("rules", "dp")

#: per-layer metric -> ``(owner, attributes)`` pairs naming the public
#: functions whose self time it sums (``compile_model`` looks these
#: names up at call time, so patching the attribute is enough)
COMPILE_LAYERS = {
    "transforms.ms": ((compiler_mod, ("canonicalize", "fold_constants",
                                   "eliminate_dead_code", "fuse_cpu_ops")),
                      (transforms_base.PassManager, ("run",))),
    "patterns.partition_ms": ((compiler_mod, ("partition", "default_specs")),),
    "mapping.plan_ms": ((compiler_mod, ("plan_mapping", "layer_spec_of")),),
    "dory.memory_plan_ms": ((compiler_mod, ("lifetimes_from_steps",
                                         "plan_memory")),),
    # with the binary-size accounting of what it emitted (compile step 7)
    "codegen.emit_ms": ((compiler_mod, ("kernel_signature", "emit_cpu_kernel",
                                     "emit_accel_layer", "emit_runtime_header",
                                     "emit_network", "compute_size")),),
    "dory.tiler.solve_ms": ((tiler_mod.DoryTiler, ("solve",)),),
}


@dataclass
class Cell:
    model: str
    config: str
    mapping: str
    graph: object
    soc: object
    cfg: object

    @property
    def name(self) -> str:
        return f"{self.model}.{self.config}.{self.mapping}"

    @property
    def expect_oom(self) -> bool:
        # the paper's Table I out-of-memory entry
        return self.model == "mobilenet" and self.config == "cpu-tvm"


@dataclass
class PassLog:
    cold_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    cold_passes: int = 0
    failures: List[str] = field(default_factory=list)


def make_cells(models, l1_budget: Optional[int], seed: int) -> List[Cell]:
    """Build the graphs and platforms of every cell (set-up)."""
    graphs: Dict[tuple, object] = {}
    cells = []
    for model in models:
        for config, (precision, soc_kwargs, base) in CONFIGS.items():
            key = (model, precision)
            if key not in graphs:
                graphs[key] = MLPERF_TINY[model](precision=precision,
                                                 seed=seed)
            soc = get_platform("diana", **soc_kwargs)
            for mapping in MAPPINGS:
                if config == "cpu-tvm" and mapping != "rules":
                    continue
                cfg = base.with_overrides(mapping_strategy=mapping,
                                          l1_budget=l1_budget)
                cells.append(Cell(model, config, mapping, graphs[key], soc,
                                  cfg))
    return cells


def compile_cell(cell: Cell, cache: TilingCache, compile_fn=compile_model):
    """One compile; returns the model, ``None`` for the expected OoM,
    or raises (an unexpected OoM included)."""
    try:
        compiled = compile_fn(cell.graph, cell.soc, cell.cfg, cache=cache)
    except OutOfMemoryError:
        if cell.expect_oom:
            return None
        raise
    if cell.expect_oom:
        raise AssertionError(f"{cell.name}: expected OutOfMemoryError")
    return compiled


def _one_pass(cells: List[Cell], cache: TilingCache, log: List[float],
              failures: List[str], compile_fn=compile_model) -> Dict[str, object]:
    out = {}
    for cell in cells:
        t0 = time.perf_counter()
        try:
            out[cell.name] = compile_cell(cell, cache, compile_fn)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            failures.append(f"compile {cell.name}: {type(exc).__name__}: "
                            f"{exc}")
            out[cell.name] = None
        log.append(time.perf_counter() - t0)
    return out


#: cold compiles a run needs so that ten lie beyond its p90
MIN_COLD = 100


def _same_as_cold(cold: Dict[str, object], warm: Dict[str, object],
                  failures: List[str]) -> None:
    """A warm compile rebuilds its tilings from the cache; it must give
    the deployable of the cold compile, bit for bit."""
    for name, model in cold.items():
        again = warm.get(name)
        if model is None or again is None:
            continue  # expected OoM, or a compile already counted failed
        if again.fingerprint() != model.fingerprint():
            failures.append(f"compile {name}: warm-cache model differs "
                            f"from the cold compile")


def measure(cells: List[Cell], seconds: float, log: PassLog,
            min_cold: int = MIN_COLD) -> Dict[str, object]:
    """Cold + warm passes, appended to ``log``, until ``seconds`` of
    compiling elapsed and at least ``min_cold`` cold compiles were
    timed. Returns the models of the first cold pass. The warm models
    of the log's first pass are checked against their cold counterparts
    (outside the compile timings)."""
    first: Optional[Dict[str, object]] = None
    n0 = len(log.cold_s)
    t_end = time.perf_counter() + seconds
    while first is None or time.perf_counter() < t_end \
            or len(log.cold_s) - n0 < min_cold:
        cache = TilingCache()
        models = _one_pass(cells, cache, log.cold_s, log.failures)
        warm = _one_pass(cells, cache, log.warm_s, log.failures)
        stats = cache.stats()
        log.cache_hits += stats["hits"]
        log.cache_lookups += stats["hits"] + stats["misses"]
        log.cold_passes += 1
        if log.cold_passes == 1:  # once per run: it costs a pass
            _same_as_cold(models, warm, log.failures)
        if first is None:
            first = models
    return first


def _per_s(times: List[float], passes: int) -> tuple:
    """Median over passes of compiles per second, with its note."""
    k = len(times) // passes
    rates = [k / sum(times[i * k:(i + 1) * k]) for i in range(passes)]
    return median(rates), "compiles/s", f"median of {passes} passes of {k}"


def metrics(log: PassLog) -> Dict[str, tuple]:
    """End-to-end compile metrics: name -> (value, unit, note)."""
    cold_ms = [1e3 * s for s in log.cold_s]
    n = len(cold_ms)
    return {
        "compile.cold_per_s": _per_s(log.cold_s, log.cold_passes),
        "compile.cold_p50_ms": (median(cold_ms), "ms", f"n={n}"),
        "compile.cold_p90_ms": (percentile(cold_ms, 90), "ms",
                                f"n={n}, {beyond(n, 90)} beyond"),
        "compile.warm_per_s": _per_s(log.warm_s, log.cold_passes),
    }


def check(cells: List[Cell], models: Dict[str, object], seed: int,
          failures: List[str]) -> Dict[str, float]:
    """Execute every compiled cell once (tiled, the mode that walks
    each DORY tile) and require byte-equality with the reference
    interpreter on the uncompiled graph. Returns the modeled DIANA
    latency (ms) of the Table I (rules) cells."""
    modeled = {}
    for cell in cells:
        compiled = models.get(cell.name)
        if compiled is None:
            continue  # expected OoM, or a compile already counted failed
        feeds = random_inputs(cell.graph, seed=seed)
        try:
            result = Executor(cell.soc, exec_mode="tiled").run(compiled, feeds)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            failures.append(f"execute {cell.name}: {type(exc).__name__}: "
                            f"{exc}")
            continue
        expected = run_reference(cell.graph, feeds)
        if not np.array_equal(np.asarray(result.output),
                              np.asarray(expected)):
            failures.append(f"execute {cell.name}: output differs from "
                            f"the reference interpreter")
        if cell.mapping == "rules":
            modeled[f"{cell.model}.{cell.config}"] = latency_ms(
                result.total_cycles, cell.soc.params)
    return modeled


def soc_metrics(modeled: Dict[str, float]) -> Dict[str, tuple]:
    """Modeled latency per Table I cell and its log error vs the paper."""
    out = {f"soc.modeled_ms.{k}": (v, "ms", "modeled, exact")
           for k, v in sorted(modeled.items())}
    errs = []
    for key, ms in modeled.items():
        model, config = key.split(".")
        ref = paper.TABLE1.get(model, {}).get(config, (None, None, None))[1]
        if ref:
            errs.append(abs(math.log(ms / ref)))
    if errs:
        out["soc.table1_log_err"] = (median(errs), "log",
                                     f"median over {len(errs)} cells")
    return out


def compile_patch(clock: LayerClock) -> Patch:
    return Patch(clock, [(owner, attr, layer)
                         for layer, targets in COMPILE_LAYERS.items()
                         for owner, attrs in targets
                         for attr in attrs])


def cold_pass(cells: List[Cell], clock: Optional[LayerClock] = None) -> None:
    """One cold pass, timed per layer when ``clock`` is given."""
    if clock is None:
        _one_pass(cells, TilingCache(), [], [])
        return
    with compile_patch(clock):
        _one_pass(cells, TilingCache(), [], [],
                  clock.wrap("compile.self_ms", compile_model))


#: largest share of a cold compile's wall time left to ``compile.self_ms``
COVERAGE_SLACK = 0.10


def traced(cells: List[Cell], seconds: float) -> tuple:
    """Per-layer self time of a cold compile, from wrapped calls.

    Returns the metrics and the number of compiles made."""
    cold, warm = LayerClock(), LayerClock()
    compile_cold = cold.wrap("compile.self_ms", compile_model)
    compile_warm = warm.wrap("compile.self_ms", compile_model)
    log = PassLog()
    t_end = time.perf_counter() + seconds
    while log.cold_passes == 0 or time.perf_counter() < t_end:
        cache = TilingCache()
        with compile_patch(cold):
            _one_pass(cells, cache, log.cold_s, log.failures,
                      compile_cold)
        with compile_patch(warm):
            _one_pass(cells, cache, log.warm_s, log.failures,
                      compile_warm)
        stats = cache.stats()
        log.cache_hits += stats["hits"]
        log.cache_lookups += stats["hits"] + stats["misses"]
        log.cold_passes += 1
    if log.failures:
        raise RuntimeError("; ".join(log.failures[:3]))
    n = len(log.cold_s)
    # the named layers must account for the compile: what no wrapper
    # caught (compile.self_ms) stays within COVERAGE_SLACK of the wall
    # time, so a layer whose functions stop being looked up by name
    # shows here rather than as a silently shrinking metric
    named = sum(cold.self_s[name] for name in COMPILE_LAYERS)
    wall = sum(log.cold_s)
    if named < (1.0 - COVERAGE_SLACK) * wall:
        raise RuntimeError(f"compile layers cover {named:.3f}s of "
                           f"{wall:.3f}s compile_model wall time")
    out = {name: (1e3 * cold.self_s[name] / n, "ms",
                  f"self, per cold compile, n={n}")
           for name in (*COMPILE_LAYERS, "compile.self_ms")}
    out["dory.tiler.solves"] = (
        cold.calls["dory.tiler.solve_ms"] / log.cold_passes, "count",
        f"per cold pass of {len(cells)} cells")
    out["core.cache.hit_ratio"] = (log.cache_hits / log.cache_lookups,
                                   "share", "cold + warm passes")
    return out, n + len(log.warm_s)
