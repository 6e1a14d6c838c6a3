"""Native compiled-kernel backend: build cache, loader, executor,
serving, and verifier integration.

The contract under test is the one docs/NATIVE.md states: ``native``
is an *exact* execution mode — byte-identical outputs and identical
modeled performance counters versus ``fast`` and ``tiled`` — that
degrades to ``fast`` (never to wrong answers) whenever the toolchain
or a cached library is missing, stale, or corrupt.
"""

import ctypes
import dataclasses
import os
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.codegen.build as build_mod
from repro.codegen.build import (
    build_native_library, build_stats, find_c_compiler, library_name,
    library_path, load_native_module, native_cache_dir, reset_build_stats,
    source_key,
)
from repro.codegen.native import (
    SUPPORTED_KINDS, emit_kernel, emit_native_sources, full_run_eligible,
    native_step_indices,
)
from repro.core import CompilerConfig, compile_model
from repro.errors import OutOfMemoryError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.ir import GraphBuilder
from repro.runtime import Executor, random_inputs
from repro.runtime.executor import execute_layer_fast
from repro.serve import FleetConfig, ServingFleet, pack_model
from repro.soc import DianaSoC

from helpers import build_small_cnn

HAVE_CC = find_c_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")

#: Table I configurations that target the accelerators (cpu-tvm has no
#: AccelSteps, so the native backend has nothing to compile there).
ACCEL_CONFIGS = [c for c in CONFIGS if c != "cpu-tvm"]


def _compile_cell(model, config):
    precision, soc_kwargs, cfg = CONFIGS[config]
    graph = MLPERF_TINY[model](precision=precision)
    soc = DianaSoC(**soc_kwargs)
    try:
        compiled = compile_model(graph, soc, cfg)
    except OutOfMemoryError:
        pytest.skip(f"{model}/{config} does not fit L2 (Table I OoM)")
    return graph, soc, compiled


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One library cache for the whole module: later cells of the same
    fingerprint reuse earlier builds, like real serving hosts do."""
    return str(tmp_path_factory.mktemp("native-cache"))


# ---------------------------------------------------------------------------
# bit-exactness: the property the whole backend hangs on
# ---------------------------------------------------------------------------

@needs_cc
class TestNativeBitExact:
    """zoo x Table I: native == fast == tiled, outputs and counters."""

    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    @pytest.mark.parametrize("config", ACCEL_CONFIGS)
    def test_zoo_grid(self, model, config, shared_cache):
        graph, soc, compiled = _compile_cell(model, config)
        feeds = random_inputs(graph, seed=11)
        res = {mode: Executor(soc, exec_mode=mode,
                              native_cache_dir=shared_cache)
               .run(compiled, feeds)
               for mode in ("fast", "tiled", "native")}
        np.testing.assert_array_equal(res["native"].output,
                                      res["fast"].output)
        np.testing.assert_array_equal(res["native"].output,
                                      res["tiled"].output)
        assert res["native"].total_cycles == res["fast"].total_cycles
        assert res["native"].total_cycles == res["tiled"].total_cycles
        assert res["native"].l2_peak_bytes == res["fast"].l2_peak_bytes

    def test_batched_equivalence(self, shared_cache):
        graph, soc, compiled = _compile_cell("toyadmos", "digital")
        rng = np.random.default_rng(5)
        single = random_inputs(graph, seed=5)
        feeds = {name: rng.integers(-128, 128,
                                    size=(4,) + arr.shape[1:],
                                    dtype=np.int8)
                 for name, arr in single.items()}
        nat = Executor(soc, exec_mode="native",
                       native_cache_dir=shared_cache)
        fast = Executor(soc, exec_mode="fast")
        np.testing.assert_array_equal(
            nat.run_batch(compiled, feeds).outputs,
            fast.run_batch(compiled, feeds).outputs)

    def test_full_run_path_used_where_eligible(self, shared_cache):
        # toyadmos/digital is all-dense, fully planned: the whole
        # network runs inside one native call
        _, soc, compiled = _compile_cell("toyadmos", "digital")
        idx = native_step_indices(compiled)
        assert full_run_eligible(compiled, frozenset(idx))
        mod = load_native_module(compiled, cache_dir=shared_cache)
        assert mod is not None and mod.has_full_run


class TestDenseConvOnBlas:
    """Dense ``conv2d`` gets no native kernel: native mode runs it on
    the BLAS-backed fast kernel, exactly."""

    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    @pytest.mark.parametrize("config", ACCEL_CONFIGS)
    def test_native_steps_exclude_dense_conv(self, model, config):
        _, _, compiled = _compile_cell(model, config)
        kinds = {compiled.steps[i].spec.kind
                 for i in native_step_indices(compiled)}
        assert "conv2d" not in kinds
        assert kinds <= set(SUPPORTED_KINDS)

    @needs_cc
    def test_conv_step_matches_fast(self, digital_soc, small_cnn,
                                    shared_cache):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        convs = [i for i, step in enumerate(compiled.steps)
                 if getattr(step, "spec", None) is not None
                 and step.spec.kind == "conv2d"]
        assert convs
        mod = load_native_module(compiled, cache_dir=shared_cache)
        assert mod is not None  # the dense and add steps are native
        rng = np.random.default_rng(2)
        for i in convs:
            spec = compiled.steps[i].spec
            x = rng.integers(-128, 128, size=(1, spec.in_channels, spec.iy,
                                              spec.ix), dtype=np.int8)
            assert not mod.step_supported(i)
            assert mod.run_step(i, spec, x) is None
        feeds = random_inputs(small_cnn, seed=4)
        nat = Executor(digital_soc, exec_mode="native",
                       native_cache_dir=shared_cache).run(compiled, feeds)
        fast = Executor(digital_soc, exec_mode="fast").run(compiled, feeds)
        assert nat.output.tobytes() == fast.output.tobytes()
        assert (nat.output.dtype, nat.output.shape) \
            == (fast.output.dtype, fast.output.shape)
        assert [(r.name, r.cycles) for r in nat.perf.records] \
            == [(r.name, r.cycles) for r in fast.perf.records]
        assert nat.total_cycles == fast.total_cycles


# ---------------------------------------------------------------------------
# toolchain fallback
# ---------------------------------------------------------------------------

class TestNoCompilerFallback:
    def test_executor_falls_back_to_fast(self, monkeypatch, tmp_path,
                                         digital_soc, small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        feeds = random_inputs(small_cnn, seed=2)
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # one-time no-compiler warning
            nat = Executor(digital_soc, exec_mode="native",
                           native_cache_dir=str(tmp_path)).run(compiled,
                                                               feeds)
        fast = Executor(digital_soc, exec_mode="fast").run(compiled, feeds)
        np.testing.assert_array_equal(nat.output, fast.output)
        assert nat.total_cycles == fast.total_cycles
        assert not list(tmp_path.glob("*.so"))  # nothing was built

    def test_find_c_compiler_none_without_toolchain(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert find_c_compiler() is None

    def test_build_returns_none_without_compiler(self, monkeypatch,
                                                 tmp_path, digital_soc,
                                                 small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        monkeypatch.setattr("repro.codegen.build.find_c_compiler",
                            lambda: None)
        assert build_native_library(compiled,
                                    cache_dir=str(tmp_path)) is None


# ---------------------------------------------------------------------------
# the on-disk build cache
# ---------------------------------------------------------------------------

@needs_cc
class TestBuildCache:
    def _compiled(self, digital_soc, small_cnn):
        return compile_model(small_cnn, digital_soc, CompilerConfig())

    def test_fingerprint_keyed_reuse(self, tmp_path, digital_soc,
                                     small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        reset_build_stats()
        first = build_native_library(compiled, cache_dir=str(tmp_path))
        again = build_native_library(compiled, cache_dir=str(tmp_path))
        assert first == again == library_path(compiled, str(tmp_path))
        stats = build_stats()
        assert stats["builds"] == 1 and stats["hits"] == 1

    def test_reuse_across_processes(self, tmp_path, digital_soc,
                                    small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        lib = build_native_library(compiled, cache_dir=str(tmp_path))
        mtime = os.path.getmtime(lib)
        # a second process must load the cached library without
        # rebuilding: its stats see one hit, zero builds
        code = (
            "import sys\n"
            "from repro.codegen.build import build_stats, "
            "load_native_module\n"
            "from repro.core import CompilerConfig, compile_model\n"
            "from repro.soc import DianaSoC\n"
            "from helpers import build_small_cnn\n"
            "soc = DianaSoC(enable_analog=False)\n"
            "m = compile_model(build_small_cnn(), soc, CompilerConfig())\n"
            f"mod = load_native_module(m, cache_dir={str(tmp_path)!r})\n"
            "assert mod is not None, 'load failed'\n"
            "s = build_stats()\n"
            "assert s['hits'] == 1 and s['builds'] == 0, s\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(__file__)]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.path.getmtime(lib) == mtime  # untouched

    def test_stale_library_rebuilt(self, tmp_path, digital_soc, small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        fp = compiled.fingerprint()
        lib = library_path(compiled, str(tmp_path))
        # a library whose embedded key is some other model's: proven
        # stale on load, deleted, rebuilt in place
        bad = build_native_library(compiled, cache_dir=str(tmp_path),
                                   fingerprint="f00d" * 16, force=True)
        os.replace(bad, lib)
        with pytest.warns(RuntimeWarning, match="stale native library"):
            mod = load_native_module(compiled, cache_dir=str(tmp_path))
        assert mod is not None
        assert mod.build_key == fp

    def test_corrupt_library_rebuilt(self, tmp_path, digital_soc,
                                     small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        lib = library_path(compiled, str(tmp_path))
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"\x7fNOPE not a shared object")
        os.replace(garbage, lib)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mod = load_native_module(compiled, cache_dir=str(tmp_path))
        assert mod is not None
        assert mod.build_key == compiled.fingerprint()

    def test_concurrent_builds_race_benignly(self, tmp_path, digital_soc,
                                             small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        results, errors = [], []

        def build():
            try:
                results.append(build_native_library(
                    compiled, cache_dir=str(tmp_path), force=True))
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results[0] == results[1] and results[0] is not None
        assert load_native_module(compiled,
                                  cache_dir=str(tmp_path)) is not None

    def test_cflags_change_rebuilds(self, tmp_path, monkeypatch,
                                    digital_soc, small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        feeds = random_inputs(small_cnn, seed=4)
        reset_build_stats()
        first = load_native_module(compiled, cache_dir=str(tmp_path))
        assert first is not None
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-DREPRO_TEST_FLAG=1")
        # the build path sees the cached library as another recipe's
        assert build_native_library(compiled, cache_dir=str(tmp_path))
        assert build_stats()["builds"] == 2
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-DREPRO_TEST_FLAG=2")
        # and so does the load path, also past its in-process memo
        with pytest.warns(RuntimeWarning, match="stale native library"):
            second = load_native_module(compiled, cache_dir=str(tmp_path))
        assert second is not None
        assert build_stats()["builds"] == 3
        assert second.source_key != first.source_key
        nat = Executor(digital_soc, exec_mode="native",
                       native_cache_dir=str(tmp_path)).run(compiled, feeds)
        fast = Executor(digital_soc, exec_mode="fast").run(compiled, feeds)
        np.testing.assert_array_equal(nat.output, fast.output)

    def test_emitter_change_rebuilds(self, tmp_path, monkeypatch,
                                     digital_soc, small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        reset_build_stats()
        lib = build_native_library(compiled, cache_dir=str(tmp_path))
        assert build_native_library(compiled, cache_dir=str(tmp_path)) == lib
        assert build_stats() == {"builds": 1, "hits": 1, "misses": 1,
                                 "failures": 0}
        emit = build_mod.emit_native_sources

        def changed_emitter(model, build_key=None):
            src = emit(model, build_key)
            return dataclasses.replace(
                src, header=src.header + "/* emitter v2 */\n")

        monkeypatch.setattr(build_mod, "emit_native_sources",
                            changed_emitter)
        assert build_native_library(compiled, cache_dir=str(tmp_path)) == lib
        assert build_stats()["builds"] == 2

    def test_source_key_covers_compiler_and_flags(self, monkeypatch,
                                                  digital_soc, small_cnn):
        src = emit_native_sources(
            self._compiled(digital_soc, small_cnn))
        monkeypatch.setitem(build_mod._toolchain_ids, "/x/cc", "/x/cc\nv1")
        monkeypatch.setitem(build_mod._toolchain_ids, "/y/cc", "/y/cc\nv1")
        base = source_key(src, "/x/cc")
        assert source_key(src, "/x/cc") == base
        assert source_key(src, "/y/cc") != base
        monkeypatch.setitem(build_mod._toolchain_ids, "/x/cc", "/x/cc\nv2")
        assert source_key(src, "/x/cc") != base
        monkeypatch.setitem(build_mod._toolchain_ids, "/x/cc", "/x/cc\nv1")
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-march=native")
        assert source_key(src, "/x/cc") != base

    def test_failed_unit_publishes_nothing(self, tmp_path, monkeypatch,
                                           digital_soc):
        """One of several concurrently compiled units fails: no library,
        no build directory, and that unit's diagnostics in the warning."""
        compiled = compile_model(MLPERF_TINY["dscnn"](precision="int8"),
                                 digital_soc, CompilerConfig())
        emit = build_mod.emit_native_sources
        broken = {}

        def broken_emitter(model, build_key=None):
            src = emit(model, build_key)
            sym = sorted(src.kernels)[0]
            broken["sym"] = sym
            kernels = dict(src.kernels)
            kernels[sym] += "#error unit deliberately broken\n"
            return dataclasses.replace(src, kernels=kernels)

        monkeypatch.setattr(build_mod, "emit_native_sources",
                            broken_emitter)
        monkeypatch.setattr(build_mod, "_available_cpus", lambda: 3)
        reset_build_stats()
        with pytest.warns(RuntimeWarning) as caught:
            lib = build_native_library(compiled, cache_dir=str(tmp_path))
        assert lib is None
        msg = "\n".join(str(w.message) for w in caught)
        assert "unit deliberately broken" in msg
        unit = next(name for name, text in broken_emitter(compiled)
                    .units(3, "").items() if broken["sym"] + "(" in text
                    and name.startswith("kernels"))
        assert unit in msg
        assert build_stats()["failures"] == 1
        assert os.listdir(tmp_path) == []
        with pytest.warns(RuntimeWarning):
            assert load_native_module(compiled,
                                      cache_dir=str(tmp_path)) is None
        assert os.listdir(tmp_path) == []

    def test_cache_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        assert native_cache_dir("/elsewhere/model.dna") == str(tmp_path)
        monkeypatch.delenv("REPRO_NATIVE_CACHE")
        assert (native_cache_dir("/elsewhere/model.dna")
                == os.path.realpath("/elsewhere")
                or native_cache_dir("/elsewhere/model.dna") == "/elsewhere")


# ---------------------------------------------------------------------------
# per-artifact isolation
# ---------------------------------------------------------------------------

@needs_cc
class TestSymbolIsolation:
    def test_two_artifacts_one_process(self, tmp_path, digital_soc):
        """Two libraries with identical exported names load side by
        side: every kernel is ``static`` and binding is RTLD_LOCAL."""
        cnn = build_small_cnn(seed=1)
        toy = MLPERF_TINY["toyadmos"](precision="int8")
        a = compile_model(cnn, digital_soc, CompilerConfig())
        b = compile_model(toy, digital_soc, CompilerConfig())
        mod_a = load_native_module(a, cache_dir=str(tmp_path))
        mod_b = load_native_module(b, cache_dir=str(tmp_path))
        assert mod_a is not None and mod_b is not None
        assert mod_a.build_key == a.fingerprint()
        assert mod_b.build_key == b.fingerprint()
        # running through one must not perturb the other
        feeds_a = random_inputs(cnn, seed=1)
        feeds_b = random_inputs(toy, seed=2)

        def run_native(model, feeds):
            return Executor(digital_soc, exec_mode="native",
                            native_cache_dir=str(tmp_path)).run(model, feeds)

        for _ in range(2):  # interleave to catch shared-state bleed
            out_a = run_native(a, feeds_a).output
            out_b = run_native(b, feeds_b).output
        np.testing.assert_array_equal(
            out_a, Executor(digital_soc,
                            exec_mode="fast").run(a, feeds_a).output)
        np.testing.assert_array_equal(
            out_b, Executor(digital_soc,
                            exec_mode="fast").run(b, feeds_b).output)

    def test_only_abi_symbols_exported(self, tmp_path, digital_soc):
        """The dynamic symbol table holds the ``repro_native_*`` ABI and
        nothing else: kernels are hidden, scratch and tables static."""
        compiled = compile_model(MLPERF_TINY["dscnn"](precision="int8"),
                                 digital_soc, CompilerConfig())
        lib = build_native_library(compiled, cache_dir=str(tmp_path))
        assert lib is not None
        handle = ctypes.CDLL(lib)
        for sym in emit_native_sources(compiled).kernels:
            assert not hasattr(handle, sym), f"{sym} is exported"
        assert hasattr(handle, "repro_native_run_step")
        if shutil.which("nm") is None:
            pytest.skip("nm not on PATH")
        proc = subprocess.run(["nm", "-D", "--defined-only", lib],
                              capture_output=True, text=True, check=True)
        exported = [line.split()[-1] for line in proc.stdout.splitlines()
                    if line.strip()]
        assert "repro_native_run_step" in exported
        assert [s for s in exported
                if not s.startswith("repro_native_")] == []


# ---------------------------------------------------------------------------
# emission properties (no toolchain needed)
# ---------------------------------------------------------------------------

class TestEmission:
    def test_build_key_baked_in(self, digital_soc, small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        src = emit_native_sources(compiled).dispatch
        assert compiled.fingerprint() in src
        assert "repro_native_build_key" in src

    def test_units_split_kernels_without_losing_any(self):
        compiled = compile_model(MLPERF_TINY["mobilenet"](precision="int8"),
                                 DianaSoC(enable_analog=False),
                                 CompilerConfig())
        src = emit_native_sources(compiled)
        for n in (1, 2, 3, 64):
            units = src.units(n, "k" * 64)
            kernel_units = [u for u in units if u.startswith("kernels")]
            assert len(kernel_units) == min(n, len(src.kernels))
            for sym in src.kernels:
                owners = [u for u in kernel_units
                          if f"void {sym}(" in units[u]]
                assert len(owners) == 1
            assert '"' + "k" * 64 + '"' in units["native.c"]
        sizes = [len(t) for u, t in src.units(2, "").items()
                 if u.startswith("kernels")]
        assert max(sizes) < 1.5 * min(sizes)  # balanced by size

    def test_library_name_is_fingerprint_keyed(self, digital_soc,
                                               small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        fp = compiled.fingerprint()
        assert library_name(fp).startswith(f"native-{fp[:16]}-abi")


# ---------------------------------------------------------------------------
# one kernel per distinct layer
# ---------------------------------------------------------------------------

def _dwconv_chain(depth: int = 3, channels: int = 16, hw: int = 24):
    """Same-geometry padded depthwise convs: one shared kernel, one
    full run."""
    b = GraphBuilder(name="dwconv_chain", seed=3)
    x = b.input("data", (1, channels, hw, hw), "int8")
    for _ in range(depth):
        x = b.dwconv2d_requant(x, kernel=3, padding=(1, 1))
    return b.finish(x)


class TestKernelDedup:
    def test_dscnn_blocks_share_kernels(self, digital_soc):
        compiled = compile_model(MLPERF_TINY["dscnn"](precision="int8"),
                                 digital_soc, CompilerConfig())
        src = emit_native_sources(compiled)
        # dense conv runs on the BLAS kernel: the four depthwise blocks
        # share one kernel, the classifier has its own
        assert len(src.step_kernels) == 5 and len(src.kernels) == 2
        by_sym = {}
        for i, sym in src.step_kernels.items():
            by_sym.setdefault(sym, []).append(i)
        shared = [idx for idx in by_sym.values() if len(idx) > 1]
        assert shared
        for idx in shared:
            weights = [compiled.steps[i].spec.weight for i in idx]
            assert not all(np.array_equal(weights[0], w)
                           for w in weights[1:])
        # every call site passes its own step's weight/bias slot
        for i, sym in src.step_kernels.items():
            assert f"{sym}((const int8_t*)x, (const int8_t*)y, " \
                   f"(int8_t*)out, n, g_w[{i}], g_bias[{i}]);" in src.dispatch

    @needs_cc
    def test_shared_kernels_bind_their_own_weights(self, digital_soc,
                                                   shared_cache):
        graph = MLPERF_TINY["dscnn"](precision="int8")
        compiled = compile_model(graph, digital_soc, CompilerConfig())
        mod = load_native_module(compiled, cache_dir=shared_cache)
        assert mod is not None
        src = emit_native_sources(compiled)
        counts = {}
        for sym in src.step_kernels.values():
            counts[sym] = counts.get(sym, 0) + 1
        shared = [i for i, sym in src.step_kernels.items() if counts[sym] > 1]
        rng = np.random.default_rng(0)
        for i in shared:
            spec = compiled.steps[i].spec
            accel = digital_soc.accelerator(compiled.steps[i].accel_target)
            x = rng.integers(-128, 128, size=(2, spec.in_channels, spec.iy,
                                              spec.ix), dtype=np.int8)
            np.testing.assert_array_equal(mod.run_step(i, spec, x),
                                          execute_layer_fast(accel, spec, x))
        feeds = random_inputs(graph, seed=8)
        nat = Executor(digital_soc, exec_mode="native",
                       native_cache_dir=shared_cache).run(compiled, feeds)
        fast = Executor(digital_soc, exec_mode="fast").run(compiled, feeds)
        np.testing.assert_array_equal(nat.output, fast.output)
        assert nat.total_cycles == fast.total_cycles

    def test_requant_constants_are_never_merged(self, digital_soc,
                                                small_cnn):
        specs = [step.spec
                 for graph in (small_cnn, _dwconv_chain(depth=1))
                 for step in compile_model(graph, digital_soc,
                                           CompilerConfig()).steps
                 if getattr(step, "spec", None) is not None
                 and step.spec.kind in SUPPORTED_KINDS]
        assert {s.kind for s in specs} == set(SUPPORTED_KINDS)
        for spec in specs:
            sym, _ = emit_kernel(spec)
            w = None if spec.weight is None else spec.weight + 1
            same = dataclasses.replace(spec, name="other", weight=w)
            assert emit_kernel(same)[0] == sym
            for change in ({"shift": spec.shift + 1}, {"relu": not spec.relu},
                           {"out_dtype": "int7" if spec.out_dtype == "int8"
                            else "int8"}):
                other = dataclasses.replace(spec, **change)
                assert emit_kernel(other)[0] != sym, (spec.kind, change)

    @needs_cc
    def test_shared_padding_scratch(self, tmp_path, digital_soc):
        """Steps sharing one padded kernel share its static scratch; the
        module lock and the sequential full run keep that exact."""
        graph = _dwconv_chain()
        compiled = compile_model(graph, digital_soc, CompilerConfig())
        src = emit_native_sources(compiled)
        assert len(set(src.step_kernels.values())) == 1
        assert "_xpad[" in next(iter(src.kernels.values()))
        mod = load_native_module(compiled, cache_dir=str(tmp_path))
        assert mod is not None and mod.has_full_run
        rng = np.random.default_rng(1)
        shape = graph.inputs[0].shape[1:]
        feeds = {"data": rng.integers(-128, 128, size=(3,) + shape,
                                      dtype=np.int8)}
        nat = Executor(digital_soc, exec_mode="native",
                       native_cache_dir=str(tmp_path))
        fast = Executor(digital_soc, exec_mode="fast")
        np.testing.assert_array_equal(
            nat.run_batch(compiled, feeds).outputs,
            fast.run_batch(compiled, feeds).outputs)

        cases = []
        for i, step in enumerate(compiled.steps):
            accel = digital_soc.accelerator(step.accel_target)
            x = rng.integers(-128, 128, size=(1,) + shape, dtype=np.int8)
            cases.append((i, step.spec, x,
                          execute_layer_fast(accel, step.spec, x)))
        errors = []

        def hammer(k):
            for r in range(30):
                i, spec, x, want = cases[(k + r) % len(cases)]
                got = mod.run_step(i, spec, x)
                if got is None or not np.array_equal(got, want):
                    errors.append((k, r, i))

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


# ---------------------------------------------------------------------------
# verifier: the sidecar next to a .dna
# ---------------------------------------------------------------------------

@needs_cc
class TestVerifierSidecar:
    def _pack(self, tmp_path):
        graph = build_small_cnn(hw=8, channels=8)
        soc = DianaSoC(enable_analog=False)
        path = str(tmp_path / "m.dna")
        art = pack_model(graph, soc, CompilerConfig(), path)
        return path, art

    def test_matching_sidecar_is_clean(self, tmp_path):
        from repro.verify import check_artifact_file

        path, art = self._pack(tmp_path)
        build_native_library(art.model, cache_dir=str(tmp_path),
                             fingerprint=art.fingerprint)
        assert check_artifact_file(path) == []

    def test_mismatched_build_key_is_an_error(self, tmp_path):
        from repro.verify import check_artifact_file

        path, art = self._pack(tmp_path)
        bad = build_native_library(art.model, cache_dir=str(tmp_path),
                                   fingerprint="dead" * 16, force=True)
        os.replace(bad, os.path.join(str(tmp_path),
                                     library_name(art.fingerprint)))
        codes = [d.code for d in check_artifact_file(path)]
        assert codes == ["V-ART-010"]

    def test_unloadable_sidecar_is_a_warning(self, tmp_path):
        from repro.verify import check_artifact_file

        path, art = self._pack(tmp_path)
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"not an elf")
        os.replace(str(garbage),
                   os.path.join(str(tmp_path),
                                library_name(art.fingerprint)))
        diags = check_artifact_file(path)
        assert [d.code for d in diags] == ["V-ART-011"]
        assert diags[0].severity.value == "warning"


# ---------------------------------------------------------------------------
# serving: fleet workers degrade, never lose requests
# ---------------------------------------------------------------------------

class TestFleetNativeServing:
    def _artifact(self, tmp_path):
        graph = build_small_cnn(hw=8, channels=8)
        soc = DianaSoC(enable_analog=False)
        path = str(tmp_path / "m.dna")
        pack_model(graph, soc, CompilerConfig(), path)
        feeds = random_inputs(graph, seed=0)
        golden = Executor(soc, exec_mode="fast").run(
            compile_model(graph, soc, CompilerConfig()), feeds).output
        return path, feeds, golden

    def _config(self, **kw):
        kw.setdefault("workers", 1)
        kw.setdefault("tick_s", 0.005)
        kw.setdefault("worker_start_timeout_s", 120.0)
        return FleetConfig(**kw)

    @needs_cc
    def test_native_worker_serves_and_prebuilds(self, tmp_path):
        path, feeds, golden = self._artifact(tmp_path)
        with ServingFleet(self._config(exec_mode="native")) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60.0)
            outs = [fleet.infer(key, feeds, timeout=60.0)
                    for _ in range(3)]
        for out in outs:
            np.testing.assert_array_equal(out, golden)
        # the worker built (or found) the library next to the artifact
        assert any(n.startswith("native-") and n.endswith(".so")
                   for n in os.listdir(tmp_path))

    def test_chaos_worker_without_toolchain_degrades(self, tmp_path,
                                                     monkeypatch):
        """A fleet asked for native on a box with the toolchain
        disabled serves every request correctly via fast — the S-NATIVE
        degradation is reported, nothing is lost."""
        path, feeds, golden = self._artifact(tmp_path)
        # fork-inherited by the worker process: its find_c_compiler()
        # sees a compiler-less host
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with ServingFleet(self._config(exec_mode="native")) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60.0)
            futs = [fleet.submit(key, feeds) for _ in range(8)]
            outs = [f.result(timeout=60.0) for f in futs]
            stats = fleet.stats()[key]
        for out in outs:
            np.testing.assert_array_equal(out, golden)
        assert stats["degraded"] >= 1
        assert stats["completed"] == 8
        assert all(w["exec_mode"] == "fast" for w in stats["workers"]
                   if w["exec_mode"] is not None)
        assert not any(n.endswith(".so") for n in os.listdir(tmp_path))
