"""Build, cache, and load the native shared library for a model.

The compile-once/serve-many split, taken to machine code: the first
process that needs a model's native backend compiles the emitted units
(:func:`repro.codegen.native.emit_native_sources`) with the system C
compiler into ``native-<fp16>-abi<N>.so`` next to the ``.dna`` (or in
``$REPRO_NATIVE_CACHE`` / ``~/.cache/repro/native``); every later
process — a fleet worker, a CLI run, a benchmark — just ``dlopen``\\ s
the cached file. The distinct kernels are spread by size over one unit
per available CPU; the units and the dispatch unit compile
concurrently (``-c``) and are linked once.

Persistence discipline mirrors :class:`repro.core.cache.TilingCache`:
build into a private ``tempfile.mkdtemp`` inside the cache directory,
then ``os.replace`` the finished library into place. Concurrent
builders race benignly — emission is deterministic in the fingerprint,
so both produce equivalent libraries and the loser's ``os.replace``
is a no-op overwrite. Staleness is proven, not assumed: the artifact
fingerprint (``repro_native_build_key``) and a hash of the emitted
sources, compiler and flags (``repro_native_source_key``,
:func:`source_key`) are baked into the library and re-checked after
every ``dlopen``; a mismatched or unloadable library is deleted and
rebuilt once, then given up on (``None`` → the caller falls back to
the ``fast`` interpreter). A host without a compiler cannot rebuild,
so there only the build key is checked.

Binding goes through :mod:`cffi` when importable, :mod:`ctypes`
otherwise — both are stdlib-or-baked-in; no new dependencies.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .native import (
    NATIVE_ABI_VERSION,
    NativeSources,
    emit_native_sources,
    native_step_indices,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle: core imports codegen
    from ..core.program import CompiledModel

#: set to ``1`` to disable the native toolchain entirely (kill switch;
#: inherited over fork, which is how the fleet chaos tests simulate a
#: worker box without a compiler).
DISABLE_ENV = "REPRO_NATIVE_DISABLE"

#: overrides the default library cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: extra compiler flags appended to the default set (space-separated).
CFLAGS_ENV = "REPRO_NATIVE_CFLAGS"

_BASE_CFLAGS = ("-O3", "-fPIC", "-std=c11")

_CC_TIMEOUT_S = 180.0

_stats_lock = threading.Lock()
_STATS = {"builds": 0, "hits": 0, "misses": 0, "failures": 0}

_warned_no_compiler = False

_find_cache: Dict[tuple, Optional[str]] = {}

_toolchain_ids: Dict[str, str] = {}

_load_lock = threading.Lock()
_LOADED: Dict[str, "NativeModule"] = {}


class NativeLibraryError(RuntimeError):
    """A cached library exists but cannot serve this model (wrong ABI,
    wrong build key, missing symbols, or dlopen failure)."""


def build_stats() -> Dict[str, int]:
    with _stats_lock:
        return dict(_STATS)


def reset_build_stats() -> None:
    with _stats_lock:
        for k in _STATS:
            _STATS[k] = 0


def _bump(key: str) -> None:
    with _stats_lock:
        _STATS[key] += 1


def find_c_compiler() -> Optional[str]:
    """Locate a usable C compiler ($CC, then cc/gcc/clang on PATH).

    Returns the absolute executable path, or ``None`` when the host has
    no toolchain (or ``REPRO_NATIVE_DISABLE=1``). The result is
    memoized per relevant environment, and the no-compiler case warns
    exactly once per process — callers then silently fall back to the
    ``fast`` interpreter.
    """
    global _warned_no_compiler
    key = (os.environ.get(DISABLE_ENV, ""), os.environ.get("CC", ""),
           os.environ.get("PATH", ""))
    if key in _find_cache:
        return _find_cache[key]
    found: Optional[str] = None
    if key[0] != "1":
        candidates: List[str] = []
        if key[1]:
            candidates.append(key[1])
        candidates += ["cc", "gcc", "clang"]
        for cand in candidates:
            path = shutil.which(cand)
            if path:
                found = path
                break
    _find_cache[key] = found
    if found is None and not _warned_no_compiler:
        _warned_no_compiler = True
        why = ("native backend disabled via %s=1" % DISABLE_ENV
               if key[0] == "1" else
               "no C compiler found ($CC, cc, gcc, clang)")
        warnings.warn(
            "%s; exec_mode='native' will fall back to the 'fast' "
            "interpreter" % why, RuntimeWarning, stacklevel=2)
    return found


def native_cache_dir(artifact_path: Optional[str] = None) -> str:
    """Where native libraries live: ``$REPRO_NATIVE_CACHE`` wins, else
    next to the artifact, else ``~/.cache/repro/native``."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    if artifact_path:
        return os.path.dirname(os.path.abspath(artifact_path)) or "."
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def library_name(fingerprint: str) -> str:
    """Cache file name for a compiled model's native library."""
    return "native-%s-abi%d.so" % (fingerprint[:16], NATIVE_ABI_VERSION)


def library_path(model: CompiledModel, cache_dir: Optional[str] = None,
                 fingerprint: Optional[str] = None) -> str:
    if fingerprint is None:
        fingerprint = model.fingerprint()
    return os.path.join(cache_dir or native_cache_dir(),
                        library_name(fingerprint))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _cflags() -> List[str]:
    return list(_BASE_CFLAGS) + os.environ.get(CFLAGS_ENV, "").split()


def _toolchain_id(compiler: str) -> str:
    """``compiler``'s path plus its ``--version`` banner, queried once
    per process and compiler."""
    ident = _toolchain_ids.get(compiler)
    if ident is None:
        try:
            banner = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=_CC_TIMEOUT_S).stdout
        except (OSError, subprocess.TimeoutExpired) as exc:
            banner = "no version (%s)" % exc
        ident = _toolchain_ids.setdefault(compiler,
                                          "%s\n%s" % (compiler, banner))
    return ident


def source_key(sources: NativeSources, compiler: str) -> str:
    """Hash of everything that decides a library's bytes: the emitted
    sources (build key included), the ABI, the compiler and the flags.
    Baked into the library; a cached library with another source key
    is stale and gets rebuilt."""
    h = hashlib.sha256()
    for part in (sources.digest(), str(NATIVE_ABI_VERSION),
                 _toolchain_id(compiler), "\0".join(_cflags())):
        h.update(part.encode() + b"\0")
    return h.hexdigest()


def build_native_library(model: CompiledModel,
                         cache_dir: Optional[str] = None,
                         compiler: Optional[str] = None,
                         force: bool = False,
                         fingerprint: Optional[str] = None) -> Optional[str]:
    """Compile (or reuse) the cached shared library for ``model``.

    A cached library is reused only when its build key and source key
    match what this host would build. Returns the library path, or
    ``None`` when no compiler is available or compilation fails —
    never raises for toolchain problems.
    """
    if fingerprint is None:
        fingerprint = model.fingerprint()
    lib = library_path(model, cache_dir, fingerprint)
    if compiler is None:
        compiler = find_c_compiler()
    if compiler is None:
        # a toolchain-less host can still use a library built elsewhere
        if not force and os.path.exists(lib):
            _bump("hits")
            return lib
        _bump("misses")
        return None
    sources = emit_native_sources(model, build_key=fingerprint)
    key = source_key(sources, compiler)
    if not force and _library_keys(lib) == (fingerprint, key):
        _bump("hits")
        return lib
    _bump("misses")
    return _compile(lib, sources, key, compiler)


def _compile(lib: str, sources: NativeSources, key: str,
             compiler: str) -> Optional[str]:
    """Compile the units in parallel, link once, publish atomically."""
    parent = os.path.dirname(lib) or "."
    os.makedirs(parent, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=".native-build-", dir=parent)
    try:
        units = sources.units(_available_cpus(), key)
        for name, text in units.items():
            with open(os.path.join(tmpdir, name), "w") as fh:
                fh.write(text)
        c_units = sorted(n for n in units if n.endswith(".c"))
        objs = [n[:-2] + ".o" for n in c_units]
        flags = _cflags()

        def cc(args: List[str], what: str) -> Optional[str]:
            try:
                proc = subprocess.run([compiler] + flags + args, cwd=tmpdir,
                                      capture_output=True, text=True,
                                      timeout=_CC_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as exc:
                return "failed to run %r on %s: %s" % (compiler, what, exc)
            if proc.returncode != 0:
                return "%s exit %d on %s:\n%s" % (
                    compiler, proc.returncode, what,
                    proc.stderr.strip()[-2000:])
            return None

        with ThreadPoolExecutor(max_workers=len(c_units)) as pool:
            errors = list(pool.map(
                lambda u: cc(["-c", "-o", u[0], u[1]], u[1]),
                zip(objs, c_units)))
        err = next((e for e in errors if e), None)
        if err is None:
            err = cc(["-shared", "-o", "native.so"] + objs, "link")
        if err is not None:
            _bump("failures")
            warnings.warn("native build failed (%s)" % err, RuntimeWarning)
            return None
        # atomic publish: concurrent builders emit identical semantics
        # for the same fingerprint, so last-writer-wins is safe
        os.replace(os.path.join(tmpdir, "native.so"), lib)
        _bump("builds")
        return lib
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _library_keys(path: str) -> Optional[Tuple[str, str]]:
    """``(build key, source key)`` of the library at ``path``, or
    ``None`` when it is missing, unloadable or of another ABI."""
    if not os.path.exists(path):
        return None
    try:
        binding = _open_binding(path)
    except NativeLibraryError:
        return None
    if binding.abi != NATIVE_ABI_VERSION:
        return None
    return binding.build_key, binding.source_key


# ---------------------------------------------------------------------------
# bindings
# ---------------------------------------------------------------------------

_CDEF = """
int32_t repro_native_abi(void);
const char* repro_native_build_key(void);
const char* repro_native_source_key(void);
int32_t repro_native_num_steps(void);
int32_t repro_native_step_supported(int32_t idx);
int32_t repro_native_set_weights(int32_t idx, const void* w,
                                 const void* bias);
int32_t repro_native_run_step(int32_t idx, const void* x, const void* y,
                              void* out, int32_t n);
int32_t repro_native_has_full_run(void);
int32_t repro_native_run(const void* const* inputs, void* output,
                         int32_t n);
"""

try:  # pragma: no cover - exercised via whichever binding is present
    import cffi  # type: ignore

    _FFI = cffi.FFI()
    _FFI.cdef(_CDEF)
except Exception:  # pragma: no cover
    cffi = None
    _FFI = None


class _CffiBinding:
    """cffi-backed binding; all pointer arguments are integer addresses."""

    def __init__(self, path: str):
        assert _FFI is not None
        try:
            self._lib = _FFI.dlopen(path)
            self.abi = int(self._lib.repro_native_abi())
        except Exception as exc:
            raise NativeLibraryError("dlopen failed: %s" % exc) from exc
        try:
            self.build_key = self._string(self._lib.repro_native_build_key)
            self.source_key = self._string(
                self._lib.repro_native_source_key)
        except AttributeError as exc:
            raise NativeLibraryError("missing symbol: %s" % exc) from exc
        self.num_steps = int(self._lib.repro_native_num_steps())
        self.has_full_run = bool(self._lib.repro_native_has_full_run())

    @staticmethod
    def _string(fn) -> str:
        return _FFI.string(fn()).decode("ascii")

    def _p(self, addr: int):
        return _FFI.cast("void *", addr)

    def step_supported(self, idx: int) -> bool:
        return bool(self._lib.repro_native_step_supported(idx))

    def set_weights(self, idx: int, waddr: int, baddr: int) -> int:
        return int(self._lib.repro_native_set_weights(
            idx, self._p(waddr), self._p(baddr)))

    def run_step(self, idx: int, xaddr: int, yaddr: int, oaddr: int,
                 n: int) -> int:
        return int(self._lib.repro_native_run_step(
            idx, self._p(xaddr), self._p(yaddr), self._p(oaddr), n))

    def run(self, in_addrs: Sequence[int], oaddr: int, n: int) -> int:
        arr = _FFI.new("const void*[]",
                       [self._p(a) for a in in_addrs])
        return int(self._lib.repro_native_run(arr, self._p(oaddr), n))


class _CtypesBinding:
    """ctypes fallback with the same address-based surface."""

    def __init__(self, path: str):
        import ctypes

        self._ct = ctypes
        try:
            self._lib = ctypes.CDLL(path)
            fn = self._bind("repro_native_abi", [], ctypes.c_int32)
            self.abi = int(fn())
        except (OSError, AttributeError) as exc:
            raise NativeLibraryError("dlopen failed: %s" % exc) from exc
        self.build_key, self.source_key = (
            (self._bind(name, [], ctypes.c_char_p)() or b"").decode("ascii")
            for name in ("repro_native_build_key",
                         "repro_native_source_key"))
        self.num_steps = int(
            self._bind("repro_native_num_steps", [], ctypes.c_int32)())
        self.has_full_run = bool(
            self._bind("repro_native_has_full_run", [], ctypes.c_int32)())
        self._supported = self._bind(
            "repro_native_step_supported", [ctypes.c_int32], ctypes.c_int32)
        self._set_w = self._bind(
            "repro_native_set_weights",
            [ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p],
            ctypes.c_int32)
        self._run_step = self._bind(
            "repro_native_run_step",
            [ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_int32], ctypes.c_int32)
        self._run = self._bind(
            "repro_native_run",
            [ctypes.POINTER(ctypes.c_void_p), ctypes.c_void_p,
             ctypes.c_int32], ctypes.c_int32)

    def _bind(self, name: str, argtypes, restype):
        try:
            fn = getattr(self._lib, name)
        except AttributeError as exc:
            raise NativeLibraryError("missing symbol %s" % name) from exc
        fn.argtypes = argtypes
        fn.restype = restype
        return fn

    def step_supported(self, idx: int) -> bool:
        return bool(self._supported(idx))

    def set_weights(self, idx: int, waddr: int, baddr: int) -> int:
        return int(self._set_w(idx, waddr or None, baddr or None))

    def run_step(self, idx: int, xaddr: int, yaddr: int, oaddr: int,
                 n: int) -> int:
        return int(self._run_step(idx, xaddr or None, yaddr or None,
                                  oaddr or None, n))

    def run(self, in_addrs: Sequence[int], oaddr: int, n: int) -> int:
        ct = self._ct
        arr = (ct.c_void_p * len(in_addrs))(*[a or None for a in in_addrs])
        return int(self._run(arr, oaddr, n))


def _open_binding(path: str):
    """dlopen ``path`` through a unique hard link.

    glibc caches loaded objects by pathname, so dlopening a path whose
    file was just replaced (stale-library rebuild, concurrent builder
    winning the ``os.replace`` race) would silently return the *old*
    mapping. A uniquely named hard link to the current inode defeats
    the name cache while costing nothing; the link is removed as soon
    as the handle is open. Falls back to the plain path where hard
    links are unavailable.
    """
    cls = _CffiBinding if _FFI is not None else _CtypesBinding
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        st = os.stat(path)
        link = os.path.join(
            d, ".%s.ino%d-pid%d" % (os.path.basename(path), st.st_ino,
                                    os.getpid()))
        if not os.path.exists(link):
            os.link(path, link)
    except OSError:
        return cls(path)
    try:
        return cls(link)
    finally:
        try:
            os.unlink(link)
        except OSError:
            pass


def open_native_build_key(path: str) -> str:
    """Load a native library just far enough to read its build key.

    Raises :class:`NativeLibraryError` when the library cannot be
    opened or does not export the expected ABI surface (the verifier
    turns that into a warning, not an error — an unloadable sidecar
    only costs the fast-path fallback).
    """
    binding = _open_binding(path)
    if binding.abi != NATIVE_ABI_VERSION:
        raise NativeLibraryError(
            "ABI mismatch: library has %d, runtime expects %d"
            % (binding.abi, NATIVE_ABI_VERSION))
    return binding.build_key


class NativeModule:
    """A loaded per-artifact native library bound to a model's weights.

    Thread-safe: a single lock serializes calls into the library
    because kernels share ``static`` scratch (padding buffers, which
    steps bound to one kernel also share, and the full-run arena) and
    the weight-pointer table. ``source_key`` (:func:`source_key`), when
    given, must match the library's.
    """

    def __init__(self, path: str, model: CompiledModel,
                 fingerprint: Optional[str] = None,
                 source_key: Optional[str] = None):
        if fingerprint is None:
            fingerprint = model.fingerprint()
        self.path = path
        self._lock = threading.Lock()
        self._bind = _open_binding(path)
        if self._bind.abi != NATIVE_ABI_VERSION:
            raise NativeLibraryError(
                "ABI mismatch: library %d, runtime %d"
                % (self._bind.abi, NATIVE_ABI_VERSION))
        if self._bind.build_key != fingerprint:
            raise NativeLibraryError(
                "stale native library: build key %s.. != fingerprint %s.."
                % (self._bind.build_key[:16], fingerprint[:16]))
        if source_key is not None and self._bind.source_key != source_key:
            raise NativeLibraryError(
                "stale native library: source key %s.. != %s.. (other "
                "sources, compiler or flags)"
                % (self._bind.source_key[:16], source_key[:16]))
        if self._bind.num_steps != len(model.steps):
            raise NativeLibraryError("step count mismatch")
        self.build_key = fingerprint
        self.source_key = self._bind.source_key
        self.num_steps = self._bind.num_steps
        self.has_full_run = self._bind.has_full_run
        self.native_idx = frozenset(native_step_indices(model))
        self._keepalive: Dict[int, tuple] = {}
        self.register_weights(model)

    def register_weights(self, model: CompiledModel) -> None:
        """(Re)bind weight/bias pointers; keeps the arrays alive for
        the lifetime of this module."""
        keep: Dict[int, tuple] = {}
        with self._lock:
            for i in sorted(self.native_idx):
                spec = model.steps[i].spec
                w = None
                if spec.weight is not None:
                    w = np.ascontiguousarray(spec.weight, dtype=np.int8)
                b = None
                if spec.bias is not None:
                    b = np.ascontiguousarray(spec.bias, dtype=np.int32)
                keep[i] = (w, b)
                rc = self._bind.set_weights(
                    i, w.ctypes.data if w is not None else 0,
                    b.ctypes.data if b is not None else 0)
                if rc != 0:
                    raise NativeLibraryError(
                        "set_weights(%d) returned %d" % (i, rc))
            self._keepalive = keep

    def step_supported(self, idx: int) -> bool:
        return idx in self.native_idx

    def run_step(self, idx: int, spec, x: np.ndarray,
                 y: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Execute one step natively; returns the int8 output, or
        ``None`` when the arguments don't match the compiled geometry
        (caller falls back to the interpreter)."""
        if idx not in self.native_idx:
            return None
        if x.dtype != np.int8 or (y is not None and y.dtype != np.int8):
            return None
        if spec.kind in ("conv2d", "dwconv2d"):
            per_shape = (spec.in_channels, spec.iy, spec.ix)
            out_tail = (spec.out_channels, spec.oy, spec.ox)
        elif spec.kind == "dense":
            per_shape = (spec.in_channels,)
            out_tail = (spec.out_channels,)
        elif spec.kind == "add":
            if y is None or y.shape != x.shape:
                return None
            per = spec.in_channels * spec.oy * spec.ox
            if x.size == 0 or x.size % per:
                return None
            per_shape = None
            out_tail = None
        else:
            return None
        if per_shape is not None:
            nd = len(per_shape)
            if x.ndim == nd:
                n, out_shape = 1, out_tail
            elif x.ndim == nd + 1:
                n, out_shape = x.shape[0], (x.shape[0],) + out_tail
            else:
                return None
            if x.shape[-nd:] != per_shape or n <= 0:
                return None
        else:
            per = spec.in_channels * spec.oy * spec.ox
            n, out_shape = x.size // per, x.shape
        x = np.ascontiguousarray(x)
        yaddr = 0
        if spec.kind == "add":
            y = np.ascontiguousarray(y)
            yaddr = y.ctypes.data
        out = np.empty(out_shape, dtype=np.int8)
        with self._lock:
            rc = self._bind.run_step(idx, x.ctypes.data, yaddr,
                                     out.ctypes.data, int(n))
        return out if rc == 0 else None

    def run_full(self, inputs: List[np.ndarray], out_elems: int,
                 n: int) -> Optional[np.ndarray]:
        """Whole-network execution: ``inputs`` are contiguous int8
        arrays of ``n`` samples each; returns ``(n, out_elems)`` int8
        or ``None`` when the library has no full-run entry point."""
        if not self.has_full_run or n <= 0:
            return None
        ins = [np.ascontiguousarray(a) for a in inputs]
        if any(a.dtype != np.int8 for a in ins):
            return None
        out = np.empty((n, out_elems), dtype=np.int8)
        with self._lock:
            rc = self._bind.run([a.ctypes.data for a in ins],
                                out.ctypes.data, int(n))
        return out if rc == 0 else None


def load_native_module(model: CompiledModel,
                       cache_dir: Optional[str] = None,
                       build: bool = True) -> Optional[NativeModule]:
    """Build-or-load the native module for ``model``.

    Returns ``None`` (never raises) when the host has no toolchain, the
    build fails, or a cached library is stale and cannot be rebuilt —
    callers treat ``None`` as "use the fast interpreter".
    A stale or unloadable cached library is deleted and rebuilt once.
    """
    if not native_step_indices(model):
        return None
    fingerprint = model.fingerprint()
    lib = library_path(model, cache_dir, fingerprint)
    compiler = find_c_compiler()
    sources, key = None, None
    if compiler is not None:
        sources = emit_native_sources(model, build_key=fingerprint)
        key = source_key(sources, compiler)

    def rebuild() -> bool:
        if not build:
            return False
        _bump("misses")
        return (compiler is not None and sources is not None
                and key is not None
                and _compile(lib, sources, key, compiler) is not None)

    if not os.path.exists(lib):
        if not rebuild():
            return None
    else:
        _bump("hits")
    real = os.path.realpath(lib)
    with _load_lock:
        mod = _LOADED.get(real)
        if (mod is not None and mod.build_key == fingerprint
                and key in (None, mod.source_key)):
            mod.register_weights(model)
            return mod
        try:
            mod = NativeModule(lib, model, fingerprint, key)
        except NativeLibraryError as exc:
            warnings.warn("discarding stale native library %s (%s)"
                          % (lib, exc), RuntimeWarning)
            try:
                os.unlink(lib)
            except OSError:
                pass
            if not rebuild():
                return None
            try:
                mod = NativeModule(lib, model, fingerprint, key)
            except NativeLibraryError:
                return None
        _LOADED[real] = mod
        return mod
