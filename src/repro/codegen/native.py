"""Exact C kernels for the native compiled execution backend.

The C sources the compiler has always persisted (``cpu.py``,
``dory/codegen.py``) are *size-model* artifacts: representative loop
nests whose byte count feeds Table I, not code whose arithmetic matches
the simulator. This module emits the other half — kernels whose
integer semantics are **bit-exact** against :mod:`repro.numerics` — so
a ``.dna`` artifact can be compiled with the system C compiler and
served natively (``exec_mode="native"``).

One library per compiled model, emitted as :class:`NativeSources` and
split into translation units by the build layer:

* one kernel per *distinct* accelerator layer (``conv2d``,
  ``dwconv2d``, ``dense``, ``add``) replicating the accumulate → bias
  → round-half-up shift → clip → int8 tail of
  :func:`repro.numerics.requantize_acc` / ``bias_requantize``. Weights
  and bias are arguments and the symbol is a hash of the body, so
  repeated blocks share one kernel; kernels have hidden visibility,
* a dispatch unit (``native.c``) with the per-step weight table and
  the stable exported ABI (``repro_native_*``, the only exported
  symbols, so two artifacts load into one process without clashes),
* when *every* step is native-eligible, a whole-network entry point
  (``repro_native_run``) that walks the L2 memory plan's static arena —
  the paper's "single C function that executes all kernels
  sequentially" made executable.

Exactness argument (all paths verified property-style in
``tests/test_native.py``):

* int8×int8 products are bounded by ``2**14``, so a reduction of ``R``
  taps is bounded by ``R << 14``; when that fits int32 the kernel
  accumulates in plain ``int32_t`` (no overflow, hence no UB) and the
  result equals numpy's exact accumulator. Wider reductions accumulate
  in ``int64_t`` and narrow mod ``2**32`` — identical to numpy's
  ``_to_int32``.
* the requant tail adds ``bias + rnd`` with two's-complement wraparound
  (``RQ_WRAP_ADD``, via unsigned arithmetic — defined behaviour),
  arithmetic-shifts, clips to the out-dtype range (int7 → [-64, 63])
  with ReLU folded into the lower bound — exactly
  ``bias_requantize``. Arithmetic ``>>`` on negative values and
  modular unsigned→signed conversion are gcc/clang-defined, which is
  what the build layer invokes.

CPU steps (softmax, pooling, reshape) are *never* emitted: softmax is
float32 and C ``expf`` is not bit-stable against numpy, so those steps
always run through the Python fast path (per-step fallback in the
executor).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..dory.layer_spec import LayerSpec
from .c_writer import CWriter
from .runtime_glue import _c_ident

if TYPE_CHECKING:  # pragma: no cover - import cycle: core imports codegen
    from ..core.program import CompiledModel

#: bumped whenever the exported symbol set or calling convention
#: changes; baked into the library and checked at load time.
NATIVE_ABI_VERSION = 2

#: accelerator step kinds the emitter covers.
SUPPORTED_KINDS = ("conv2d", "dwconv2d", "dense", "add")

#: largest MAC reduction length safe for a plain int32 accumulator:
#: |int8 * int8| <= 2**14 per tap, so R taps are bounded by R << 14,
#: which must stay below 2**31.
INT32_SAFE_REDUCTION = ((1 << 31) - 1) >> 14

#: int8-storage dtypes (what the executor materializes buffers in).
_I8_DTYPES = ("int8", "int7")


def _reduction(spec: LayerSpec) -> int:
    if spec.kind == "dense":
        return spec.in_channels
    cg = 1 if spec.kind == "dwconv2d" else spec.in_channels
    return cg * spec.fy * spec.fx


def _step_native_ok(step) -> bool:
    """Can this step be lowered to an exact native kernel?"""
    from ..core.program import AccelStep

    if not isinstance(step, AccelStep) or step.spec is None:
        return False
    spec = step.spec
    if spec.kind not in SUPPORTED_KINDS:
        return False
    if spec.in_dtype not in _I8_DTYPES or spec.out_dtype not in _I8_DTYPES:
        return False
    if spec.shift < 0 or spec.shift > 31:
        return False
    if spec.kind != "add":
        if spec.weight is None:
            return False
        if spec.kind == "dwconv2d" and spec.groups != spec.in_channels:
            return False
        if spec.kind == "conv2d" and spec.groups != 1:
            return False
    return True


def native_step_indices(model: CompiledModel) -> List[int]:
    """Step indices the native backend executes in C.

    Depth-first chain members are excluded: chains execute patch-wise
    in every mode (they are part of the compiled program), so their
    layers keep the Python patch pipeline.
    """
    in_chain = set()
    for ch in model.depthfirst_chains:
        in_chain.update(range(ch.start, ch.stop))
    return [i for i, step in enumerate(model.steps)
            if i not in in_chain and _step_native_ok(step)]


def _buffer_elems(model: CompiledModel, name: str) -> Optional[int]:
    buf = model.buffers.get(name)
    if buf is None or buf.ttype.dtype.name not in _I8_DTYPES:
        return None
    return buf.ttype.num_elements


def full_run_eligible(model: CompiledModel,
                      native_idx: Optional[List[int]] = None) -> bool:
    """True when the whole network can run as one C call over the
    planned arena: every step native, no fused chains, every step
    output planned inside the arena, and buffer layouts matching the
    kernels' flat NCHW expectations."""
    if native_idx is None:
        native_idx = native_step_indices(model)
    if model.depthfirst_chains or len(native_idx) != len(model.steps):
        return False
    plan = model.memory_plan
    for step in model.steps:
        spec = step.spec
        out_elems = _buffer_elems(model, step.output_name)
        in_elems = [_buffer_elems(model, n) for n in step.input_names]
        if out_elems is None or any(e is None for e in in_elems):
            return False
        if spec.kind in ("conv2d", "dwconv2d"):
            if in_elems[0] != spec.in_channels * spec.iy * spec.ix:
                return False
            if out_elems != spec.out_channels * spec.oy * spec.ox:
                return False
        elif spec.kind == "dense":
            if in_elems[0] != spec.in_channels or out_elems != spec.out_channels:
                return False
        else:  # add
            elems = spec.in_channels * spec.oy * spec.ox
            if out_elems != elems or any(e != elems for e in in_elems):
                return False
        off = plan.offsets.get(step.output_name)
        if off is None or off < 0:
            return False
        if off + model.buffers[step.output_name].size_bytes > plan.arena_bytes:
            return False
    return True


# ---------------------------------------------------------------------------
# kernel emission
# ---------------------------------------------------------------------------

#: stands in for the kernel's symbol until its body has been hashed.
_SYM = "REPRO_KERNEL_SYM"

_KERNEL_PARAMS = ("const int8_t* restrict x, const int8_t* y, "
                  "int8_t* restrict out, int32_t n, "
                  "const int8_t* restrict wgt, const int32_t* bias")


def _requant_consts(spec: LayerSpec):
    lo, hi = (-64, 63) if spec.out_dtype == "int7" else (-128, 127)
    if spec.relu:
        lo = max(lo, 0)
    rnd = (1 << (spec.shift - 1)) if spec.shift > 0 else 0
    return lo, hi, rnd


def _open_kernel(w: CWriter, spec: LayerSpec, uses_wgt: bool,
                 uses_y: bool):
    w.open(f"REPRO_HIDDEN void {_SYM}({_KERNEL_PARAMS})")
    unused = [name for name, used in (("y", uses_y), ("wgt", uses_wgt),
                                      ("bias", spec.bias is not None))
              if not used]
    if unused:
        w.line(" ".join(f"(void){name};" for name in unused))


def _emit_badd(w: CWriter, spec: LayerSpec, ch_var: str):
    """``badd = bias[ch] + rnd`` with int32 wraparound (bias_requantize
    folds the rounding term into the per-channel bias add)."""
    _, _, rnd = _requant_consts(spec)
    if spec.bias is not None:
        w.line(f"const int32_t badd = RQ_WRAP_ADD(bias[{ch_var}], {rnd});")
    else:
        w.line(f"const int32_t badd = {rnd};")


def _emit_tail(w: CWriter, spec: LayerSpec, acc_expr: str, acc64: bool,
               dst: str):
    lo, hi, _ = _requant_consts(spec)
    narrowed = f"RQ_NARROW64({acc_expr})" if acc64 else f"(int32_t)({acc_expr})"
    w.line(f"int32_t v = RQ_WRAP_ADD({narrowed}, badd);")
    if spec.shift > 0:
        w.line(f"v = v >> {spec.shift};")
    w.line(f"if (v < {lo}) v = {lo}; else if (v > {hi}) v = {hi};")
    w.line(f"{dst} = (int8_t)v;")


def _emit_conv_kernel(w: CWriter, spec: LayerSpec):
    dw = spec.kind == "dwconv2d"
    C, K = spec.in_channels, spec.out_channels
    IY, IX, OY, OX = spec.iy, spec.ix, spec.oy, spec.ox
    FY, FX = spec.fy, spec.fx
    SY, SX = spec.strides
    PY, PX = spec.padding
    IYP, IXP = IY + 2 * PY, IX + 2 * PX
    acc64 = _reduction(spec) > INT32_SAFE_REDUCTION
    acc_t = "int64_t" if acc64 else "int32_t"
    padded = PY > 0 or PX > 0

    w.comment(f"{spec.kind} C={C} K={K} {IY}x{IX} -> {OY}x{OX} "
              f"f={FY}x{FX} s={SY},{SX} p={PY},{PX} shift={spec.shift}")
    if padded:
        # shared by every step bound to this kernel: steps run one at
        # a time (NativeModule's lock, the sequential full run)
        w.line(f"static int8_t {_SYM}_xpad[{C * IYP * IXP}];")
    _open_kernel(w, spec, uses_wgt=True, uses_y=False)
    w.open("for (int32_t b = 0; b < n; ++b)")
    w.line(f"const int8_t* xb = x + (int64_t)b * {C * IY * IX};")
    w.line(f"int8_t* ob = out + (int64_t)b * {K * OY * OX};")
    if padded:
        # zero-padded scratch copy: the hot loops below then need no
        # bounds checks, which is what lets -O3 vectorize the ox loop
        w.line(f"memset({_SYM}_xpad, 0, sizeof {_SYM}_xpad);")
        w.open(f"for (int32_t c = 0; c < {C}; ++c)")
        w.open(f"for (int32_t iy = 0; iy < {IY}; ++iy)")
        w.line(f"memcpy({_SYM}_xpad + ((int64_t)c * {IYP} + iy + {PY}) "
               f"* {IXP} + {PX}, xb + ((int64_t)c * {IY} + iy) * {IX}, "
               f"{IX});")
        w.close().close()
        w.line(f"const int8_t* xs = {_SYM}_xpad;")
    else:
        w.line("const int8_t* xs = xb;")
    w.open(f"for (int32_t k = 0; k < {K}; ++k)")
    _emit_badd(w, spec, "k")
    w.open(f"for (int32_t oy = 0; oy < {OY}; ++oy)")
    w.line(f"{acc_t} acc[{OX}] = {{0}};")
    if dw:
        w.open(f"for (int32_t fy = 0; fy < {FY}; ++fy)")
        w.line(f"const int8_t* xr = xs + ((int64_t)k * {IYP} "
               f"+ oy * {SY} + fy) * {IXP};")
        w.line(f"const int8_t* wr = wgt + ((int64_t)k * {FY} + fy) * {FX};")
    else:
        w.open(f"for (int32_t c = 0; c < {C}; ++c)")
        w.open(f"for (int32_t fy = 0; fy < {FY}; ++fy)")
        w.line(f"const int8_t* xr = xs + ((int64_t)c * {IYP} "
               f"+ oy * {SY} + fy) * {IXP};")
        w.line(f"const int8_t* wr = wgt + (((int64_t)k * {C} + c) "
               f"* {FY} + fy) * {FX};")
    w.open(f"for (int32_t fx = 0; fx < {FX}; ++fx)")
    w.line("const int32_t wv = wr[fx];")
    w.line("const int8_t* xc = xr + fx;")
    w.open(f"for (int32_t ox = 0; ox < {OX}; ++ox)")
    w.line(f"acc[ox] += wv * (int32_t)xc[(int64_t)ox * {SX}];")
    w.close().close()
    w.close()
    if not dw:
        w.close()
    w.line(f"int8_t* orow = ob + ((int64_t)k * {OY} + oy) * {OX};")
    w.open(f"for (int32_t ox = 0; ox < {OX}; ++ox)")
    _emit_tail(w, spec, "acc[ox]", acc64, "orow[ox]")
    w.close()
    w.close()  # oy
    w.close()  # k
    w.close()  # b
    w.close()  # fn


def _emit_dense_kernel(w: CWriter, spec: LayerSpec):
    C, K = spec.in_channels, spec.out_channels
    acc64 = _reduction(spec) > INT32_SAFE_REDUCTION
    acc_t = "int64_t" if acc64 else "int32_t"
    w.comment(f"dense C={C} K={K} shift={spec.shift}")
    _open_kernel(w, spec, uses_wgt=True, uses_y=False)
    w.open("for (int32_t b = 0; b < n; ++b)")
    w.line(f"const int8_t* xb = x + (int64_t)b * {C};")
    w.line(f"int8_t* ob = out + (int64_t)b * {K};")
    w.open(f"for (int32_t k = 0; k < {K}; ++k)")
    _emit_badd(w, spec, "k")
    w.line(f"const int8_t* wr = wgt + (int64_t)k * {C};")
    w.line(f"{acc_t} acc = 0;")
    w.open(f"for (int32_t c = 0; c < {C}; ++c)")
    w.line("acc += (int32_t)xb[c] * (int32_t)wr[c];")
    w.close()
    _emit_tail(w, spec, "acc", acc64, "ob[k]")
    w.close()  # k
    w.close()  # b
    w.close()


def _emit_add_kernel(w: CWriter, spec: LayerSpec):
    C = spec.in_channels
    inner = spec.oy * spec.ox
    elems = C * inner
    w.comment(f"add C={C} inner={inner} shift={spec.shift}")
    _open_kernel(w, spec, uses_wgt=False, uses_y=True)
    w.open("for (int32_t b = 0; b < n; ++b)")
    w.line(f"const int8_t* xb = x + (int64_t)b * {elems};")
    w.line(f"const int8_t* yb = y + (int64_t)b * {elems};")
    w.line(f"int8_t* ob = out + (int64_t)b * {elems};")
    w.open(f"for (int32_t c = 0; c < {C}; ++c)")
    _emit_badd(w, spec, "c")
    w.line(f"const int8_t* xr = xb + (int64_t)c * {inner};")
    w.line(f"const int8_t* yr = yb + (int64_t)c * {inner};")
    w.line(f"int8_t* orow = ob + (int64_t)c * {inner};")
    w.open(f"for (int32_t j = 0; j < {inner}; ++j)")
    _emit_tail(w, spec, "(int32_t)xr[j] + (int32_t)yr[j]", False, "orow[j]")
    w.close()
    w.close()  # c
    w.close()  # b
    w.close()


_KERNEL_EMITTERS = {
    "conv2d": _emit_conv_kernel,
    "dwconv2d": _emit_conv_kernel,
    "dense": _emit_dense_kernel,
    "add": _emit_add_kernel,
}


def emit_kernel(spec: LayerSpec) -> Tuple[str, str]:
    """``(symbol, definition)`` of the exact kernel for one layer.

    Weights and bias are arguments and the symbol is a hash of the
    body, so layers with the same geometry, dtypes and requant
    constants share one kernel while binding their own weights.
    """
    w = CWriter()
    _KERNEL_EMITTERS[spec.kind](w, spec)
    body = w.source()
    sym = "k_" + hashlib.sha256(body.encode()).hexdigest()[:16]
    return sym, body.replace(_SYM, sym)


# ---------------------------------------------------------------------------
# translation units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NativeSources:
    """A model's native library as emitted, before it is split into
    translation units (:meth:`units`)."""

    #: ``native.h``: arithmetic macros and the hidden kernel prototypes
    header: str
    #: kernel symbol -> definition, one entry per distinct kernel
    kernels: Dict[str, str]
    #: ``native.c`` body: weight table, exported ABI, dispatch, full run
    dispatch: str
    #: step index -> the kernel symbol that step calls
    step_kernels: Dict[int, str]

    def digest(self) -> str:
        """sha256 over everything emitted, independent of how the
        kernels are later split into units."""
        h = hashlib.sha256()
        for part in (self.header, self.dispatch, *sorted(self.kernels.items())):
            h.update(repr(part).encode())
        return h.hexdigest()

    def units(self, n_units: int, source_key: str) -> Dict[str, str]:
        """File name -> C source: ``native.h``, ``native.c`` (which also
        exports ``source_key``) and the kernels balanced by size over
        at most ``n_units`` ``kernels<j>.c`` units."""
        n_units = max(1, min(n_units, len(self.kernels)))
        bins: List[List[str]] = [[] for _ in range(n_units)]
        load = [0] * n_units
        for sym in sorted(self.kernels,
                          key=lambda s: (-len(self.kernels[s]), s)):
            j = min(range(n_units), key=lambda u: (load[u], u))
            bins[j].append(sym)
            load[j] += len(self.kernels[sym])
        files = {"native.h": self.header,
                 "native.c": self.dispatch + _source_key_fn(source_key)}
        for j, syms in enumerate(bins):
            if syms:
                files[f"kernels{j}.c"] = "".join(
                    ['#include "native.h"\n\n']
                    + [self.kernels[s] + "\n" for s in sorted(syms)])
        return files


def _source_key_fn(source_key: str) -> str:
    w = CWriter()
    w.open("const char* repro_native_source_key(void)")
    w.line(f"return \"{source_key}\";")
    w.close()
    return w.source()


def _emit_header(model: CompiledModel, kernels: Dict[str, str]) -> str:
    w = CWriter()
    w.comment(f"repro native backend: {model.name} [{model.config_name}]")
    w.comment("generated code - do not edit; semantics mirror "
              "repro.numerics bit-for-bit (see codegen/native.py)")
    w.line("#ifndef REPRO_NATIVE_H")
    w.line("#define REPRO_NATIVE_H")
    w.line("#include <stdint.h>")
    w.line("#include <string.h>")
    w.line()
    w.comment("two's-complement wraparound add / int64 -> int32 "
              "narrowing via unsigned arithmetic (defined behaviour; "
              "the final unsigned -> signed conversion is modular on "
              "every compiler the build layer accepts)")
    w.line("#define RQ_WRAP_ADD(a, b) "
           "((int32_t)(uint32_t)((uint32_t)(a) + (uint32_t)(b)))")
    w.line("#define RQ_NARROW64(a) ((int32_t)(uint32_t)(uint64_t)(a))")
    w.comment("kernels are shared between units but never exported")
    w.line("#define REPRO_HIDDEN __attribute__((visibility(\"hidden\")))")
    w.line()
    for sym in sorted(kernels):
        w.line(f"REPRO_HIDDEN void {sym}({_KERNEL_PARAMS});")
    w.line()
    w.line("#endif")
    return w.source()


def _emit_call(w: CWriter, sym: str, i: int, x: str, y: str, out: str,
               n: str):
    w.line(f"{sym}({x}, {y}, {out}, {n}, g_w[{i}], g_bias[{i}]);")


def _emit_weight_checks(w: CWriter, model: CompiledModel, i: int):
    spec = model.steps[i].spec
    if spec.kind != "add":
        w.line(f"if (!g_w[{i}]) return -2;")
    if spec.bias is not None:
        w.line(f"if (!g_bias[{i}]) return -2;")


def _emit_dispatch(w: CWriter, model: CompiledModel,
                   step_kernels: Dict[int, str]):
    native_idx = sorted(step_kernels)
    w.open("int32_t repro_native_step_supported(int32_t idx)")
    if native_idx:
        w.open("switch (idx)")
        w.line(" ".join(f"case {i}:" for i in native_idx) + " return 1;")
        w.line("default: return 0;")
        w.close()
    else:
        w.line("(void)idx;")
        w.line("return 0;")
    w.close()
    w.line()

    w.open("int32_t repro_native_set_weights(int32_t idx, const void* w, "
           "const void* bias)")
    w.line("if (idx < 0 || idx >= REPRO_NATIVE_NUM_STEPS) return -1;")
    w.line("g_w[idx] = (const int8_t*)w;")
    w.line("g_bias[idx] = (const int32_t*)bias;")
    w.line("return 0;")
    w.close()
    w.line()

    w.open("int32_t repro_native_run_step(int32_t idx, const void* x, "
           "const void* y, void* out, int32_t n)")
    w.line("if (n <= 0 || !x || !out) return -1;")
    if native_idx:
        w.open("switch (idx)")
        for i in native_idx:
            spec = model.steps[i].spec
            w.open(f"case {i}:")
            w.comment(f"{spec.kind} {spec.name}")
            _emit_weight_checks(w, model, i)
            if spec.kind == "add":
                w.line("if (!y) return -1;")
            _emit_call(w, step_kernels[i], i, "(const int8_t*)x",
                       "(const int8_t*)y", "(int8_t*)out", "n")
            w.line("return 0;")
            w.close()
        w.line("default: return -1;")
        w.close()
    else:
        w.line("(void)y;")
        w.line("return -1;")
    w.close()
    w.line()


def _emit_full_run(w: CWriter, model: CompiledModel,
                   step_kernels: Dict[int, str]):
    native_idx = sorted(step_kernels)
    eligible = full_run_eligible(model, native_idx)
    w.open("int32_t repro_native_has_full_run(void)")
    w.line(f"return {1 if eligible else 0};")
    w.close()
    w.line()
    if not eligible:
        w.open("int32_t repro_native_run(const void* const* inputs, "
               "void* output, int32_t n)")
        w.line("(void)inputs; (void)output; (void)n;")
        w.line("return -3;")
        w.close()
        w.line()
        return

    plan = model.memory_plan
    out_name = model.output_name
    out_bytes = model.buffers[out_name].ttype.num_elements
    w.comment("whole-network execution over the planned L2 arena")
    w.line(f"static uint8_t g_arena[{max(plan.arena_bytes, 1)}];")
    w.open("int32_t repro_native_run(const void* const* inputs, "
           "void* output, int32_t n)")
    w.line("if (n <= 0 || !inputs || !output) return -1;")
    for i in native_idx:
        _emit_weight_checks(w, model, i)
    w.open("for (int32_t b = 0; b < n; ++b)")
    names = {}
    for j, name in enumerate(model.input_names):
        ident = f"in_{_c_ident(name)}"
        elems = model.buffers[name].ttype.num_elements
        w.line(f"const int8_t* {ident} = (const int8_t*)inputs[{j}] "
               f"+ (int64_t)b * {elems};")
        names[name] = ident
    for step in model.steps:
        name = step.output_name
        if name in names:
            continue
        ident = f"buf_{_c_ident(name)}"
        w.line(f"int8_t* {ident} = (int8_t*)(g_arena "
               f"+ {plan.offsets[name]});")
        names[name] = ident
    for i, step in enumerate(model.steps):
        x = names[step.input_names[0]]
        y = names[step.input_names[1]] if step.spec.kind == "add" else "0"
        _emit_call(w, step_kernels[i], i, x, y, names[step.output_name], "1")
    w.line(f"memcpy((int8_t*)output + (int64_t)b * {out_bytes}, "
           f"{names[out_name]}, {out_bytes});")
    w.close()  # b
    w.line("return 0;")
    w.close()
    w.line()


def emit_native_sources(model: CompiledModel,
                        build_key: Optional[str] = None) -> NativeSources:
    """Emit the native library for ``model``.

    ``build_key`` (default: ``model.fingerprint()``) is baked into the
    library and re-checked at load time — the build cache's staleness
    proof. The emission is deterministic in the model, so equal
    fingerprints produce byte-identical sources.
    """
    if build_key is None:
        build_key = model.fingerprint()
    kernels: Dict[str, str] = {}
    step_kernels: Dict[int, str] = {}
    for i in native_step_indices(model):
        sym, body = emit_kernel(model.steps[i].spec)
        kernels[sym] = body
        step_kernels[i] = sym

    w = CWriter()
    w.line('#include "native.h"')
    w.line()
    w.line(f"enum {{ REPRO_NATIVE_NUM_STEPS = {len(model.steps)} }};")
    w.line(f"static const char g_build_key[] = \"{build_key}\";")
    w.line("static const int8_t* g_w[REPRO_NATIVE_NUM_STEPS];")
    w.line("static const int32_t* g_bias[REPRO_NATIVE_NUM_STEPS];")
    w.line()
    w.comment("---- exported ABI (the kernels are hidden) ----")
    w.open("int32_t repro_native_abi(void)")
    w.line(f"return {NATIVE_ABI_VERSION};")
    w.close()
    w.line()
    w.open("const char* repro_native_build_key(void)")
    w.line("return g_build_key;")
    w.close()
    w.line()
    w.open("int32_t repro_native_num_steps(void)")
    w.line("return REPRO_NATIVE_NUM_STEPS;")
    w.close()
    w.line()
    _emit_dispatch(w, model, step_kernels)
    _emit_full_run(w, model, step_kernels)
    return NativeSources(header=_emit_header(model, kernels),
                         kernels=dict(sorted(kernels.items())),
                         dispatch=w.source(), step_kernels=step_kernels)
