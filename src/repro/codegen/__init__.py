"""C code emission: CPU kernels, DORY drivers, network glue, and the
exact native backend (emission + build cache + loader)."""

from .c_writer import CWriter
from .cpu import classify_body, emit_cpu_kernel, kernel_signature
from .runtime_glue import RUNTIME_HEADER, emit_network, emit_runtime_header
from .native import (
    NATIVE_ABI_VERSION,
    SUPPORTED_KINDS,
    NativeSources,
    emit_kernel,
    emit_native_sources,
    full_run_eligible,
    native_step_indices,
)
from .build import (
    NativeLibraryError,
    NativeModule,
    build_native_library,
    build_stats,
    find_c_compiler,
    library_name,
    library_path,
    load_native_module,
    native_cache_dir,
    open_native_build_key,
    reset_build_stats,
    source_key,
)

__all__ = [
    "CWriter", "classify_body", "emit_cpu_kernel", "kernel_signature",
    "emit_network", "emit_runtime_header", "RUNTIME_HEADER",
    "NATIVE_ABI_VERSION", "SUPPORTED_KINDS", "NativeSources", "emit_kernel",
    "emit_native_sources", "full_run_eligible", "native_step_indices",
    "NativeLibraryError", "NativeModule", "build_native_library",
    "build_stats", "find_c_compiler", "library_name", "library_path",
    "load_native_module", "native_cache_dir", "open_native_build_key",
    "reset_build_stats", "source_key",
]
