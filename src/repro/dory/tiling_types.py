"""Tiling data structures shared by the solver, codegen and runtime."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .layer_spec import LayerSpec


@dataclass(frozen=True)
class TileConfig:
    """Nominal tile sizes along each tileable dimension.

    DORY tiles output channels (``k_t``), input channels (``c_t``) and
    the output height (``oy_t``); the feature-map *width* is never
    tiled — in the C-y-x activation layout a full-width slab is a
    contiguous DMA burst per channel, which is precisely what the
    paper's Eq. 5 heuristic protects. When ``c_t < C`` on a (non-
    depthwise) convolution, the accelerator accumulates int32 partial
    sums in L1 across input-channel blocks and requantizes after the
    last block.

    Edge tiles are smaller; :func:`tiles_of` enumerates the actual tile
    instances.
    """

    c_t: int
    k_t: int
    oy_t: int = 1
    ox_t: int = 1

    def reduction_blocks(self, spec: LayerSpec) -> int:
        """Input-channel partial-sum blocks (1 unless conv C is tiled)."""
        if spec.kind == "conv2d":
            return math.ceil(spec.in_channels / self.c_t)
        return 1

    def num_tiles(self, spec: LayerSpec) -> int:
        return (math.ceil(spec.oy / self.oy_t)
                * math.ceil(spec.ox / self.ox_t)
                * math.ceil(spec.out_channels / self.k_t)
                * self.reduction_blocks(spec))


@dataclass(frozen=True)
class Tile:
    """One concrete tile instance with input halo bookkeeping.

    Output ranges are ``[k0:k1, oy0:oy1, ox0:ox1]``. The required input
    slab is ``[c0:c1, iy0:iy1, ix0:ix1]`` *clipped to the tensor*, with
    ``pad_*`` giving the zero-padding this edge tile still needs.
    ``last_reduction`` is False for partial-sum blocks of a C-tiled
    convolution (the output is written back only after the last block).
    """

    k0: int
    k1: int
    oy0: int
    oy1: int
    ox0: int
    ox1: int
    c0: int
    c1: int
    iy0: int
    iy1: int
    ix0: int
    ix1: int
    pad_top: int
    pad_bottom: int
    pad_left: int
    pad_right: int
    last_reduction: bool = True

    @property
    def out_shape(self) -> Tuple[int, int, int]:
        return (self.k1 - self.k0, self.oy1 - self.oy0, self.ox1 - self.ox0)

    @property
    def in_shape(self) -> Tuple[int, int, int]:
        return (self.c1 - self.c0, self.iy1 - self.iy0, self.ix1 - self.ix0)


def _input_range(o0: int, o1: int, stride: int, f: int, pad: int,
                 in_dim: int) -> Tuple[int, int, int, int]:
    """Input interval + residual padding for an output interval."""
    lo = o0 * stride - pad
    hi = (o1 - 1) * stride + f - pad
    pad_lo = max(0, -lo)
    pad_hi = max(0, hi - in_dim)
    return max(lo, 0), min(hi, in_dim), pad_lo, pad_hi


def tiles_of(spec: LayerSpec, cfg: TileConfig) -> Iterator[Tile]:
    """Enumerate all tile instances.

    Order: K blocks, then output rows, then width blocks, with
    input-channel (partial-sum) blocks innermost so the executor can
    accumulate each output tile across consecutive tiles.
    """
    sy, sx = spec.strides
    py, px = spec.padding
    c_blocks: List[tuple]
    if spec.kind == "conv2d":
        c_blocks = [(c0, min(c0 + cfg.c_t, spec.in_channels))
                    for c0 in range(0, spec.in_channels, cfg.c_t)]
    else:
        c_blocks = [(0, spec.in_channels)]
    for k0 in range(0, spec.out_channels, cfg.k_t):
        k1 = min(k0 + cfg.k_t, spec.out_channels)
        for oy0 in range(0, spec.oy, cfg.oy_t):
            oy1 = min(oy0 + cfg.oy_t, spec.oy)
            for ox0 in range(0, spec.ox, cfg.ox_t):
                ox1 = min(ox0 + cfg.ox_t, spec.ox)
                if spec.kind in ("conv2d", "dwconv2d"):
                    iy0, iy1, pt, pb = _input_range(oy0, oy1, sy, spec.fy,
                                                    py, spec.iy)
                    ix0, ix1, pl, pr = _input_range(ox0, ox1, sx, spec.fx,
                                                    px, spec.ix)
                else:  # dense / add: input ranges mirror output ranges
                    iy0, iy1, pt, pb = oy0, oy1, 0, 0
                    ix0, ix1, pl, pr = ox0, ox1, 0, 0
                if spec.channel_tied:
                    yield Tile(k0, k1, oy0, oy1, ox0, ox1, k0, k1,
                               iy0, iy1, ix0, ix1, pt, pb, pl, pr)
                    continue
                for c0, c1 in c_blocks:
                    yield Tile(k0, k1, oy0, oy1, ox0, ox1, c0, c1,
                               iy0, iy1, ix0, ix1, pt, pb, pl, pr,
                               last_reduction=(c1 == spec.in_channels))


@dataclass
class TilingSolution:
    """Chosen tiling for one layer, with memory accounting.

    ``l1_in/out/weight_bytes`` are the *nominal* per-tile L1 footprints
    (the LHS terms of the paper's Eq. 2).
    """

    spec: LayerSpec
    cfg: TileConfig
    target: str
    l1_in_bytes: int
    l1_out_bytes: int
    l1_weight_bytes: int
    objective: float
    needs_tiling: bool

    @property
    def l1_total_bytes(self) -> int:
        return self.l1_in_bytes + self.l1_out_bytes + self.l1_weight_bytes

    @property
    def num_tiles(self) -> int:
        return self.cfg.num_tiles(self.spec)

    def tiles(self) -> List[Tile]:
        return list(tiles_of(self.spec, self.cfg))
