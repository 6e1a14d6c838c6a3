"""Layer specifications: DORY's view of one offloaded coarse-grained op.

The BYOC DORY backend does not reason about Relay expressions — it
receives "a DNN layer that has to be executed" (paper Sec. III-B). A
:class:`LayerSpec` is that layer description: geometry, dtypes, strides,
the requantization parameters, and the constant payloads, extracted from
a matched :class:`~repro.ir.node.Composite` body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import UnsupportedError
from ..ir import Call, Composite, Constant, conv2d_output_hw


@dataclass
class LayerSpec:
    """Geometry + parameters of one accelerator-eligible layer.

    ``kind`` is one of ``"conv2d"``, ``"dwconv2d"``, ``"dense"``,
    ``"add"``. Dense layers use the convolution naming with
    ``fy = fx = iy = ix = oy = ox = 1`` (the paper deploys FC layers on
    the analog accelerator "by implementing FC layers as Conv2Ds").
    """

    name: str
    kind: str
    in_channels: int
    out_channels: int
    iy: int = 1
    ix: int = 1
    oy: int = 1
    ox: int = 1
    fy: int = 1
    fx: int = 1
    strides: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    groups: int = 1
    weight_dtype: str = "int8"
    in_dtype: str = "int8"
    out_dtype: str = "int8"
    shift: int = 0
    relu: bool = False
    weight: Optional[np.ndarray] = field(default=None, repr=False)
    bias: Optional[np.ndarray] = field(default=None, repr=False)

    # -- accounting -----------------------------------------------------------

    @property
    def is_depthwise(self) -> bool:
        return self.kind == "dwconv2d"

    @property
    def channel_tied(self) -> bool:
        """Output channel k reads input channel k only (depthwise, add):
        its tiles read c0:c1 == k0:k1 and never split a reduction."""
        return self.is_depthwise or self.kind == "add"

    def macs(self) -> int:
        if self.kind == "add":
            return 0
        if self.kind == "dense":
            return self.in_channels * self.out_channels
        cg = self.in_channels // self.groups
        return self.out_channels * cg * self.fy * self.fx * self.oy * self.ox

    def input_elements(self) -> int:
        return self.in_channels * self.iy * self.ix

    def output_elements(self) -> int:
        return self.out_channels * self.oy * self.ox

    def weight_elements(self) -> int:
        if self.kind == "add":
            return 0
        cg = self.in_channels // self.groups
        return self.out_channels * cg * self.fy * self.fx

    def input_tile_hw(self, oy_t: int, ox_t: int) -> Tuple[int, int]:
        """Input tile height/width needed to compute an output tile.

        Includes the halo: ``i_t = (o_t - 1) * stride + f``.
        """
        sy, sx = self.strides
        return (oy_t - 1) * sy + self.fy, (ox_t - 1) * sx + self.fx

    def validate(self):
        if self.kind not in ("conv2d", "dwconv2d", "dense", "add"):
            raise UnsupportedError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dwconv2d" and self.in_channels != self.out_channels:
            raise UnsupportedError("depthwise layer must have C == K")
        if self.kind in ("conv2d", "dwconv2d"):
            oy, ox = conv2d_output_hw(
                self.iy, self.ix, self.fy, self.fx, self.strides, self.padding
            )
            if (oy, ox) != (self.oy, self.ox):
                raise UnsupportedError(
                    f"{self.name}: inconsistent geometry "
                    f"(computed {oy}x{ox}, declared {self.oy}x{self.ox})"
                )


def make_conv_spec(name: str, c: int, k: int, iy: int, ix: int,
                   fy: int = 3, fx: int = 3, strides=(1, 1), padding=(0, 0),
                   depthwise: bool = False, weight_dtype: str = "int8",
                   shift: int = 8, relu: bool = True) -> LayerSpec:
    """Convenience constructor used by the Fig. 4 / Fig. 5 benchmarks."""
    if depthwise:
        k = c
    oy, ox = conv2d_output_hw(iy, ix, fy, fx, strides, padding)
    act = "int7" if weight_dtype == "ternary" else "int8"
    spec = LayerSpec(
        name=name, kind="dwconv2d" if depthwise else "conv2d",
        in_channels=c, out_channels=k, iy=iy, ix=ix, oy=oy, ox=ox,
        fy=fy, fx=fx, strides=tuple(strides), padding=tuple(padding),
        groups=c if depthwise else 1, weight_dtype=weight_dtype,
        in_dtype=act, out_dtype=act,
        shift=shift, relu=relu,
    )
    spec.validate()
    return spec


def make_dense_spec(name: str, c: int, k: int, weight_dtype: str = "int8",
                    shift: int = 8, relu: bool = False) -> LayerSpec:
    """Convenience constructor for FC layers."""
    act = "int7" if weight_dtype == "ternary" else "int8"
    spec = LayerSpec(name=name, kind="dense", in_channels=c, out_channels=k,
                     weight_dtype=weight_dtype, in_dtype=act, out_dtype=act,
                     shift=shift, relu=relu)
    spec.validate()
    return spec


def _find_anchor(composite: Composite) -> Call:
    """The MAC-carrying (or add) call inside a composite body."""
    anchors = [
        n for n in composite.body.topo_order()
        if isinstance(n, Call) and n.op in ("nn.conv2d", "nn.dense", "add")
    ]
    if len(anchors) != 1:
        raise UnsupportedError(
            f"composite {composite.pattern_name} has {len(anchors)} anchor ops"
        )
    return anchors[0]


def spec_from_composite(composite: Composite, name: str) -> LayerSpec:
    """Extract a :class:`LayerSpec` from a matched composite node.

    Walks the body: the anchor op provides geometry and weights; the
    ``right_shift`` constant provides the requantization shift; a
    ``clip`` with ``a_min == 0`` after the int8 cast marks ReLU.
    """
    body = composite.body
    anchor = _find_anchor(composite)

    shift = 0
    relu = False
    for node in body.topo_order():
        if not isinstance(node, Call):
            continue
        if node.op == "right_shift" and isinstance(node.inputs[1], Constant):
            shift = int(node.inputs[1].value.data.reshape(-1)[0])
        if (node.op == "clip" and node.attrs["a_min"] == 0
                and node.dtype.bits <= 8):
            relu = True

    bias = None
    for node in body.topo_order():
        if (isinstance(node, Call) and node.op == "nn.bias_add"
                and isinstance(node.inputs[1], Constant)):
            bias = node.inputs[1].value.data

    out_dtype = body.output.dtype.name

    if anchor.op == "nn.conv2d":
        data_t, weight_node = anchor.inputs[0].ttype, anchor.inputs[1]
        if not isinstance(weight_node, Constant):
            raise UnsupportedError(f"{name}: conv weight is not constant")
        _, c, iy, ix = data_t.shape
        k, _, fy, fx = weight_node.shape
        groups = anchor.attrs["groups"]
        kind = "dwconv2d" if (groups == c and groups > 1) else "conv2d"
        if kind == "conv2d" and groups != 1:
            raise UnsupportedError(f"{name}: grouped (non-DW) conv unsupported")
        _, _, oy, ox = anchor.ttype.shape
        spec = LayerSpec(
            name=name, kind=kind, in_channels=c, out_channels=k,
            iy=iy, ix=ix, oy=oy, ox=ox, fy=fy, fx=fx,
            strides=tuple(anchor.attrs["strides"]),
            padding=tuple(anchor.attrs["padding"]),
            groups=groups,
            weight_dtype=weight_node.dtype.name,
            in_dtype=data_t.dtype.name, out_dtype=out_dtype,
            shift=shift, relu=relu,
            weight=weight_node.value.data, bias=bias,
        )
    elif anchor.op == "nn.dense":
        data_t, weight_node = anchor.inputs[0].ttype, anchor.inputs[1]
        if not isinstance(weight_node, Constant):
            raise UnsupportedError(f"{name}: dense weight is not constant")
        _, c = data_t.shape
        k, _ = weight_node.shape
        spec = LayerSpec(
            name=name, kind="dense", in_channels=c, out_channels=k,
            weight_dtype=weight_node.dtype.name,
            in_dtype=data_t.dtype.name, out_dtype=out_dtype,
            shift=shift, relu=relu,
            weight=weight_node.value.data, bias=bias,
        )
    else:  # residual add
        t = anchor.inputs[0].ttype
        if t.rank == 4:
            _, c, h, w = t.shape
        else:
            c, h, w = t.num_elements, 1, 1
        spec = LayerSpec(
            name=name, kind="add", in_channels=c, out_channels=c,
            iy=h, ix=w, oy=h, ox=w,
            weight_dtype="int8", in_dtype=t.dtype.name, out_dtype=out_dtype,
            shift=shift, relu=relu,
        )
    spec.validate()
    return spec
