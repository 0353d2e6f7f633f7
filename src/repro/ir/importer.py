"""Model importer from a declarative (JSON-compatible) description.

The paper generates model DAGs from TensorFlow; this environment has no
TensorFlow, so the equivalent entry point is a plain nested-dict description
(loadable from JSON) listing layers with their hyperparameters.  Shapes are
propagated automatically, so descriptions stay concise:

    {"name": "tiny", "input": [32, 56, 56],
     "layers": [
        {"op": "conv", "kind": "dw", "kernel": 3, "stride": 1},
        {"op": "conv", "kind": "pw", "out_channels": 64},
        {"op": "glue", "glue": "gap"}]}
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..core.dtypes import DType
from ..errors import ShapeError
from .graph import GlueSpec, ModelGraph
from .layers import ConvKind, ConvSpec, EpilogueSpec

__all__ = ["import_model"]

_KINDS = {"standard": ConvKind.STANDARD, "std": ConvKind.STANDARD,
          "dw": ConvKind.DEPTHWISE, "pw": ConvKind.POINTWISE}


def import_model(desc: Mapping[str, Any], dtype: DType = DType.FP32) -> ModelGraph:
    """Build a :class:`ModelGraph` from a declarative description.

    Args:
        desc: mapping with ``name``, ``input`` (``[C, H, W]``) and ``layers``
            (sequence of layer mappings; see module docstring).
        dtype: precision applied to every conv layer.

    Shape propagation is linear (each layer follows the previous one); models
    with residual topology should use :mod:`repro.ir.blocks` directly.
    """
    name = str(desc.get("name", "imported"))
    try:
        c, h, w = (int(x) for x in desc["input"])
        layer_descs: Sequence[Mapping[str, Any]] = desc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed model description: {exc}") from exc

    graph = ModelGraph(name)
    for i, ld in enumerate(layer_descs):
        op = ld.get("op", "conv")
        lname = str(ld.get("name", f"layer{i}"))
        if op == "glue":
            graph.add(GlueSpec(name=lname, op=str(ld.get("glue", "noop")),
                               out_elements=int(ld.get("out_elements", c * h * w))))
            continue
        if op != "conv":
            raise ShapeError(f"unknown op {op!r} in layer {lname!r}")
        kind_key = str(ld.get("kind", "standard"))
        if kind_key not in _KINDS:
            raise ShapeError(f"unknown conv kind {kind_key!r} in layer {lname!r}")
        kind = _KINDS[kind_key]
        kernel = int(ld.get("kernel", 1 if kind is ConvKind.POINTWISE else 3))
        stride = int(ld.get("stride", 1))
        padding = int(ld.get("padding", kernel // 2 if kind is not ConvKind.POINTWISE else 0))
        out_channels = int(ld.get("out_channels", c))
        if kind is ConvKind.DEPTHWISE:
            out_channels = c
        spec = ConvSpec(
            name=lname,
            kind=kind,
            in_channels=c,
            out_channels=out_channels,
            in_h=h,
            in_w=w,
            kernel=kernel,
            stride=stride,
            padding=padding,
            dtype=dtype,
            epilogue=EpilogueSpec(
                norm=bool(ld.get("norm", True)),
                activation=ld.get("activation", "relu"),
            ),
        )
        graph.add(spec)
        c, h, w = spec.out_channels, spec.out_h, spec.out_w
    graph.validate()
    return graph
