"""Model IR: layer specs, DAG, block builders, declarative importer."""

from .blocks import dsc_block, inverted_residual_block, standard_conv
from .graph import FusionCandidate, GlueSpec, ModelGraph
from .importer import import_model
from .layers import ConvKind, ConvSpec, EpilogueSpec

__all__ = [
    "dsc_block",
    "inverted_residual_block",
    "standard_conv",
    "FusionCandidate",
    "GlueSpec",
    "ModelGraph",
    "import_model",
    "ConvKind",
    "ConvSpec",
    "EpilogueSpec",
]
