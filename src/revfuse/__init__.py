"""Reversible multi-scale feature fusion: coupling blocks, a backbone built
from them, a two-mode training engine (stored vs recomputed activations),
analytic cost models, and a CSV-emitting experiment CLI."""

from __future__ import annotations

from .backbone import BackboneConfig, Model, build, train_toy
from .context import ExecContext, OpCounters
from .costmodel import (activation_memory_model, activation_ratio,
                        compute_cost_model, scale_row, scale_table)
from .coupling import FeaturePyramid, RevBlock, RevBlockSpec, Silo, SiloSpec
from .engine import BackwardMode, LiveBytesRegistry, Tape
from .errors import (AccountingError, ConfigurationError, DivergenceError,
                     RevfuseError, StateError)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "AccountingError",
    "BackboneConfig",
    "BackwardMode",
    "ConfigurationError",
    "DivergenceError",
    "ExecContext",
    "FeaturePyramid",
    "LiveBytesRegistry",
    "Model",
    "OpCounters",
    "RevBlock",
    "RevBlockSpec",
    "RevfuseError",
    "Silo",
    "SiloSpec",
    "StateError",
    "Tape",
    "Tensor",
    "activation_memory_model",
    "activation_ratio",
    "build",
    "compute_cost_model",
    "scale_row",
    "scale_table",
    "train_toy",
]
