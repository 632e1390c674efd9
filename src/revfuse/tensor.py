"""Dense NCHW tensor wrapper used by every kernel in the library.

All activations are rank-4 (batch, channels, height, width) numpy arrays in
single or double precision.  The wrapper is deliberately thin: kernels do the
math on ``.data`` directly and wrap their results.  Finiteness is checked
at block boundaries (``engine.Tape``), not per kernel, so a NaN is reported
at the block and phase where it first appears.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

DTYPES = {"single": np.float32, "double": np.float64}


def precision_dtype(precision: str) -> np.dtype:
    try:
        return np.dtype(DTYPES[precision])
    except KeyError:
        raise ConfigurationError(
            f"precision must be one of {sorted(DTYPES)}, got {precision!r}"
        ) from None


@dataclass(frozen=True)
class Tensor:
    """A rank-4 activation tensor in NCHW layout."""

    data: np.ndarray

    def __post_init__(self):
        if not isinstance(self.data, np.ndarray) or self.data.ndim != 4:
            raise ConfigurationError(
                f"Tensor requires a rank-4 ndarray, got "
                f"{getattr(self.data, 'shape', type(self.data))}"
            )
        if self.data.dtype not in (np.float32, np.float64):
            raise ConfigurationError(
                f"Tensor dtype must be float32 or float64, got {self.data.dtype}"
            )

    # -- shape accessors -------------------------------------------------
    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zeros(shape: tuple[int, int, int, int], dtype=np.float64) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype))


def assert_finite(arr: np.ndarray, where: str) -> None:
    """Loudly reject NaN/Inf, naming where it was found."""
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {where}")
