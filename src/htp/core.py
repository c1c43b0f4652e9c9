"""Dense numeric substrate: masked softmax, GELU, LayerNorm, affine maps, seeded RNG.

All functions operate on float64 numpy arrays and are pure. Matrices are
row-major 2-D arrays, token tensors are 3-D (joints x frames x features).
The only stateful object is :class:`RngStream`, which owns an explicit
counter-based generator and is never shared across threads; parallel work
derives child streams instead.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

NEG_INF = float("-inf")

_LN_EPS = 1e-5
_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def _check_matmul(x: np.ndarray, w: np.ndarray, op: str) -> None:
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: cannot multiply shapes {x.shape} and {w.shape}")


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Masked softmax along the last axis of an n-D array (a 1-D vector is one row).

    -inf entries map to exactly 0; raises ValueError("empty support") when a
    row has no finite entry.
    """
    x = np.asarray(x, dtype=np.float64)
    top = np.max(x, axis=-1, keepdims=True)
    if np.any(top == NEG_INF):
        raise ValueError("empty support")
    e = x - top
    np.exp(e, out=e)  # in place: one full-size temporary fewer; exp(-inf) == 0.0 exactly
    e /= e.sum(axis=-1, keepdims=True)
    return e


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU, x * Phi(x). gelu(0) == 0."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def layer_norm(
    x: np.ndarray,
    scale: np.ndarray | None = None,
    shift: np.ndarray | None = None,
    eps: float = _LN_EPS,
) -> np.ndarray:
    """Normalize over the last (feature) axis, then apply optional affine.

    Uses the standard variance + eps formulation, so the normalized variance
    is v / (v + eps) for a row of variance v.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    out = (x - mean) / np.sqrt(var + eps)
    if scale is not None:
        out = out * scale
    if shift is not None:
        out = out + shift
    return out


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Affine map x @ w + b over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_matmul(x, w, "linear")
    out = x @ w
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear: bias shape {b.shape} does not match output width {w.shape[1]}")
        out = out + b
    return out


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Seeded counter-based random stream (Philox), reproducible across platforms.

    Identical seeds produce bitwise-identical sample sequences. A stream is
    single-owner; use :meth:`child` to split work deterministically.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def normal(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def child(self, index: int) -> "RngStream":
        """Derive an independent stream; child(i) is a pure function of (seed, i)."""
        return RngStream(_splitmix64(self.seed ^ _splitmix64((int(index) + 1) & _MASK64)))


def gaussian(rng: RngStream, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal tensor of the given shape drawn from ``rng``."""
    if len(shape) == 0 or any(int(d) <= 0 for d in shape):
        raise ValueError(f"gaussian: shape must have positive dims, got {shape}")
    return rng.normal(tuple(int(d) for d in shape))
