"""Numeric substrate: masked dense and sparse softmax, GELU, LayerNorm, affine maps, seeded RNG.

All functions operate on float64 numpy arrays and are pure. Matrices are
row-major 2-D arrays, token tensors are 3-D (joints x frames x features).
The only stateful object is :class:`RngStream`, which owns an explicit
counter-based generator and is never shared across threads; parallel work
derives child streams or starts streams at offsets into one sequence instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf

NEG_INF = float("-inf")

# Routing rule of both masked layers (sft_mhsa, tcep_refine), held by
# sparse_route alone and applied per joint: below this fraction of a joint's
# admitted entries, only the admitted pairs are scored (sft_mhsa) and
# sparse_mix softmaxes and mixes them. Measured crossovers with per-pair
# scores (J=17, D=64, 2 cores, OpenBLAS, float64; random symmetric masks for
# sft_mhsa, top-k masks for tcep_refine): sft_mhsa 0.06-0.08 at F=243 and
# 0.10-0.12 at F=729; tcep_refine 0.19-0.25 at F=243 and above 0.125 at F=729.
# So at F=243 an sft_mhsa joint between 0.06 and 0.1 runs up to 6 % slower
# sparse than dense; below 0.05 the sparse route wins in every case measured.
SPARSE_ROUTE_DENSITY = 0.1

_LN_EPS = 1e-5
_GELU_CHUNK = 1 << 15  # elements per GELU pass: 256 KiB of float64, so a chunk stays in cache
_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def _check_matmul(x: np.ndarray, w: np.ndarray, op: str) -> None:
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: cannot multiply shapes {x.shape} and {w.shape}")


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Masked softmax along the last axis of an n-D array (a 1-D vector is one row).

    -inf entries map to exactly 0; raises ValueError("empty support") when a
    row has no finite entry. ``out`` (which may be ``x`` itself) receives the
    result instead of a new array.
    """
    x = np.asarray(x, dtype=np.float64)
    top = np.max(x, axis=-1, keepdims=True)
    if np.any(top == NEG_INF):
        raise ValueError("empty support")
    e = np.subtract(x, top, out=out)
    np.exp(e, out=e)  # in place: one full-size temporary fewer; exp(-inf) == 0.0 exactly
    e /= e.sum(axis=-1, keepdims=True)
    return e


def sparse_route(admitted: np.ndarray) -> bool:
    """True when fewer than SPARSE_ROUTE_DENSITY of the entries of ``admitted`` are set."""
    return np.count_nonzero(admitted) < SPARSE_ROUTE_DENSITY * admitted.size


def bool_mask(mask, caller: str) -> np.ndarray:
    """mask as an array, or ValueError naming its dtype unless it is boolean: a 0/1 float mask is refused, not read."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"{caller}: mask has dtype {mask.dtype}; expected bool")
    return mask


def admitted_pairs(admitted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR pattern ``(rows, cols, indptr)`` of the set entries of a boolean (F, F) matrix, in row-major order.

    Raises ValueError("empty support") when a row has no set entry.
    """
    flat = np.flatnonzero(admitted)
    rows, cols = np.divmod(flat, admitted.shape[1])
    indptr = np.searchsorted(rows, np.arange(admitted.shape[0] + 1))
    if np.any(indptr[1:] == indptr[:-1]):
        raise ValueError("empty support")
    return rows, cols, indptr


def sparse_mix(scores: np.ndarray, pairs: tuple, values: np.ndarray, gate: np.ndarray | None = None) -> np.ndarray:
    """Softmax of per-pair (..., P) scores over each row's pairs, times gate there, applied to (..., F, D) values.

    ``pairs`` is the ``(rows, cols, indptr)`` of admitted_pairs, shared by the leading (head) axes,
    with one sparse product per leading index. ``scores`` is read, not written.
    """
    rows, cols, indptr = pairs
    counts = np.diff(indptr)
    probs = scores - np.repeat(np.maximum.reduceat(scores, indptr[:-1], axis=-1), counts, axis=-1)
    np.exp(probs, out=probs)
    probs /= np.repeat(np.add.reduceat(probs, indptr[:-1], axis=-1), counts, axis=-1)
    if gate is not None:
        probs *= gate[rows, cols]
    out = np.empty(values.shape)
    for idx in np.ndindex(*values.shape[:-2]):
        out[idx] = csr_matrix((probs[idx], cols, indptr), shape=(len(counts), len(counts))) @ values[idx]
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU, x * Phi(x). gelu(0) == 0.

    Bitwise equal to 0.5 * x * (1 + erf(x / sqrt(2))): z = 1 + erf(...) lies in
    {0} or [2**-53, 2], so halving z is exact and x * (0.5 * z) rounds once, as
    (0.5 * x) * z does (even for |x| near the float64 maximum, where x * z would
    overflow). The work runs in cache-sized chunks of one output buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    src, dst = x.reshape(-1), out.reshape(-1)  # src copies a non-contiguous x
    for lo in range(0, src.size, _GELU_CHUNK):
        xs, o = src[lo : lo + _GELU_CHUNK], dst[lo : lo + _GELU_CHUNK]
        np.divide(xs, np.sqrt(2.0), out=o)
        erf(o, out=o)
        o += 1.0
        o *= 0.5
        o *= xs
    return out


def layer_norm(x: np.ndarray, scale: np.ndarray | None = None, shift: np.ndarray | None = None) -> np.ndarray:
    """Normalize over the last (feature) axis, then apply optional affine.

    Uses the standard variance + eps formulation (eps = 1e-5), so the
    normalized variance is v / (v + eps) for a row of variance v.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    out = x - mean
    out /= np.sqrt(var + _LN_EPS)
    if scale is not None:
        out *= scale
    if shift is not None:
        out += shift
    return out


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Affine map x @ w + b over the last axis, as one 2-D GEMM.

    A 3-D x @ w would run one GEMM per leading slice; x is flattened to
    (rows, D) instead, which copies it first when it is not contiguous.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_matmul(x, w, "linear")
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear: bias shape {b.shape} does not match output width {w.shape[1]}")
    lead = x.shape[:-1]
    out = (x.reshape(math.prod(lead), w.shape[0]) @ w).reshape(*lead, w.shape[1])
    if b is not None:
        out += b
    return out


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Seeded counter-based random stream (Philox), reproducible across platforms.

    Identical seeds produce bitwise-identical sample sequences. A stream is
    single-owner. Work is split into independent streams (:meth:`child`) or
    into runs of one sequence: ``RngStream(seed, start=n)`` begins n uint64
    draws into the sequence of ``seed``, and a float64 uniform takes one
    uint64, so its uniforms are bitwise those that follow the first n.
    """

    def __init__(self, seed: int, start: int = 0):
        self.seed = int(seed) & _MASK64
        bits = np.random.Philox(self.seed)
        bits.advance(start // 4)  # one Philox4x64 counter step yields 4 uint64
        bits.random_raw(start % 4)
        self._gen = np.random.Generator(bits)

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
