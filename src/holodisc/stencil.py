"""Centred differences on periodic rings of grid values.

The coarse models are built from three operators acting on a periodic
sequence of element amplitudes: the second difference ``delta2``, the fused
mean-difference ``mudelta`` (half the gap between the two neighbours), and
the fourth difference ``delta4`` (``delta2`` applied twice).  All three wrap
around, so a length-m sequence is treated as a ring.  They act along the
last axis, so a (k, m) stack holds k rings, and they keep complex input
complex (phasor patterns); anything else is computed in float.
``ring_images`` returns all three from one wrapped pad, bit for bit equal
to the separate calls; ``pad_images`` takes a pad the caller made.

On smooth samples s[j] = f(jH) the operators are consistent with
derivatives: delta2/H^2 -> f'' + O(H^2), mudelta/H -> f' + O(H^2), and the
combination delta2/H^2 - delta4/(12 H^2) -> f'' + O(H^4).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["delta2", "mudelta", "delta4", "ring_pad", "ring_images",
           "pad_images", "ring_index", "operands"]


def operands(*values) -> tuple[np.ndarray, ...]:
    """Each value as a read-only (shared) float64 0-d array: an operand with a
    Python float's bits, without numpy resolving its type at every call;
    each a 0-d view of one read-only array, cheap to bind."""
    a = np.array(values, dtype=np.float64)
    a.flags.writeable = False
    return tuple(a[i, ...] for i in range(len(values)))


@functools.lru_cache(maxsize=None)
def ring_index(m: int, width: int = 1) -> np.ndarray:
    """Read-only index: s[..., ring_index(m, width)] is ring_pad(s, width)."""
    return np.broadcast_to(np.arange(-width, m + width) % m, (m + 2 * width,))


def ring_pad(s: np.ndarray, width: int = 1) -> np.ndarray:
    """Ring s with width wrapped ghost values at each end of the last axis.

    p = ring_pad(s) has p[..., j] = s[..., j-1] and p[..., j+2] = s[..., j+1],
    so the left and right neighbours of the ring are the slices p[..., :-2]
    and p[..., 2:].  The ring must hold at least width values.
    """
    s = np.asarray(s)
    if s.dtype.kind != "c":
        s = s.astype(float, copy=False)
    return np.concatenate([s[..., -width:], s, s[..., :width]], axis=-1)


def ring_images(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mudelta(s), delta2(s), delta4(s)) from one width-2 pad; needs m >= 2.

    delta2 over the pad comes out ringed by one ghost value per end, so
    delta4 is its second difference in place.  Each value is computed as
    in the separate calls: the images equal theirs bit for bit.
    """
    q = ring_pad(s, 2)
    if q.shape[-1] < 6:
        raise ValueError("ring_images needs a ring of 2 or more values")
    return pad_images(q)


_TWO, _HALF = operands(2.0, 0.5)


def pad_images(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ring_images of the ring whose width-2 pad is q, for a caller that
    pads the ring itself."""
    d2 = q[..., 2:] - _TWO * q[..., 1:-1] + q[..., :-2]
    return (
        _HALF * (q[..., 3:-1] - q[..., 1:-3]),
        d2[..., 1:-1],
        d2[..., 2:] - _TWO * d2[..., 1:-1] + d2[..., :-2],
    )


def delta2(s: np.ndarray) -> np.ndarray:
    """Second centred difference s[j+1] - 2 s[j] + s[j-1], periodic."""
    p = ring_pad(s)
    return p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]


def mudelta(s: np.ndarray) -> np.ndarray:
    """Fused mean-difference (s[j+1] - s[j-1]) / 2, periodic."""
    p = ring_pad(s)
    return 0.5 * (p[..., 2:] - p[..., :-2])


def delta4(s: np.ndarray) -> np.ndarray:
    """Fourth difference with stencil (1, -4, 6, -4, 1), periodic."""
    return delta2(delta2(s))
