"""Natural cubic spline interpolation on strictly increasing knots.

The interpolant is kept in second-derivative form.  On the segment
[x[i], x[i+1]] with h = x[i+1] - x[i] and knot second derivatives M:

    S(t) = M[i] (x[i+1] - t)^3 / (6h) + M[i+1] (t - x[i])^3 / (6h)
         + (y[i]/h - M[i] h/6) (x[i+1] - t)
         + (y[i+1]/h - M[i+1] h/6) (t - x[i])

Interior M values come from the standard tridiagonal system (solved with
the Thomas algorithm); the natural boundary condition pins
M[0] = M[n-1] = 0, i.e. zero curvature at both ends.  Evaluation outside
the knot span is refused rather than extrapolated.

Knot rows ``(x, y_1, ..., y_b)`` fit b series sharing x, hence the
matrix and the cubes: the Thomas sweep runs over ``(n, b)`` right-hand
sides and evaluation broadcasts over b columns.  Each element sees the
same ``+ - * /`` in the same order as a fit of its series alone, so the
values are bit-identical; one ``(x, y)`` series is the b = 1 case.

Evaluation takes a whole array of abscissae at once.  The cubes go through
libm ``pow`` one element at a time: numpy's vectorized ``power`` may take
a SIMD path (SVML on AVX-512 hosts) whose results differ from ``pow`` in
the last bit, and resampled angles are written at full precision.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SplineCoefficients:
    """Knots plus the second-derivative values that define the spline;
    ``y`` and ``m`` are ``(n, b)`` for b series, ``(n,)`` for one."""

    x: np.ndarray
    y: np.ndarray
    m: np.ndarray  # second derivative at each knot; m[0] = m[-1] = 0


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm on the ``(n, b)`` right-hand sides ``rhs``, one
    column per system.  ``sub[j]`` multiplies u[j-1] (sub[0] unused),
    ``sup[j]`` multiplies u[j+1] (sup[-1] unused)."""
    n = len(diag)
    # Python floats round like float64 scalars and index faster.
    sub, sup, d = sub.tolist(), sup.tolist(), diag.tolist()
    r = rhs.astype(float)
    for j in range(1, n):
        w = sub[j] / d[j - 1]
        d[j] -= w * sup[j - 1]
        r[j] -= w * r[j - 1]
    u = np.empty_like(r)
    u[-1] = r[-1] / d[-1]
    for j in range(n - 2, -1, -1):
        u[j] = (r[j] - sup[j] * u[j + 1]) / d[j]
    return u


def fit_natural_cubic(knots) -> SplineCoefficients:
    """Fit a natural cubic spline through ``knots`` (sequence of (x, y)).

    Rows ``(x, y_1, ..., y_b)`` fit b series that share x in one solve.
    Requires at least 2 knots with strictly increasing, finite x and
    finite y.  With exactly 2 knots the interpolant degenerates to the
    straight line through them.
    """
    pts = np.asarray(knots, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValidationError("knots must be a sequence of (x, y) pairs")
    n = pts.shape[0]
    if n < 2:
        raise ValidationError(f"need at least 2 knots, got {n}")
    x = pts[:, 0].copy()
    y = pts[:, 1:].copy()
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValidationError("knot coordinates must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ValidationError("knot abscissae must be strictly increasing")

    m = np.zeros_like(y)
    if n > 2:
        h = np.diff(x)
        slope = np.diff(y, axis=0) / h[:, None]
        # Rows j = 0..n-3 correspond to interior knots i = j+1:
        #   h[j] M[j] + 2 (h[j] + h[j+1]) M[j+1] + h[j+1] M[j+2] = rhs[j]
        # with M[0] = M[n-1] = 0 already eliminated.
        sub = h[:-1]
        diag = 2.0 * (h[:-1] + h[1:])
        sup = h[1:]
        rhs = 6.0 * (slope[1:] - slope[:-1])
        m[1:-1] = _solve_tridiagonal(sub, diag, sup, rhs)
    if pts.shape[1] == 2:
        y, m = y[:, 0], m[:, 0]
    return SplineCoefficients(x=x, y=y, m=m)


def _cube(values: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.pow, values.ravel().tolist(), repeat(3.0)))
                    ).reshape(values.shape)


def eval_spline(spline: SplineCoefficients, t):
    """Evaluate the spline at ``t``, a number or an array of numbers, all
    of which must lie within the knot span.  Returns a float for a number
    and an array of ``t``'s shape otherwise, with a trailing axis of the b
    series when the spline carries several."""
    x = spline.x
    y = spline.y.reshape(len(x), -1)
    m = spline.m.reshape(len(x), -1)
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    outside = ~((x[0] <= flat) & (flat <= x[-1]))
    if outside.any():
        raise ValidationError(
            f"extrapolation request: {flat[outside][0]} outside knot span "
            f"[{x[0]}, {x[-1]}]")
    i = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, len(x) - 2)
    h = (x[i + 1] - x[i])[:, None]
    left = (x[i + 1] - flat)[:, None]
    right = (flat - x[i])[:, None]
    values = (m[i] * _cube(left) / (6.0 * h)
              + m[i + 1] * _cube(right) / (6.0 * h)
              + (y[i] / h - m[i] * h / 6.0) * left
              + (y[i + 1] / h - m[i + 1] * h / 6.0) * right)
    values = values.reshape(ts.shape + spline.y.shape[1:])
    return values[()] if values.ndim == 0 else values
