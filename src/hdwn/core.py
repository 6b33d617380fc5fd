"""Domain types, the spatial-sign transform, the pair kernel and nuisance estimators.

Everything here is a pure function of its inputs, which it never writes: a
series is a float array and enters as the checked private copy _series makes,
and signs as the frozen data of a SignMatrix, the one checked type, which
freezes its data on construction and is safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ._blas import _single_threaded_blas
from .errors import (
    DegenerateDataError,
    InsufficientSampleError,
    InvalidInputError,
    InvalidLagError,
)

__all__ = [
    "SignMatrix",
    "TestOutcome",
    "normal_upper_quantile",
    "normal_upper_tail",
    "sign_transform",
    "spatial_sign",
    "trace_omega2_hat",
    "trace_sigma2_hat",
]

#: Rows whose largest magnitude falls below this are treated as exact zeros.
ZERO_NORM_THRESHOLD = 1e-300

_SIGN_NORM_TOL = 1e-9

_SQRT1_2 = math.sqrt(0.5)


def _floats(data, name: str, error=InvalidInputError) -> np.ndarray:
    """data as a new array of finite floats; ragged, non-numeric or complex input is refused."""
    try:
        arr = np.asarray(data)
        if arr.dtype.kind in "biufO":  # an object array converts entry by entry
            arr = np.array(arr, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype != float:
        raise error(f"{name} must be a rectangular array of real numbers")
    if not np.isfinite(arr).all():
        raise error(f"{name} contains non-finite entries")
    return arr


def _series(data, name: str = "series") -> np.ndarray:
    """data, an n-by-p array or a SignMatrix, as a checked float copy its caller may write."""
    arr = _floats(data.data if isinstance(data, SignMatrix) else data, name)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InsufficientSampleError(f"{name} needs at least 2 rows, got {arr.shape[0]}")
    if arr.shape[1] < 1:
        raise InvalidInputError(f"{name} needs at least 1 column")
    return arr


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Spatial signs of a series, one time point per row: every row has unit norm or is
    exactly zero. data may be an array or another SignMatrix, whose data is copied."""

    data: np.ndarray

    def __post_init__(self):
        arr = _series(self.data, "signs")
        norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))  # inf is refused, unwarned
        if not bool(((np.abs(norms - 1.0) <= _SIGN_NORM_TOL) | (norms == 0.0)).all()):
            raise InvalidInputError("sign rows must have norm 1 or be exactly zero")
        self._freeze(arr)

    def _freeze(self, arr: np.ndarray) -> "SignMatrix":
        """This matrix with arr, a fresh array no caller holds, as its read-only data."""
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        return self


def _integer(value, name: str, low: int, error=InvalidInputError) -> int:
    """value as a Python int: a Python or numpy integer, not a bool, at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(value, name: str, error=InvalidInputError) -> float:
    """value as a float: a finite Python or numpy real number, not a bool or a string."""
    try:  # math.isfinite raises OverflowError on an int too large for a float
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise error(f"{name} must be a finite real number, got {value!r}")


def _fraction(value, name: str, error=InvalidInputError) -> float:
    """A probability as a float in the open interval (0, 1)."""
    x = _real(value, name, error)
    if not 0.0 < x < 1.0:
        raise error(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return x


def _nonempty(values, name: str, error=InvalidInputError) -> tuple:
    """values as a tuple: a nonempty collection, not a string or a 0-d array."""
    collection = isinstance(values, Iterable) and getattr(values, "ndim", 1) > 0
    items = tuple(values) if collection and not isinstance(values, str) else ()
    if not items:
        raise error(f"{name} must be a nonempty collection, not a string, got {values!r}")
    return items


def _lag(H, n: int) -> int:
    """The lag window H of a call on n rows, lags 1..H, as a Python int from 1 to n - 1.

    Lags past n - 1 index before the start of the sample, so they are refused.
    A lag h = n - 1 is allowed and contributes an empty (hence zero) pair
    sum; the normalization 1/(n - h) only breaks down at h = n.
    """
    H = _integer(H, "H", 1, InvalidLagError)
    if H > n - 1:
        raise InvalidLagError(f"H={H} too large for n={n} rows (need H <= n-1)")
    return H


def as_signs(x) -> SignMatrix:
    """A SignMatrix as is; anything else once validated."""
    return x if isinstance(x, SignMatrix) else SignMatrix(x)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one hypothesis test at one lag window.

    The reject flag always equals ``p_value < alpha``; for the normal-limit
    tests the p-value is the upper tail of the standardized statistic.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    standardized: float
    p_value: float
    reject: bool
    alpha: float
    nuisance: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _fraction(self.alpha, "alpha"))
        for name in ("statistic", "standardized", "p_value"):
            if isinstance(v := getattr(self, name), bool) or not isinstance(v, numbers.Real):
                raise InvalidInputError(f"{name} must be a real number, got {v!r}")
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidInputError("p_value must lie in [0, 1]")
        if bool(self.reject) != (self.p_value < self.alpha):
            raise InvalidInputError("reject flag inconsistent with p_value and alpha")


def spatial_sign(x) -> np.ndarray:
    """Direction vector x / ||x||, or the zero vector when x is zero.

    The norm is computed on max-magnitude-rescaled entries so the squared sum
    can neither overflow nor underflow; rescaling by a power of two is exact,
    which keeps the map exactly invariant under such scalings.
    """
    v = _floats(x, "spatial_sign input")  # a copy, which _sign_rows overwrites
    if v.ndim != 1 or not v.size:
        raise InvalidInputError(f"expected a vector with at least one entry, got shape {v.shape}")
    return _sign_rows(v)


def _sign_rows(X: np.ndarray) -> np.ndarray:
    """Spatial signs of the rows of X (any leading axes), written over X and returned."""
    scratch = np.abs(X)  # reused for the squares: one temporary, not two
    scales = scratch.max(axis=-1)
    # dividing near-zero rows by inf gives exact zeros without a branch
    X /= np.where(scales < ZERO_NORM_THRESHOLD, np.inf, scales)[..., None]
    norms = np.sqrt(np.multiply(X, X, out=scratch).sum(axis=-1))
    X /= np.where(norms == 0.0, np.inf, norms)[..., None]
    return X


def sign_transform(eps) -> SignMatrix:
    """Apply the spatial-sign map to every row; its unit or zero rows are frozen as made."""
    return object.__new__(SignMatrix)._freeze(_sign_rows(_series(eps)))


@functools.lru_cache(maxsize=8)
def _packed_index(n: int) -> np.ndarray:
    """Flat positions of an n x n matrix's strict upper triangle, packed
    superdiagonal by superdiagonal: (0, 1), (1, 2), ..., (n-2, n-1), then
    (0, 2), ... and finally (0, n-1).

    In this order the lag-h partner G[s-h, t-h] of G[s, t] sits exactly h
    slots earlier, so a lag's pair products are one shifted product of the
    packed vector with itself; only products that straddle two
    superdiagonals must be dropped (_straddling). The diagonals follow each
    other with no padding, so the layout, and with it the order in which
    every sum adds, depends on n alone and never on the lag window: any
    window, and any single-test call, sums each lag in the same order and
    gets the same bits, which are a function of (n, h) and the Gram entries.
    The index is cached per n and read-only; _pair_sums passes np.take its
    writeable base, as take copies a read-only index on every call.
    """
    index = np.concatenate([d + (n + 1) * np.arange(n - d) for d in range(1, n)]).view()
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=64)
def _straddling(n: int, h: int) -> np.ndarray:
    """Slots k of the packed product v[:-h] * v[h:] whose v[k] and v[k+h] lie
    on different superdiagonals: the last min(h, n-d) slots of superdiagonal
    d. Cached per (n, h) and read-only."""
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    slots = np.concatenate([np.arange(end - min(h, n - d), end) for d, end in enumerate(ends, 1)])
    slots = slots[slots < ends[-1] - h]
    slots.flags.writeable = False
    return slots


def _pair_sums(x: np.ndarray, H: int) -> tuple[list[float], float]:
    """The pair kernel of one series x (n, k), from its packed Gram triangle:
    the cumulative lag pair sums over lags 1..H, and the trace mean, 2/(n(n-1))
    times the triangle's sum of squares; DegenerateDataError, not a warning, if it overflows.

    Lag h adds 1/(n-h) times the sum over pairs s < t (both past lag h) of
    G[s-h, t-h] * G[s, t]: in the packed layout, v[:-h] * v[h:] with the
    products straddling two superdiagonals set to zero. Every lag reuses one
    buffer of the triangle's m = n(n-1)/2 slots and sums its leading m-h
    products contiguously. The accumulation is sequential, so a smaller
    window's statistic is an exact prefix of the same accumulation. The
    trace is one einsum, as a BLAS dot splits by thread count, and comes
    first: once finite, no pair product overflows. 'clip' skips a bounds check.
    """
    n = len(x)
    with _single_threaded_blas(), np.errstate(over="ignore", invalid="ignore"):
        v = np.matmul(x, x.T).take(_packed_index(n).base, mode="clip")  # the Gram freed by take
        trace = 2.0 * float(np.einsum("i,i->", v, v)) / (n * (n - 1))
    if not trace < math.inf:  # nan too, from an inf Gram entry
        raise DegenerateDataError("pairwise inner products overflow")
    buf = np.empty(len(v))
    terms = []
    for h in range(1, H + 1):
        np.multiply(v[:-h], v[h:], out=buf[:-h])
        buf[_straddling(n, h)] = 0.0
        terms.append(float(np.add.reduce(buf[:-h])) / (n - h))
    return list(itertools.accumulate(terms)), trace


def trace_omega2_hat(signs) -> float:
    """Estimate tr(Omega^2), Omega the second moment of the spatial signs.

    Mean of squared pairwise inner products of the sign rows over all ordered
    pairs s != t. Consistent for tr(Omega^2) under the null; clipped at 1, so
    always in [0, 1], the exact range for unit or zero rows.
    """
    U = as_signs(signs).data  # read-only and unwritten by _pair_sums: no second copy
    return min(_pair_sums(U, 0)[1], 1.0)


def trace_sigma2_hat(eps) -> float:
    """Mean squared inner product of raw row pairs, estimating tr(Sigma^2); refuses overflow."""
    return _pair_sums(_series(eps), 0)[1]


def normal_upper_tail(z) -> float:
    """P(Z > z) for standard normal Z, with the branches of scipy's ndtr.

    With x = -z / sqrt(2) the tail is 0.5 + 0.5 erf(x) when |x| < 1/sqrt(2)
    and 0.5 erfc(|x|) otherwise, taken from 1 when x > 0. On a fine grid it
    agrees with scipy.special.ndtr(-z) to 1.8e-15 relative for |z| <= 5,
    4.3e-15 for |z| <= 10 and 5.8e-14 for |z| <= 37.5; beyond z = 37.7,
    where ndtr returns 0, erfc still gives subnormal values; z is any real number but NaN.
    """
    if isinstance(z, bool) or not isinstance(z, numbers.Real) or z != z:
        raise InvalidInputError(f"z must be a real number other than NaN, got {z!r}")
    return _normal_upper_tail(float(min(max(z, -40.0), 40.0)))  # 0 or 1 past |z| = 38.5


def _normal_upper_tail(z: float) -> float:
    x = -z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def normal_upper_quantile(alpha: float) -> float:
    """The z with P(Z > z) = alpha for standard normal Z.

    The standard library's NormalDist.inv_cdf, which agrees with scipy's
    ndtri to 7.7e-16 relative; adding 0.0 normalizes the -0.0 produced at
    alpha = 0.5.
    """
    alpha = _fraction(alpha, "alpha")
    from statistics import NormalDist  # here, so that importing hdwn stays cheap
    return -NormalDist().inv_cdf(alpha) + 0.0
