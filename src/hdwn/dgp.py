"""Data-generating processes for size and power experiments.

Covers the three innovation families (normal, multivariate t, scale-mixture
of normals), a polynomial-decay covariance, VAR/VMA/VARMA recursions with
dense or sparse coefficient blocks, and the lag-one signed-direction
alternative used for power calculations.

Generators are pure given (spec, seed). `derive_rng` builds independent
streams from a master seed and a path of tags, so parallel replications can
each own a stream that does not depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .core import SeriesMatrix, ZERO_NORM_THRESHOLD
from .errors import (
    ExplosiveModelError,
    InvalidInputError,
    InvalidSpecError,
    NotPositiveDefiniteError,
)
from .power_theory import chi_radial_c1

__all__ = [
    "CoeffRegime",
    "CoeffSpec",
    "CovarianceKind",
    "CovarianceSpec",
    "H1Metadata",
    "H1Spec",
    "ModelKind",
    "ModelSpec",
    "RadialKind",
    "ScenarioKind",
    "ScenarioSpec",
    "build_covariance",
    "derive_rng",
    "derive_seed",
    "gen_coeff",
    "gen_h1_model",
    "gen_innovations",
    "gen_series",
    "resolve_coeff",
]


def derive_rng(master_seed: int, *path) -> np.random.Generator:
    """Independent generator keyed by (master_seed, path).

    Path parts may be short strings (hashed with crc32) or nonnegative ints
    below 2**32, e.g. derive_rng(seed, "rep", 17). Identical inputs always
    produce the identical stream, on any platform.
    """
    return np.random.default_rng(_seed_sequence(master_seed, path))


def derive_seed(master_seed: int, *path) -> int:
    """Deterministic child seed for (master_seed, path), as a plain integer."""
    return int(_seed_sequence(master_seed, path).generate_state(1, np.uint64)[0])


def _seed_sequence(master_seed, path) -> np.random.SeedSequence:
    if isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer)):
        raise InvalidInputError("master_seed must be an integer")
    if master_seed < 0:
        raise InvalidInputError("master_seed must be nonnegative")
    key = []
    for part in path:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, (int, np.integer)) and 0 <= int(part) < 2**32:
            key.append(int(part))
        else:
            raise InvalidInputError(
                f"stream path parts must be strings or uint32 ints, got {part!r}"
            )
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class ScenarioKind(str, Enum):
    NORMAL = "normal"
    STUDENT_T = "t"
    MIXTURE = "mixture"


@dataclass(frozen=True)
class ScenarioSpec:
    """Innovation distribution: which family and its shape parameters.

    df applies to the t family and must exceed 2 so covariances exist. gamma
    is the probability of the unit-scale mixture component; scale_factor
    multiplies the covariance of the inflated component.
    """

    kind: ScenarioKind
    df: float = 3.0
    gamma: float = 0.8
    scale_factor: float = 9.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ScenarioKind(self.kind))
        if self.kind is ScenarioKind.STUDENT_T and not self.df > 2.0:
            raise InvalidSpecError("t innovations need df > 2 for a finite covariance")
        if not 0.0 < self.gamma < 1.0:
            raise InvalidSpecError("gamma must lie strictly between 0 and 1")
        if not self.scale_factor > 0.0:
            raise InvalidSpecError("scale_factor must be positive")

    @classmethod
    def normal(cls) -> "ScenarioSpec":
        return cls(ScenarioKind.NORMAL)

    @classmethod
    def student_t(cls, df: float = 3.0) -> "ScenarioSpec":
        return cls(ScenarioKind.STUDENT_T, df=df)

    @classmethod
    def mixture(cls, gamma: float = 0.8, scale_factor: float = 9.0) -> "ScenarioSpec":
        return cls(ScenarioKind.MIXTURE, gamma=gamma, scale_factor=scale_factor)


class CovarianceKind(str, Enum):
    IDENTITY = "identity"
    POLYDECAY = "polydecay"


@dataclass(frozen=True)
class CovarianceSpec:
    kind: CovarianceKind
    p: int

    def __post_init__(self):
        object.__setattr__(self, "kind", CovarianceKind(self.kind))
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise InvalidSpecError("p must be a positive integer")
        object.__setattr__(self, "p", int(self.p))


def build_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Identity, or unit-diagonal with off-diagonals (1/2) |i-j|^-2."""
    if spec.kind is CovarianceKind.IDENTITY:
        return np.eye(spec.p)
    idx = np.arange(spec.p)
    gap = np.abs(idx[:, None] - idx[None, :])
    with np.errstate(divide="ignore"):
        off = 0.5 / np.maximum(gap, 1) ** 2
    return np.where(gap == 0, 1.0, off)


def _cholesky(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidInputError("covariance must be a square matrix")
    if not np.isfinite(cov).all():
        raise InvalidInputError("covariance contains non-finite entries")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is not positive definite") from exc


def _innovation_factor(cov) -> np.ndarray | None:
    """Cholesky factor of a scatter matrix, or None when it is exactly the identity.

    Rows are z @ L.T, and z @ I is z bit for bit, so the product is skipped.
    """
    L = _cholesky(cov)
    return None if np.array_equal(L, np.eye(L.shape[0])) else L


def _innovation_rows(scenario: ScenarioSpec, L: np.ndarray | None, n: int, p: int,
                     rng) -> np.ndarray:
    """n i.i.d. innovation rows given the _innovation_factor of the scatter matrix."""
    x = rng.standard_normal((n, p))
    if L is not None:
        x = x @ L.T
    if scenario.kind is ScenarioKind.STUDENT_T:
        x /= np.sqrt(rng.chisquare(scenario.df, size=n) / scenario.df)[:, None]
    elif scenario.kind is ScenarioKind.MIXTURE:
        x[rng.random(n) >= scenario.gamma] *= math.sqrt(scenario.scale_factor)
    return x


def gen_innovations(scenario: ScenarioSpec, cov, n: int, seed) -> SeriesMatrix:
    """n i.i.d. rows from the scenario with the given scatter matrix.

    Normal rows are L z; t rows divide by sqrt(chi2_df / df) per row; mixture
    rows inflate by sqrt(scale_factor) with probability 1 - gamma.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidInputError("n must be an integer >= 2")
    L = _innovation_factor(cov)
    return SeriesMatrix(_innovation_rows(scenario, L, int(n), len(cov), _as_generator(seed)))


class CoeffRegime(str, Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class CoeffSpec:
    """Leading m-by-m block of i.i.d. uniform entries, zero elsewhere.

    Dense: m = floor(0.8 p), entries uniform on +-1/(4 sqrt(m)). Sparse:
    m = floor(0.05 p), entries uniform on +-3/(4 sqrt(m)). Explicit supplies
    m, low, high directly.
    """

    regime: CoeffRegime
    p: int
    m: int | None = None
    low: float | None = None
    high: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "regime", CoeffRegime(self.regime))
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise InvalidSpecError("p must be a positive integer")
        object.__setattr__(self, "p", int(self.p))
        if self.regime is CoeffRegime.EXPLICIT:
            if self.m is None or self.low is None or self.high is None:
                raise InvalidSpecError("explicit coefficients need m, low and high")
            if not 1 <= int(self.m) <= self.p:
                raise InvalidSpecError(f"m must lie in [1, p], got {self.m}")
            if not self.low <= self.high:
                raise InvalidSpecError("low must not exceed high")

    def block(self) -> tuple[int, float, float]:
        """Resolved (m, low, high) for this regime."""
        if self.regime is CoeffRegime.EXPLICIT:
            return int(self.m), float(self.low), float(self.high)
        if self.regime is CoeffRegime.DENSE:
            m = int(math.floor(0.8 * self.p))
            half = 1.0 / (4.0 * math.sqrt(m)) if m else 0.0
        else:
            m = int(math.floor(0.05 * self.p))
            half = 3.0 / (4.0 * math.sqrt(m)) if m else 0.0
        if m < 1:
            raise InvalidSpecError(
                f"{self.regime.value} regime needs a bigger p, got block size {m}"
            )
        return m, -half, half


def gen_coeff(spec: CoeffSpec, seed) -> np.ndarray:
    """Draw the coefficient matrix described by a CoeffSpec."""
    m, low, high = spec.block()
    rng = _as_generator(seed)
    A = np.zeros((spec.p, spec.p))
    A[:m, :m] = rng.uniform(low, high, size=(m, m))
    return A


class ModelKind(str, Enum):
    IID = "iid"
    VAR1 = "var1"
    VMA1 = "vma1"
    VARMA1 = "varma1"
    H1_SIGN = "h1"


#: Steps discarded before collecting output, by model kind.
DEFAULT_BURN_IN = {
    ModelKind.IID: 0,
    ModelKind.VAR1: 200,
    ModelKind.VMA1: 1,
    ModelKind.VARMA1: 200,
    ModelKind.H1_SIGN: 0,
}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Temporal model plus its coefficient matrix (spec or explicit array)."""

    kind: ModelKind
    coeff: "CoeffSpec | np.ndarray | None" = None
    burn_in: int | None = None
    h1: "H1Spec | None" = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if self.burn_in is not None and (
            not isinstance(self.burn_in, (int, np.integer)) or self.burn_in < 0
        ):
            raise InvalidSpecError("burn_in must be a nonnegative integer")
        if self.kind is ModelKind.H1_SIGN:
            if self.h1 is None:
                raise InvalidSpecError("h1 model needs an H1Spec")
        elif self.kind is not ModelKind.IID:
            if self.coeff is None:
                raise InvalidSpecError(f"{self.kind.value} model needs a coefficient matrix")
            if not isinstance(self.coeff, CoeffSpec):
                arr = np.asarray(self.coeff, dtype=float)
                if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                    raise InvalidSpecError("explicit coefficient matrix must be square")
                if not np.isfinite(arr).all():
                    raise InvalidSpecError("coefficient matrix contains non-finite entries")
                object.__setattr__(self, "coeff", arr)

    def effective_burn_in(self) -> int:
        return DEFAULT_BURN_IN[self.kind] if self.burn_in is None else int(self.burn_in)


def resolve_coeff(model: ModelSpec, seed) -> np.ndarray | None:
    """Concrete coefficient matrix for a model, drawing from seed if needed."""
    if model.coeff is None:
        return None
    if isinstance(model.coeff, CoeffSpec):
        return gen_coeff(model.coeff, seed)
    return np.asarray(model.coeff, dtype=float)


def _spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def gen_series(model: ModelSpec, scenario: ScenarioSpec, n: int, p: int, seed,
               innov_cov=None) -> SeriesMatrix:
    """Generate n rows from a temporal model after discarding its burn-in.

    One draw of _series_sampler. Innovations come from the scenario with
    identity scatter unless innov_cov is given; the h1 model uses neither.
    A Generator seed is consumed sequentially, coefficients first. An
    integer seed draws h1 rows from (seed, "h1"), and otherwise fixes the
    coefficients from (seed, "coeff") and innovations from (seed, "innov").
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidInputError("n must be an integer >= 2")
    if isinstance(seed, np.random.Generator):
        rng = seed
    elif model.kind is ModelKind.H1_SIGN:
        rng = derive_rng(seed, "h1")
    else:
        rng = derive_rng(seed, "innov")
        model = replace(model, coeff=resolve_coeff(model, derive_rng(seed, "coeff")))
    draw, _ = _series_sampler(model, scenario, n, p, innov_cov)
    return SeriesMatrix(next(draw([rng])))


#: Bytes of innovations one block of replications may hold at once: four
#: VAR(1) replications at n=200, p=80 with the default burn-in of 200.
_BLOCK_BYTES = 1 << 20


def _series_sampler(model: ModelSpec, scenario: ScenarioSpec, n: int, p: int,
                    innov_cov=None) -> tuple[Callable, int]:
    """(draw, reps_per_block) for drawing many series of one model.

    The one draw path: draw(rngs) yields a plain (n, p) float array drawn
    from each generator in turn; reps_per_block is how many generators one
    call should get. What does not depend on the generator is done once,
    here: an h1 spec is checked and Sigma0 factored, or fixed coefficients
    checked and the innovation covariance factored. A CoeffSpec model draws
    each series' coefficients from its generator, then its innovations.
    """
    total = n + model.effective_burn_in()
    reps_per_block = max(1, _BLOCK_BYTES // (8 * total * p))
    if model.kind is ModelKind.H1_SIGN:
        return partial(map, _h1_setup(model.h1, n, p)[-1]), reps_per_block
    if isinstance(model.coeff, CoeffSpec):
        def draw(rngs):
            for rng in rngs:
                A = gen_coeff(model.coeff, rng)
                burn, L = _checked_model(model, A, p, innov_cov)
                yield from _draw_block(model.kind, A, burn, scenario, int(n), int(p), L, [rng])

        return draw, reps_per_block
    A = resolve_coeff(model, None)
    burn, L = _checked_model(model, A, p, innov_cov)
    return (partial(_draw_block, model.kind, A, burn, scenario, int(n), int(p), L),
            reps_per_block)


def _checked_model(model: ModelSpec, A, p: int, innov_cov) -> tuple[int, np.ndarray | None]:
    """Burn-in and _innovation_factor of a model with its coefficients fixed."""
    if A is not None and A.shape != (p, p):
        raise InvalidSpecError(f"coefficient matrix is {A.shape}, expected ({p}, {p})")
    if model.kind is ModelKind.VAR1 and _spectral_radius(A) >= 1.0:
        raise ExplosiveModelError("VAR(1) coefficient matrix has spectral radius >= 1")
    if model.kind is ModelKind.VARMA1 and _spectral_radius(0.5 * A) >= 1.0:
        raise ExplosiveModelError("VARMA(1) autoregressive part has spectral radius >= 1")

    burn = model.effective_burn_in()
    if model.kind is ModelKind.VMA1 and burn < 1:
        raise InvalidSpecError("vma1 needs burn_in >= 1 to seed the lagged innovation")

    if innov_cov is None:
        return burn, None
    if np.shape(innov_cov) != (p, p):
        raise InvalidSpecError(f"innovation covariance must be ({p}, {p})")
    return burn, _innovation_factor(innov_cov)


def _draw_block(kind: ModelKind, A, burn: int, scenario: ScenarioSpec, n: int, p: int,
                L: np.ndarray | None, rngs) -> Iterator[np.ndarray]:
    """One (n, p) float array of a checked model per generator, a view where
    one exists and never validated again; L is the _innovation_factor.

    IID and VMA(1) series are drawn one at a time. VAR(1) and VARMA(1)
    series step through time together, every innovation row first:
    x_0 = z_0, then x_t = A x_{t-1} + z_t, or for VARMA(1)
    x_t = 0.5 A (x_{t-1} + z_{t-1}) + z_t.

    Each series has the same bits whichever generators share its block,
    because of two rules. The stacked (p, p) @ (R, p, 1) product is R
    matrix-vector calls, the same BLAS call as A @ x for one series; a
    single (R, p) @ (p, p) product is not guaranteed to round like it. And
    each series' innovations are one (n + burn, p) product, never split by
    rows, which would also change the rounding.
    """
    total = n + burn
    if kind in (ModelKind.IID, ModelKind.VMA1):
        for rng in rngs:
            Z = _innovation_rows(scenario, L, total, p, rng)
            yield Z[burn:] if kind is ModelKind.IID else (Z[1:] + Z[:-1] @ A.T)[burn - 1:]
        return

    # time-major blocks, row t of series i at [t, i, :, 0]; burn-in rows
    # apart, so that they are freed before the series are used
    R = len(rngs)
    head, body = np.empty((burn, R, p, 1)), np.empty((n, R, p, 1))
    for i, rng in enumerate(rngs):
        Z = _innovation_rows(scenario, L, total, p, rng)
        head[:, i, :, 0], body[:, i, :, 0] = Z[:burn], Z[burn:]
        del Z  # before the next series' innovations are drawn

    varma = kind is ModelKind.VARMA1
    M = 0.5 * A if varma else A
    rows = itertools.chain(head, body)  # row t holds z_t until it is stepped to x_t
    prev = next(rows)  # x_0 = z_0
    lagged = prev.copy()  # z_{t-1}, which VARMA(1) needs after row t-1 is stepped
    step = np.empty_like(prev)
    for cur in rows:
        if varma:
            np.add(prev, lagged, out=lagged)
            np.matmul(M, lagged, out=step)
            lagged[...] = cur
        else:
            np.matmul(M, prev, out=step)
        cur += step
        prev = cur
    del head, rows
    for i in range(R):
        yield body[:, i, :, 0]


class RadialKind(str, Enum):
    CHI_P = "chi_p"
    CONSTANT = "constant"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class H1Spec:
    """Lag-one signed-direction alternative eps_t = A0 r_t u_t + A1 r_{t-1} u_{t-1}.

    sigma0 fixes A0'A0 (a CovarianceSpec or explicit matrix); A1 is
    sigma1_scale times the cyclic coordinate shift, defaulting to 1/sqrt(n)
    at generation time so that tr(Sigma1) = p/n exactly. The shift keeps
    A1'A1 proportional to the identity while leaving tr(A0'A1) = 0 for
    identity sigma0; aligning A1 with A0 instead would add a lag-one mean
    term of the same order as the target signal. The radial law r_t is chi
    with p degrees of freedom, a constant 1, or a custom sampler (which then
    needs radial_c1 unless a numeric estimate is acceptable).
    """

    sigma0: "CovarianceSpec | np.ndarray"
    sigma1_scale: float | None = None
    radial: RadialKind = RadialKind.CHI_P
    radial_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    radial_c1: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "radial", RadialKind(self.radial))
        if not isinstance(self.sigma0, CovarianceSpec):
            object.__setattr__(self, "sigma0", np.asarray(self.sigma0, dtype=float))
        if self.sigma1_scale is not None and not self.sigma1_scale >= 0.0:
            raise InvalidSpecError("sigma1_scale must be nonnegative")
        if self.radial is RadialKind.CUSTOM and self.radial_sampler is None:
            raise InvalidSpecError("custom radial law needs a radial_sampler")
        if self.radial_c1 is not None and not self.radial_c1 >= 1.0:
            raise InvalidSpecError("radial_c1 = E(r) E(1/r) is at least 1")


@dataclass(frozen=True)
class H1Metadata:
    """Population quantities of the generated alternative.

    c1 = E(r) E(1/r); omega = sqrt(tr(Sigma0) / p); the traces feed the
    closed-form power and the shifted normal limit of the sign statistic.
    """

    c1: float
    omega: float
    tr_s0: float
    tr_s0s1: float
    tr_s0sq: float
    sigma1_scale: float


def _h1_setup(spec: H1Spec, n: int, p: int) -> tuple:
    """(Sigma0, tau, c1, rows) of a checked H1Spec at shape (n, p).

    rows(rng) draws one series from n + 1 directions, uniform on the sphere
    as normalized Gaussians, and n + 1 radii; the chi law reuses the
    Gaussian norms, which are independent of the directions, as radii. c1
    is None for a custom law without radial_c1.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidInputError("n must be an integer >= 2")
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise InvalidInputError("p must be an integer >= 2")
    if isinstance(spec.sigma0, CovarianceSpec):
        if spec.sigma0.p != p:
            raise InvalidSpecError(f"sigma0 is for p={spec.sigma0.p}, expected {p}")
        Sigma0 = build_covariance(spec.sigma0)
    else:
        Sigma0 = np.asarray(spec.sigma0, dtype=float)
        if Sigma0.shape != (p, p):
            raise InvalidSpecError(f"sigma0 is {Sigma0.shape}, expected ({p}, {p})")
    A0 = _cholesky(Sigma0).T  # A0' A0 = Sigma0
    tau = float(spec.sigma1_scale) if spec.sigma1_scale is not None else 1.0 / math.sqrt(n)

    if spec.radial is RadialKind.CHI_P:
        radii, c1 = (lambda rng, norms: norms), chi_radial_c1(p)
    elif spec.radial is RadialKind.CONSTANT:
        radii, c1 = (lambda rng, norms: np.ones(n + 1)), 1.0
    else:
        def radii(rng, norms):
            r = np.asarray(spec.radial_sampler(rng, n + 1), dtype=float)
            if r.shape != (n + 1,) or not np.isfinite(r).all() or np.any(r < 0):
                raise InvalidSpecError("radial_sampler must return n+1 finite nonnegative values")
            return r

        c1 = None if spec.radial_c1 is None else float(spec.radial_c1)

    def rows(rng):
        G = rng.standard_normal((n + 1, p))
        norms = np.sqrt((G * G).sum(axis=1))
        if not np.all(norms > ZERO_NORM_THRESHOLD):
            raise InvalidInputError("degenerate sphere draw")
        u = G / norms[:, None]
        ru = radii(rng, norms)[:, None] * u
        # A1 = tau * P with P the cyclic shift: orthogonal, so A1'A1 = tau^2 I
        return ru[1:] @ A0.T + tau * np.roll(ru[:-1], 1, axis=1)

    return Sigma0, tau, c1, rows


def gen_h1_model(spec: H1Spec, n: int, p: int, seed) -> tuple[SeriesMatrix, H1Metadata]:
    """Generate the lag-one alternative and report its population constants.

    The rows are drawn as _series_sampler draws them, from seed or from
    (seed, "h1"). A custom law without radial_c1 has c1 estimated from
    200,000 radii drawn from rng.spawn, which leaves the rows unchanged.
    """
    Sigma0, tau, c1, rows = _h1_setup(spec, n, p)
    rng = derive_rng(seed, "h1") if not isinstance(seed, np.random.Generator) else seed
    eps = rows(rng)
    if c1 is None:
        est = np.asarray(spec.radial_sampler(rng.spawn(1)[0], 200_000), dtype=float)
        c1 = float(est.mean() * (1.0 / est).mean())

    tr_s0 = float(np.trace(Sigma0))
    meta = H1Metadata(
        c1=c1,
        omega=math.sqrt(tr_s0 / p),
        tr_s0=tr_s0,
        tr_s0s1=tau * tau * tr_s0,
        tr_s0sq=float((Sigma0 * Sigma0).sum()),
        sigma1_scale=tau,
    )
    return SeriesMatrix(eps), meta
