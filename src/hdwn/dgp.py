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
from typing import Callable

import numpy as np

from ._blas import _single_threaded_blas
from .core import _floats, _fraction, _integer, _real, _typed
from .errors import (
    ExplosiveModelError,
    InvalidInputError,
    InvalidSpecError,
    NotPositiveDefiniteError,
)
from .power_theory import MixtureNormal, Normal, RadialDistribution, StudentT, radial_moments

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
    "gen_series",
]


def derive_rng(master_seed: int, *path) -> np.random.Generator:
    """Independent generator keyed by (master_seed, path).

    Path parts may be short strings (hashed with crc32) or nonnegative ints, not
    bools, below 2**32, e.g. derive_rng(seed, "rep", 17). Identical inputs always
    produce the identical stream, on any platform.
    """
    return np.random.default_rng(_seed_sequence(master_seed, path))


def derive_seed(master_seed: int, *path) -> int:
    """Deterministic child seed for (master_seed, path), as a plain integer."""
    return int(_seed_sequence(master_seed, path).generate_state(1, np.uint64)[0])


def _stream(seed, tag: str) -> np.random.Generator:
    """A Generator seed as is, consumed by its caller, or the stream (seed, tag) of an
    integer seed >= 0: the one reading of a generator's seed."""
    given = isinstance(seed, np.random.Generator)
    return seed if given else derive_rng(_integer(seed, "seed", 0), tag)


def _seed_sequence(master_seed, path) -> np.random.SeedSequence:
    entropy = _integer(master_seed, "master_seed", 0)
    key = []
    for part in path:
        if isinstance(part, str):
            part = zlib.crc32(part.encode("utf-8"))
        elif (part := _integer(part, "stream path part", 0)) >= 2**32:
            raise InvalidInputError(f"stream path part must be below 2**32, got {part!r}")
        key.append(part)
    return np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key))


def _member(kind: type[Enum], value) -> Enum:
    """The member of a kind enum with this value, or InvalidSpecError naming the allowed values."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in kind)
        raise InvalidSpecError(
            f"{value!r} is not a valid {kind.__name__}; expected one of {allowed}") from None


class ScenarioKind(str, Enum):
    NORMAL = "normal"
    STUDENT_T = "t"
    MIXTURE = "mixture"


#: The shape parameters each innovation family reads, with their defaults.
FAMILY_PARAMS = {ScenarioKind.NORMAL: {}, ScenarioKind.STUDENT_T: {"df": 3.0},
                 ScenarioKind.MIXTURE: {"gamma": 0.8, "scale_factor": 9.0}}


@dataclass(frozen=True)
class ScenarioSpec:
    """Innovation distribution: which family and its shape parameters.

    A family takes only the parameters FAMILY_PARAMS lists for it, where None
    means its default, and refuses the others. t takes df, above 2 so that
    covariances exist; mixture takes gamma, the probability of its unit-scale
    component, and scale_factor, which multiplies its inflated covariance.
    With scatter matrix L L', normal rows are L z; t rows divide them by
    sqrt(chi2_df / df) per row; mixture rows inflate them by sqrt(scale_factor)
    with probability 1 - gamma.
    """

    kind: ScenarioKind
    df: float | None = None
    gamma: float | None = None
    scale_factor: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _member(ScenarioKind, self.kind))
        reads = FAMILY_PARAMS[self.kind]
        for name in ("df", "gamma", "scale_factor"):
            if name not in reads and getattr(self, name) is not None:
                raise InvalidSpecError(f"{self.kind.value} innovations take no {name}")
        for name, default in reads.items():
            value = default if getattr(self, name) is None else getattr(self, name)
            check = _fraction if name == "gamma" else _real
            object.__setattr__(self, name, check(value, name, InvalidSpecError))
        if self.kind is ScenarioKind.STUDENT_T and not self.df > 2.0:
            raise InvalidSpecError("t innovations need df > 2 for a finite covariance")
        if self.kind is ScenarioKind.MIXTURE and not self.scale_factor > 0.0:
            raise InvalidSpecError("scale_factor must be positive")

    @classmethod
    def normal(cls) -> "ScenarioSpec":
        return cls(ScenarioKind.NORMAL)

    @classmethod
    def student_t(cls, df: float | None = None) -> "ScenarioSpec":
        return cls(ScenarioKind.STUDENT_T, df=df)

    @classmethod
    def mixture(cls, gamma: float | None = None,
                scale_factor: float | None = None) -> "ScenarioSpec":
        return cls(ScenarioKind.MIXTURE, gamma=gamma, scale_factor=scale_factor)


class CovarianceKind(str, Enum):
    IDENTITY = "identity"
    POLYDECAY = "polydecay"


@dataclass(frozen=True)
class CovarianceSpec:
    kind: CovarianceKind
    p: int

    def __post_init__(self):
        object.__setattr__(self, "kind", _member(CovarianceKind, self.kind))
        object.__setattr__(self, "p", _integer(self.p, "p", 1, InvalidSpecError))


def build_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Identity, or unit-diagonal with off-diagonals (1/2) |i-j|^-2."""
    if spec.kind is CovarianceKind.IDENTITY:
        return np.eye(spec.p)
    idx = np.arange(spec.p)
    gap = np.abs(idx[:, None] - idx[None, :])
    off = 0.5 / np.maximum(gap, 1) ** 2
    return np.where(gap == 0, 1.0, off)


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a square float array, which the callers check."""
    try:
        with _single_threaded_blas():
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


class CoeffRegime(str, Enum):
    DENSE = "dense"
    SPARSE = "sparse"


@dataclass(frozen=True)
class CoeffSpec:
    """Leading m-by-m block of i.i.d. uniform entries, zero elsewhere.

    Dense: m = floor(0.8 p), entries uniform on +-1/(4 sqrt(m)). Sparse:
    m = floor(0.05 p), entries uniform on +-3/(4 sqrt(m)). Any other matrix
    is passed to ModelSpec as an array.
    """

    regime: CoeffRegime
    p: int

    def __post_init__(self):
        object.__setattr__(self, "regime", _member(CoeffRegime, self.regime))
        object.__setattr__(self, "p", _integer(self.p, "p", 1, InvalidSpecError))
        self.block()  # refuses a p too small for the regime's block

    def block(self) -> tuple[int, float, float]:
        """Resolved (m, low, high) for this regime."""
        share, width = (0.8, 1.0) if self.regime is CoeffRegime.DENSE else (0.05, 3.0)
        m = int(math.floor(share * self.p))
        if m < 1:
            raise InvalidSpecError(
                f"{self.regime.value} regime needs a bigger p, got block size {m}"
            )
        half = width / (4.0 * math.sqrt(m))
        return m, -half, half


def gen_coeff(spec: CoeffSpec, seed) -> np.ndarray:
    """The matrix of a CoeffSpec drawn from a Generator, consumed as is, or from the stream
    (seed, "coeff") of an integer seed >= 0, as gen_series and run_experiment draw it."""
    m, low, high = spec.block()
    A = np.zeros((spec.p, spec.p))
    A[:m, :m] = _stream(seed, "coeff").uniform(low, high, size=(m, m))
    return A


class ModelKind(str, Enum):
    IID = "iid"
    VAR1 = "var1"
    VMA1 = "vma1"
    VARMA1 = "varma1"
    H1_SIGN = "h1"


#: Steps discarded before collecting output, by model kind.
BURN_IN = {
    ModelKind.IID: 0,
    ModelKind.VAR1: 200,
    ModelKind.VMA1: 1,
    ModelKind.VARMA1: 200,
    ModelKind.H1_SIGN: 0,
}


def _indexable(n: int, p: int, error=InvalidInputError) -> tuple[int, int]:
    """n and p as given, refused when n rows past the longest burn-in, of p floats
    each, take more bytes than numpy can index."""
    if (n + max(BURN_IN.values()) + 1) * p > np.iinfo(np.intp).max // 8:
        raise error(f"an n={n} by p={p} draw has more entries than numpy can index")
    return n, p


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Temporal model plus its coefficient matrix (spec or explicit array).

    var1, vma1 and varma1 need a coefficient matrix, which no other model takes; an explicit
    var1 or varma1 one must be stationary. Only h1 takes an H1Spec, and needs it. A model
    discards the BURN_IN steps of its kind before its output rows.
    """

    kind: ModelKind
    coeff: "CoeffSpec | np.ndarray | None" = None
    h1: "H1Spec | None" = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _member(ModelKind, self.kind))
        if (self.h1 is None) is (self.kind is ModelKind.H1_SIGN):
            raise InvalidSpecError("h1 model needs an H1Spec, which no other model takes")
        if self.h1 is not None:
            _typed(self.h1, H1Spec, "h1")
        if (self.coeff is None) is (self.kind not in (ModelKind.IID, ModelKind.H1_SIGN)):
            need = "needs a" if self.coeff is None else "takes no"
            raise InvalidSpecError(f"{self.kind.value} model {need} coefficient matrix")
        if self.coeff is not None and not isinstance(self.coeff, CoeffSpec):
            arr = _floats(self.coeff, "coefficient matrix", InvalidSpecError)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise InvalidSpecError("explicit coefficient matrix must be square")
            if self.kind is ModelKind.VAR1 and _spectral_radius(arr) >= 1.0:
                raise ExplosiveModelError("VAR(1) coefficient matrix has spectral radius >= 1")
            if self.kind is ModelKind.VARMA1 and _spectral_radius(0.5 * arr) >= 1.0:
                raise ExplosiveModelError("VARMA(1) autoregressive part has spectral radius >= 1")
            object.__setattr__(self, "coeff", arr)


def resolve_coeff(model: ModelSpec, seed) -> np.ndarray | None:
    """Concrete coefficient matrix for a model, drawing a CoeffSpec from seed; an
    explicit matrix, a float array as ModelSpec stores it, or None comes back as is."""
    return gen_coeff(model.coeff, seed) if isinstance(model.coeff, CoeffSpec) else model.coeff


def _spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def gen_series(model: ModelSpec, scenario: ScenarioSpec, n: int, p: int, seed,
               innov_cov=None) -> np.ndarray:
    """Generate n rows from a temporal model after discarding its burn-in.

    One draw of _series_sampler, returned as the fresh (n, p) float array it
    made, which the caller owns. Innovations come from the scenario with
    identity scatter unless innov_cov is given; h1 refuses it for its sigma0.
    A CoeffSpec's matrix is gen_coeff's draw from the same seed, and an explicit one is
    used as given. A Generator seed is then consumed for the rows, and an integer one
    draws them from (seed, "h1") or (seed, "innov").
    """
    n, p = _indexable(_integer(n, "n", 2), _integer(p, "p", 1))
    if isinstance(model.coeff, CoeffSpec):  # fixed as run_experiment fixes them
        model = replace(model, coeff=gen_coeff(model.coeff, seed))
    rng = _stream(seed, "h1" if model.kind is ModelKind.H1_SIGN else "innov")
    return _series_sampler(model, scenario, n, p, innov_cov)([rng])[0]


def _series_sampler(model: ModelSpec, scenario: ScenarioSpec, n: int, p: int,
                    innov_cov=None) -> Callable:
    """draw(rngs) for many series of a model whose coefficients are fixed.

    The one draw path: draw(rngs) returns one C-contiguous (len(rngs), n, p)
    float array whose slot i is the series drawn from rngs[i]. What does not
    depend on the generator is done once, here: an h1 spec is checked and
    Sigma0 factored, or the coefficient matrix, which ModelSpec has checked,
    sized against p and the innovation covariance factored. A CoeffSpec is
    replaced by its matrix first.
    """
    if model.kind is ModelKind.H1_SIGN:
        if innov_cov is not None:
            raise InvalidSpecError("an h1 series takes no innov_cov: its scatter is its sigma0")
        rows = _h1_setup(model.h1, scenario, n, p)[-1]
        return partial(_draw_block, model.kind, None, 0, rows, n, p)
    A, burn = model.coeff, BURN_IN[model.kind]
    if A is not None and A.shape != (p, p):
        raise InvalidSpecError(f"coefficient matrix is {A.shape}, expected ({p}, {p})")
    cov = None if innov_cov is None else _floats(innov_cov, "innovation covariance")
    if cov is not None and cov.shape != (p, p):
        raise InvalidSpecError(f"innovation covariance must be ({p}, {p})")
    L = None if cov is None else _innovation_factor(cov)
    rows = partial(_innovation_rows, scenario, L, n + burn, p)
    return partial(_draw_block, model.kind, A, burn, rows, n, p)


@_single_threaded_blas()
def _draw_block(kind: ModelKind, A, burn: int, rows: Callable, n: int, p: int,
                rngs) -> np.ndarray:
    """The series of a checked model drawn from each generator in turn, as one
    (len(rngs), n, p) float array never validated again; rows(rng) draws one
    series' innovation rows, burn-in included, or an h1 series' rows.

    One loop fills every slot: each series' rows are drawn, VMA(1) takes
    its moving average x_t = z_t + A z_{t-1}, and the last n rows go into
    the series' slot. VAR(1) and VARMA(1) also keep their leading burn rows
    in an array of their own, freed before return, and then step all their
    series through time together: x_0 = z_0, then x_t = A x_{t-1} + z_t, or
    for VARMA(1) x_t = 0.5 A (x_{t-1} + z_{t-1}) + z_t, in place through
    the time-major view of the returned array.

    Each series has the same bits whichever generators share its block,
    because of two rules. The stacked (p, p) @ (R, p, 1) product is R
    matrix-vector calls, the same BLAS call as A @ x for one series; a
    single (R, p) @ (p, p) product is not guaranteed to round like it. And
    each series' innovations are one (n + burn, p) product, never split by
    rows, which would also change the rounding.
    """
    recursive = kind in (ModelKind.VAR1, ModelKind.VARMA1)
    # row t of series i at head[t, i, :, 0], or once past the burn-in at out[i, t]
    out = np.empty((len(rngs), n, p))
    head = np.empty((burn if recursive else 0, len(rngs), p, 1))
    for i, rng in enumerate(rngs):
        Z = rows(rng)
        if kind is ModelKind.VMA1:
            Z = Z[1:] + Z[:-1] @ A.T
        head[:, i, :, 0], out[i] = Z[:len(head)], Z[-n:]
        del Z  # before the next series' rows are drawn
    if not recursive:
        return out

    varma = kind is ModelKind.VARMA1
    M = 0.5 * A if varma else A
    times = itertools.chain(head, out.transpose(1, 0, 2)[..., None])  # z_t until stepped
    prev = next(times)  # x_0 = z_0
    lagged = prev.copy()  # z_{t-1}, which VARMA(1) needs after row t-1 is stepped
    step = np.empty_like(prev)
    for cur in times:
        if varma:
            np.add(prev, lagged, out=lagged)
            np.matmul(M, lagged, out=step)
            lagged[...] = cur
        else:
            np.matmul(M, prev, out=step)
        cur += step
        prev = cur
    return out


class RadialKind(str, Enum):
    CHI_P = "chi_p"
    CONSTANT = "constant"


@dataclass(frozen=True, eq=False)
class H1Spec:
    """Lag-one signed-direction alternative eps_t = A0 r_t u_t + A1 r_{t-1} u_{t-1}.

    sigma0, a CovarianceSpec, fixes A0'A0; A1 is sigma1_scale times the
    cyclic coordinate shift, defaulting to 1/sqrt(n) at generation time so
    that tr(Sigma1) = p/n exactly. The shift keeps A1'A1 proportional to the
    identity while leaving tr(A0'A1) = 0 for identity sigma0; aligning A1
    with A0 instead would add a lag-one mean term of the same order as the
    target signal. For chi_p, r_t u_t is a row
    of the series' innovations with identity scatter, so r_t is chi with p
    degrees of freedom times the t or mixture scale; constant takes normal
    innovations alone and sets r_t = 1.
    """

    sigma0: CovarianceSpec
    sigma1_scale: float | None = None
    radial: RadialKind = RadialKind.CHI_P

    def __post_init__(self):
        object.__setattr__(self, "radial", _member(RadialKind, self.radial))
        _typed(self.sigma0, CovarianceSpec, "sigma0")
        if (value := self.sigma1_scale) is not None:
            object.__setattr__(self, "sigma1_scale", _real(value, "sigma1_scale", InvalidSpecError))
            if not self.sigma1_scale >= 0.0:
                raise InvalidSpecError(f"sigma1_scale must be at least 0.0, got {value!r}")


@dataclass(frozen=True)
class H1Metadata:
    """Population quantities of the generated alternative.

    c1 = E(r) E(1/r); omega = sqrt(tr(Sigma0) / p); the traces feed the closed-form power
    and the shifted normal limit of the sign statistic. Under this draw flm's shift has
    moment factor 1, so the efficiency of ss relative to flm here is c1^2.
    """

    c1: float
    omega: float
    tr_s0: float
    tr_s0s1: float
    tr_s0sq: float
    sigma1_scale: float


def _radial_law(scenario: ScenarioSpec) -> RadialDistribution:
    """The power_theory law of the radius r = w chi_p of a scenario's rows with identity
    scatter: the one map from a scenario's parameters to a law's.

    Normal and t(df) innovations are Normal() and StudentT(df); the mixture,
    inflated with probability 1 - gamma, is the MixtureNormal with v = 1 - gamma, held
    one ulp below 1 where it rounds up, and sigma = sqrt(scale_factor).
    """
    if scenario.kind is ScenarioKind.STUDENT_T:
        return StudentT(scenario.df)
    if scenario.kind is ScenarioKind.MIXTURE:
        return MixtureNormal(min(1.0 - scenario.gamma, math.nextafter(1.0, 0.0)),
                             math.sqrt(scenario.scale_factor))
    return Normal()


def _h1_law(spec: H1Spec, scenario: ScenarioSpec) -> RadialDistribution | None:
    """The _radial_law of an h1 series' scenario, or None for the constant law,
    which takes normal innovations alone."""
    if spec.radial is not RadialKind.CONSTANT:
        return _radial_law(scenario)
    if scenario.kind is not ScenarioKind.NORMAL:
        raise InvalidSpecError(f"constant radial law takes normal innovations, "
                               f"got {scenario.kind.value}")
    return None


def _h1_setup(spec: H1Spec, scenario: ScenarioSpec, n: int, p: int) -> tuple:
    """(Sigma0, tau, law, rows) of a checked H1Spec at shape (n, p), law as _h1_law's.

    rows(rng) draws one series from n + 1 rows r_t u_t: the scenario's
    innovations with identity scatter, divided by their norms for constant.
    """
    n, p = _indexable(_integer(n, "n", 2), _integer(p, "p", 2))
    law = _h1_law(spec, scenario)
    Sigma0 = build_covariance(spec.sigma0)
    if Sigma0.shape != (p, p):
        raise InvalidSpecError(f"sigma0 is {Sigma0.shape}, expected ({p}, {p})")
    A0 = _cholesky(Sigma0).T  # A0' A0 = Sigma0
    tau = spec.sigma1_scale if spec.sigma1_scale is not None else 1.0 / math.sqrt(n)

    def rows(rng):
        ru = _innovation_rows(scenario, None, n + 1, p, rng)
        if law is None:
            ru /= np.sqrt((ru * ru).sum(axis=1))[:, None]
        # A1 = tau * P with P the cyclic shift: orthogonal, so A1'A1 = tau^2 I
        return ru[1:] @ A0.T + tau * np.roll(ru[:-1], 1, axis=1)

    return Sigma0, tau, law, rows


def gen_h1_model(spec: H1Spec, n: int, p: int, seed,
                 scenario: ScenarioSpec | None = None) -> tuple[np.ndarray, H1Metadata]:
    """Generate the lag-one alternative and report its population constants.

    The rows, a fresh (n, p) float array the caller owns, are gen_series' draw of an h1
    model for the scenario, normal if None, from the same seed. c1 is 1 for the constant
    law and otherwise radial_moments' closed form for the law of the radii.
    """
    Sigma0, tau, law, rows = _h1_setup(spec, scenario or ScenarioSpec.normal(), n, p)
    eps = _draw_block(ModelKind.H1_SIGN, None, 0, rows, n, p, [_stream(seed, "h1")])[0]
    c1 = 1.0 if law is None else radial_moments(law, p).c1
    tr_s0 = float(np.trace(Sigma0))
    return eps, H1Metadata(
        c1=c1, omega=math.sqrt(tr_s0 / p), tr_s0=tr_s0, tr_s0s1=tau * tau * tr_s0,
        tr_s0sq=float((Sigma0 * Sigma0).sum()), sigma1_scale=tau)
