"""Closed-form asymptotic power and relative-efficiency formulas.

The limiting power of the sign sum test is Phi(-z_alpha + shift) with shift
c1^2 n tr(S0 S1) / (sqrt(2) tr(S0^2)), where c1 = E(r) E(1/r) for the radial
variable of the elliptical decomposition; the raw sum test replaces c1^2 by
E^2(r)/E(r^2). Their efficiency ratio is lim E^2(1/r) E(r^2).

Every family's radius is r = w chi_p, the norm of one of its innovation rows
with identity scatter: chi_p from the normal directions times a scale w that
is 1 (normal), sqrt(v / chi2_v) (t) or sigma with probability v and 1
otherwise (mixture). So each moment is the scale's moment times chi_p's, and
the efficiency ratio tends to E^2(1/w) E(w^2).

All gamma ratios are evaluated in log space with the standard library's
math.lgamma; Gamma(p/2) overflows quickly otherwise. chi_radial_c1 agrees
with scipy's gammaln to 3e-12 relative below 1e3 degrees of freedom; past
that its series is within 1e-12 of mpmath up to 1e7 (log-gammas: 2e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _fraction, _integer, _normal_upper_tail, _real, normal_upper_quantile
from .errors import InvalidInputError, UndefinedMomentError

__all__ = [
    "MixtureNormal",
    "Normal",
    "PowerInput",
    "RadialMoments",
    "StudentT",
    "are_ss_flm",
    "chi_radial_c1",
    "power_flm",
    "power_ss",
    "radial_moments",
]


@dataclass(frozen=True)
class Normal:
    """Standard normal directions; the radial part is chi with p dof."""


@dataclass(frozen=True)
class StudentT:
    """Multivariate t directions with v degrees of freedom (v > 2)."""

    v: float

    def __post_init__(self):
        object.__setattr__(self, "v", _real(self.v, "v"))
        if not self.v > 2.0:
            raise UndefinedMomentError("StudentT needs v > 2 for a finite second moment")


@dataclass(frozen=True)
class MixtureNormal:
    """Two-component normal scale mixture.

    v is the weight of the inflated component and sigma its standard
    deviation multiplier, so the density is (1-v) N(0, I) + v N(0, sigma^2 I)
    and the scale w is sigma with probability v and 1 otherwise. The mixture
    scenario's gamma and scale_factor are 1 - v and sigma^2 (dgp._radial_law).
    """

    v: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "v", _fraction(self.v, "mixture weight v"))
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if not self.sigma > 0.0:
            raise InvalidInputError("sigma must be positive")


RadialDistribution = Normal | StudentT | MixtureNormal


def chi_radial_c1(dof: float) -> float:
    """E(R) * E(1/R) for R chi-distributed with the given degrees of freedom.

    Gamma(x + 1/2) Gamma(x - 1/2) / Gamma(x)^2 with x = dof/2; from 1e3 dof on,
    its log is the asymptotic series in 1/x, first omitted term 1/(384 x^6).
    """
    if not _real(dof, "dof") > 1.0:
        raise UndefinedMomentError("chi radial c1 needs more than 1 degree of freedom")
    if dof < 1e3:
        return math.exp(math.lgamma((dof + 1.0) / 2.0) + math.lgamma((dof - 1.0) / 2.0)
                        - 2.0 * math.lgamma(dof / 2.0))
    t = 2.0 / dof
    return math.exp(t * (1 / 4 + t * (1 / 8 + t * (5 / 96 + t * (1 / 64 + t / 320)))))


@dataclass(frozen=True)
class PowerInput:
    """Inputs to the limiting power formulas.

    tr_s0s1 and tr_s0sq are tr(Sigma0 Sigma1) and tr(Sigma0^2); c1 feeds the
    sign test and moment_ratio = E^2(r)/E(r^2) feeds the raw-vector test.
    """

    n: int
    tr_s0s1: float
    tr_s0sq: float
    c1: float = 1.0
    moment_ratio: float = 1.0
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "alpha", _fraction(self.alpha, "alpha"))
        for name in ("tr_s0s1", "tr_s0sq", "c1", "moment_ratio"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not self.tr_s0sq > 0.0:
            raise InvalidInputError("tr_s0sq must be positive")
        if not self.c1 >= 1.0:
            raise InvalidInputError("c1 = E(r) E(1/r) is at least 1")
        if not 0.0 < self.moment_ratio <= 1.0 + 1e-12:
            raise InvalidInputError("moment_ratio = E^2(r)/E(r^2) must lie in (0, 1]")


def _power(inputs: PowerInput, factor: float) -> float:
    shift = factor * inputs.n * inputs.tr_s0s1 / (math.sqrt(2.0) * inputs.tr_s0sq)
    return _normal_upper_tail(normal_upper_quantile(inputs.alpha) - shift)


def power_ss(inputs: PowerInput) -> float:
    """Limiting power of the sign sum test under the lag-one alternative."""
    return _power(inputs, inputs.c1**2)


def power_flm(inputs: PowerInput) -> float:
    """Limiting power of the raw-vector sum test under the same alternative."""
    return _power(inputs, inputs.moment_ratio)


@dataclass(frozen=True)
class RadialMoments:
    """Finite-p radial moments: E(1/r), E(r^2), and c1 = E(r) E(1/r)."""

    e_r_inv: float
    e_r2: float
    c1: float


def _scale_moments(dist: RadialDistribution) -> tuple[float, float, float]:
    """E(1/w), E(w^2) and E(w) E(1/w) of the scale w in the radius r = w chi_p."""
    if isinstance(dist, Normal):
        return 1.0, 1.0, 1.0
    if isinstance(dist, StudentT):
        v = dist.v
        e_w_inv = math.sqrt(2.0 / v) * math.exp(math.lgamma((v + 1.0) / 2.0) - math.lgamma(v / 2.0))
        return e_w_inv, v / (v - 2.0), chi_radial_c1(v)
    if isinstance(dist, MixtureNormal):
        v, s = dist.v, dist.sigma
        e_w_inv = 1.0 - v + v / s
        return e_w_inv, 1.0 - v + v * s * s, (1.0 - v + v * s) * e_w_inv
    raise InvalidInputError(f"unsupported distribution {dist!r}")


def radial_moments(dist: RadialDistribution, p: int) -> RadialMoments:
    """Closed-form moments of the radius r = w chi_p at dimension p.

    Each is the scale's moment times chi_p's: E(1/r) = E(1/w) E(1/chi_p),
    E(r^2) = E(w^2) p and c1 = E(w) E(1/w) chi_radial_c1(p).
    """
    p = _integer(p, "p", 2)
    e_w_inv, e_w2, c1_w = _scale_moments(dist)
    e_chi_inv = math.exp(math.lgamma((p - 1) / 2.0) - math.lgamma(p / 2.0)) / math.sqrt(2.0)
    return RadialMoments(e_w_inv * e_chi_inv, e_w2 * p, c1_w * chi_radial_c1(p))


def are_ss_flm(dist: RadialDistribution) -> float:
    """Large-p efficiency of the sign sum test relative to the raw sum test.

    The large-p limit of E^2(1/r) E(r^2), which is E^2(1/w) E(w^2) of the scale:
    exactly 1 for normal directions, 2/(v-2) (Gamma((v+1)/2)/Gamma(v/2))^2
    for t(v), and (1-v+v/sigma)^2 (1-v+v sigma^2) for the mixture. Always at
    least 1, by Jensen's inequality.
    """
    e_w_inv, e_w2, _ = _scale_moments(dist)
    return e_w_inv * e_w_inv * e_w2
