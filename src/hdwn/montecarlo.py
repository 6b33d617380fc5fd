"""Replication engine: McConfig -> run_experiment -> McReport of McCells, one per (test, H).

Each replication derives its own random stream from (master_seed, "rep", r),
so a report is a pure function of its config and never depends on the number
of worker threads. The coefficient matrix of a temporal model is drawn once
per experiment from the (master_seed, "coeff") stream and held fixed across
replications. Each executor task draws one block of series into one array,
runs every kernel once on it, and reads the reject flags from the results.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._blas import _single_threaded_blas
from .core import _fraction, _integer, _nonempty
from .dgp import (
    BURN_IN,
    CovarianceKind,
    CovarianceSpec,
    ModelKind,
    ModelSpec,
    ScenarioSpec,
    _h1_law,
    _series_sampler,
    build_covariance,
    derive_rng,
    resolve_coeff,
)
from .errors import HdwnError, InvalidSpecError, McRunError
from .stats_tests import _PANEL, _calibrates, _evaluate_block, _test_names

__all__ = [
    "McCell",
    "McConfig",
    "McReport",
    "run_experiment",
]

#: Replications may error (degenerate data) up to this fraction per cell.
ERROR_BUDGET = 0.01

#: Allocated and freed once, on import. glibc's malloc maps blocks above its
#: mmap threshold (128 kB at start) afresh and hands heap tops above twice
#: that threshold back to the OS; freeing a larger mapped block raises both.
#: Replications and single calls then reuse heap pages for their many
#: 100-400 kB arrays instead of faulting in new ones. Other allocators ignore it.
_ALLOCATOR_WARMUP_BYTES = 4 << 20
np.empty(_ALLOCATOR_WARMUP_BYTES // 8)

#: Bytes one block of replications may take while it is drawn or evaluated:
#: four VAR(1) replications at n=200, p=80 with their burn-in of 200.
_EVAL_BLOCK_BYTES = 1440 << 10

@dataclass(frozen=True, eq=False)
class McConfig:
    """One experiment cell: a data-generating setup crossed with tests and lags.

    Lags must satisfy H <= n-2, one less than the H <= n-1 that single calls
    accept. The pair sum at lag h runs over pairs of the n-h lag-aligned
    rows. At h = n-1 there is one such row and no pair, so that lag's term
    is identically zero. A single call can still report the statistic, but
    in a cell the sqrt(H/2) standardization would count a lag that carries
    no information and shrink every rejection rate. H = n-2 keeps one pair
    in the last lag.

    scenario, model and cov hold a ScenarioSpec, ModelSpec and CovarianceSpec; an h1 cell
    draws its radii from its scenario, and its cov is its Sigma0. Integer fields, master_seed
    too, take Python or numpy integers, never bools or floats, and are stored as int. A refusal
    is an InvalidSpecError naming its field.
    A cell that builds can run, as far as is known without drawing: h1 needs p >= 2, its
    sigma0 must be its cov and a constant radial law normal innovations, coeff must be for p,
    and max and fc need H * p * p >= 3 at every lag. ModelSpec refuses an explosive matrix.
    """

    tests: tuple[str, ...]
    scenario: ScenarioSpec
    model: ModelSpec
    cov: CovarianceSpec
    n: int
    p: int
    H_values: tuple[int, ...]
    reps: int
    master_seed: int = 0
    alpha: float = 0.05
    threads: int | None = None
    label: str = ""

    def __post_init__(self):
        for name, spec in (("scenario", ScenarioSpec), ("model", ModelSpec),
                           ("cov", CovarianceSpec)):
            if not isinstance(value := getattr(self, name), spec):
                raise InvalidSpecError(f"{name} must be a {spec.__name__}, "
                                       f"got {type(value).__name__}")
        object.__setattr__(self, "tests", _test_names(self.tests, InvalidSpecError))
        h1 = self.model.h1  # None unless the model is h1
        for name, low in (("n", 4), ("p", 2 if h1 else 1), ("reps", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low,
                                                    InvalidSpecError))
        object.__setattr__(self, "H_values", tuple(dict.fromkeys(
            _integer(h, "H in H_values", 1, InvalidSpecError)
            for h in _nonempty(self.H_values, "H_values", InvalidSpecError))))
        if max(self.H_values) > self.n - 2:
            raise InvalidSpecError(f"H={max(self.H_values)} must be at most n-2 = {self.n - 2}")
        if {"max", "fc"} & set(self.tests) and not _calibrates(min(self.H_values), self.p):
            raise InvalidSpecError(f"H_values need H * p * p >= 3 for max and fc at p={self.p}")
        object.__setattr__(self, "alpha", _fraction(self.alpha, "alpha", InvalidSpecError))
        if self.threads is not None:
            object.__setattr__(self, "threads", _integer(self.threads, "threads", 1,
                                                         InvalidSpecError))
        if self.cov.p != self.p:
            raise InvalidSpecError(f"cov is for p={self.cov.p}, expected {self.p}")
        coeff = self.model.coeff  # None, a CoeffSpec or a square float array
        size = len(coeff) if isinstance(coeff, np.ndarray) else getattr(coeff, "p", self.p)
        if size != self.p:
            raise InvalidSpecError(f"coeff is for p={size}, expected {self.p}")
        if h1 is not None:
            if h1.sigma0 != self.cov:
                raise InvalidSpecError("sigma0 must be the cell's cov, an h1 cell's Sigma0")
            _h1_law(h1, self.scenario)  # refuses a constant law on other innovations


@dataclass(frozen=True)
class McCell:
    """Aggregated rejection rate for one (test, H) pair."""

    test: str
    H: int
    rejection_rate: float
    mc_se: float
    reps: int
    errors: int


@dataclass(frozen=True, eq=False)
class McReport:
    """Cells plus the config they came from and the wall time spent."""

    cells: tuple[McCell, ...]
    config: McConfig
    wall_time_s: float
    coeff_fingerprint: float | None = None

    def cell(self, test: str, H: int) -> McCell:
        for c in self.cells:
            if c.test == test and c.H == H:
                return c
        raise KeyError((test, H))


def _auto_threads() -> int:
    # BLAS runs single-threaded inside run_experiment, so the executor
    # threads are the only parallelism: one per usable CPU
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, 8)


def _resolve_model(cfg: McConfig) -> tuple[ModelSpec, float | None]:
    """Fix the coefficient matrix once per experiment, tagged off the master seed."""
    model = cfg.model
    if model.coeff is None:
        return model, None
    A = resolve_coeff(model, derive_rng(cfg.master_seed, "coeff"))
    return replace(model, coeff=A), float((A * A).sum())


def _eval_reps(n: int, p: int, burn: int, factored: bool = False) -> int:
    """Replications per block of n x p series after burn steps, at least one.

    The most whose widest stage fits _EVAL_BLOCK_BYTES. The draw stage holds
    the block, its burn-in rows and one series' innovations with 128 KiB of
    scratch for scaling them (numpy's 64 KiB ufunc buffer, the t law's row
    scales or the mixture's inflated rows), twice if a factored scatter
    multiplies them. With 1 KiB of results per series, a Gram stage holds
    the block, one series' n x n Gram and its packed triangle; the max stage
    holds the block, a standardized copy and one p x min(p, _PANEL) lag panel per series.
    """
    words = _EVAL_BLOCK_BYTES // 8
    draw = (words - (1 + factored) * (n + burn) * p - 16384) // ((n + burn) * p)
    gram = (words - n * n - n * (n - 1) // 2) // (n * p + 128)
    return max(1, min(draw, gram, words // (2 * n * p + p * min(p, _PANEL) + 128)))


@_single_threaded_blas()
def run_experiment(cfg: McConfig) -> McReport:
    """Run every requested test at every lag window over reps replications.

    Replication r generates one series from the stream (master_seed, "rep", r)
    and records a reject flag per (test, H). A replication where a (test, H)
    pair errs, as on degenerate data, is excluded from that cell's denominator
    and counted; a cell whose error fraction exceeds 1% fails the whole run.

    Each executor task draws one block of consecutive replications into one
    array and evaluates it there; a VAR(1) or VARMA(1) block steps its series
    together. Blocks hold at most _eval_reps series, are of near-equal sizes,
    and come in a multiple of the thread count unless there are fewer
    replications. A replication's bits depend on neither its block nor the
    thread count. BLAS runs single-threaded throughout, so the bits of every
    statistic depend on neither the executor nor the BLAS thread count.
    """
    start = time.perf_counter()
    model, fingerprint = _resolve_model(cfg)
    cov = None if model.kind is ModelKind.H1_SIGN else build_covariance(cfg.cov)
    draw = _series_sampler(model, cfg.scenario, cfg.n, cfg.p, cov)
    threads = cfg.threads if cfg.threads is not None else _auto_threads()
    factored = cov is not None and cfg.cov.kind is not CovarianceKind.IDENTITY
    R = _eval_reps(cfg.n, cfg.p, BURN_IN[model.kind], factored)
    blocks = min(cfg.reps, threads * -(-cfg.reps // (threads * R)))

    def one_block(i: int) -> dict[str, list]:
        # per test and replication, by window: a reject flag or "Type: message"
        reps = range(i * cfg.reps // blocks, (i + 1) * cfg.reps // blocks)
        found = _evaluate_block(draw([derive_rng(cfg.master_seed, "rep", r) for r in reps]),
                                cfg.tests, cfg.H_values)
        return {name: [[f"{type(w).__name__}: {w}" if isinstance(w, HdwnError)
                        else w[2] < cfg.alpha for w in entry] for entry in found[name]]
                for name in cfg.tests}

    if threads == 1:
        tasks = [one_block(i) for i in range(blocks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tasks = list(pool.map(one_block, range(blocks)))

    cells = []
    over_budget = []
    for name in cfg.tests:
        per_rep = [flags for task in tasks for flags in task[name]]
        for k, H in enumerate(cfg.H_values):
            window = [flags[k] for flags in per_rep]
            causes = Counter(flag for flag in window if isinstance(flag, str))
            errored = causes.total()
            effective = cfg.reps - errored
            if errored > ERROR_BUDGET * cfg.reps:
                cause, count = causes.most_common(1)[0]
                over_budget.append(f"{name}@H={H}: {errored} errors, {count} of them {cause}")
                continue
            rate = sum(flag for flag in window if not isinstance(flag, str)) / effective
            se = math.sqrt(rate * (1.0 - rate) / effective)
            cells.append(McCell(name, H, rate, se, effective, errored))
    if over_budget:
        raise McRunError(f"error budget exceeded in {cfg.reps} reps ({'; '.join(over_budget)})")

    return McReport(
        cells=tuple(cells),
        config=cfg,
        wall_time_s=time.perf_counter() - start,
        coeff_fingerprint=fingerprint,
    )

