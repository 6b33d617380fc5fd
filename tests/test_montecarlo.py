"""Replication engine: determinism, error budget, orderings, table layout."""

import math
import os
import platform
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hdwn
import hdwn.montecarlo as mc

from hdwn import (
    CoeffSpec,
    CovarianceSpec,
    H1Spec,
    InvalidSpecError,
    McConfig,
    McRunError,
    ModelKind,
    ModelSpec,
    ScenarioSpec,
    run_experiment,
)
from hdwn.dgp import BURN_IN


def null_config(**overrides):
    base = dict(
        tests=("ss", "flm"),
        scenario=ScenarioSpec.normal(),
        model=ModelSpec(ModelKind.IID),
        cov=CovarianceSpec("identity", 5),
        n=30,
        p=5,
        H_values=(1,),
        reps=40,
        master_seed=0,
        threads=1,
    )
    base.update(overrides)
    return McConfig(**base)


class TestRunExperiment:
    def test_single_rep_rate_is_binary(self):
        report = run_experiment(null_config(reps=1))
        for cell in report.cells:
            assert cell.rejection_rate in (0.0, 1.0)

    def test_thread_count_does_not_change_cells(self):
        a = run_experiment(null_config(reps=60, threads=1))
        b = run_experiment(null_config(reps=60, threads=4))
        assert a.cells == b.cells

    @pytest.mark.parametrize("kind", (ModelKind.VAR1, ModelKind.VARMA1))
    def test_thread_count_does_not_change_recursive_cells(self, kind):
        # at n=50, p=80 a block holds 7 replications, so 13 make two or three blocks
        cfg = null_config(
            tests=("ss", "flm", "max", "fc"),
            scenario=ScenarioSpec.student_t(3),
            model=ModelSpec(kind, coeff=CoeffSpec("dense", 80)),
            cov=CovarianceSpec("polydecay", 80),
            n=50, p=80, H_values=(1, 3), reps=13,
        )
        reports = [run_experiment(replace(cfg, threads=t)) for t in (1, 2, 3)]
        assert reports[0].cells == reports[1].cells == reports[2].cells

    def test_tasks_split_evenly_over_threads(self, monkeypatch):
        # each task is one evaluation block
        sizes = []
        real = mc._evaluate_block

        def record(X, tests, H_values, **kw):
            sizes.append(len(X))
            return real(X, tests, H_values, **kw)

        monkeypatch.setattr(mc, "_evaluate_block", record)
        # every preset shape at 50 reps and 2 threads: table1's IID cells and
        # table2's VAR(1) cell, whose burn-in the draw stage counts
        cells = [(ModelSpec(ModelKind.IID), n, p) for n in (100, 200) for p in (40, 80, 120)]
        cells.append((ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 80)), 200, 80))
        for model, n, p in cells:
            sizes.clear()
            run_experiment(null_config(model=model, cov=CovarianceSpec("identity", p), n=n, p=p,
                                       reps=50, threads=2))
            R = mc._eval_reps(n, p, BURN_IN[model.kind])
            assert sum(sizes) == 50 and len(sizes) % 2 == 0, (n, p, sizes)
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= R, (n, p, sizes)
        # blocks of near-equal sizes: 13 at most 4 at a time is 3, 3, 3, 4,
        # not 4, 4, 4, 1
        sizes.clear()
        monkeypatch.setattr(mc, "_eval_reps", lambda n, p, burn, factored: 4)
        run_experiment(null_config(reps=13, threads=1))
        assert sizes == [3, 3, 3, 4]
        sizes.clear()
        monkeypatch.setattr(mc, "_eval_reps", lambda n, p, burn, factored: 2)
        run_experiment(null_config(reps=13, threads=1))
        assert sizes == [1, 2, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("model", (ModelSpec(ModelKind.IID),
                                       ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5)),
                                       ModelSpec(ModelKind.H1_SIGN,
                                                 h1=H1Spec(CovarianceSpec("identity", 5)))))
    def test_replications_check_no_series(self, model, monkeypatch):
        # the sampler yields plain arrays; only the public calls validate, so
        # no draw passes through core._series or _floats, which read only the
        # p x p coefficients and covariance of the setup. It factors one
        # covariance once: an h1 cell's sigma0, or else the innovations'
        # covariance; and an h1 cell builds no H1Metadata
        checked, built, factored = [], [], []
        real_cholesky = hdwn.dgp._cholesky

        def counting(real):
            return lambda data, *args: checked.append(np.shape(data)) or real(data, *args)

        for module in (hdwn.core, hdwn.stats_tests):
            monkeypatch.setattr(module, "_series", counting(module._series))
        for module in (hdwn.core, hdwn.dgp):
            monkeypatch.setattr(module, "_floats", counting(module._floats))
        monkeypatch.setattr(hdwn.dgp, "H1Metadata", lambda **fields: built.append(fields))
        monkeypatch.setattr(hdwn.dgp, "_cholesky",
                            lambda cov: factored.append(cov) or real_cholesky(cov))
        report = run_experiment(null_config(model=model, reps=12, threads=2,
                                            tests=hdwn.TEST_NAMES, H_values=(1, 2)))
        assert len(report.cells) == 10 and built == []
        assert set(checked) <= {(5, 5)}
        assert len(factored) == 1

    @pytest.mark.parametrize("threads", (1, 2))
    def test_h1_cells_equal_the_public_calls(self, threads):
        model = ModelSpec(ModelKind.H1_SIGN, h1=H1Spec(CovarianceSpec("polydecay", 6),
                                                       sigma1_scale=0.3))
        cfg = null_config(model=model, cov=CovarianceSpec("polydecay", 6), n=30, p=6,
                          scenario=ScenarioSpec.student_t(5), tests=hdwn.TEST_NAMES,
                          H_values=(1, 2), reps=20, master_seed=3, threads=threads)
        rejects = dict.fromkeys(((t, H) for t in cfg.tests for H in cfg.H_values), 0)
        with mc._single_threaded_blas():
            for r in range(cfg.reps):
                X = hdwn.gen_series(model, cfg.scenario, cfg.n, cfg.p,
                                    hdwn.derive_rng(cfg.master_seed, "rep", r))
                outcomes, errors = hdwn.evaluate_tests_collect(X, cfg.tests, cfg.H_values)
                assert errors == {}
                for key, outcome in outcomes.items():
                    rejects[key] += outcome.reject
        report = run_experiment(cfg)
        assert [(c.test, c.H, c.rejection_rate, c.errors) for c in report.cells] == [
            (t, H, count / cfg.reps, 0) for (t, H), count in rejects.items()]
        assert 0.0 < max(rejects.values()) < cfg.reps

    def test_h1_cells_read_cov_and_scenario(self):
        # the scenario draws the radii, and the cov is Sigma0: no other sigma0 builds
        cov = CovarianceSpec("identity", 6)
        model = ModelSpec(ModelKind.H1_SIGN, h1=H1Spec(cov, sigma1_scale=0.3))
        cell = dict(model=model, cov=cov, n=30, p=6, tests=hdwn.TEST_NAMES, H_values=(1, 2),
                    reps=20, master_seed=5)
        a = run_experiment(null_config(**cell))
        b = run_experiment(null_config(scenario=ScenarioSpec.student_t(3), **cell))
        assert a.cells != b.cells
        with pytest.raises(InvalidSpecError, match="sigma0 must be the cell's cov"):
            null_config(**{**cell, "cov": CovarianceSpec("polydecay", 6)})

    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("model", (ModelSpec(ModelKind.IID),
                                       ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5)),
                                       ModelSpec(ModelKind.H1_SIGN,
                                                 h1=H1Spec(CovarianceSpec("identity", 5)))),
                             ids=lambda m: m.kind.value)
    def test_blocks_are_evaluated_in_the_arrays_drawn(self, model, threads, monkeypatch):
        drawn, evaluated = [], []
        real_sampler, real_evaluate = mc._series_sampler, mc._evaluate_block

        def sampler(*args):
            draw = real_sampler(*args)

            def recording(rngs):
                X = draw(rngs)
                drawn.append(X)
                return X

            return recording

        def evaluate(X, tests, H_values, **kw):
            evaluated.append((X, kw))
            return real_evaluate(X, tests, H_values, **kw)

        monkeypatch.setattr(mc, "_series_sampler", sampler)
        monkeypatch.setattr(mc, "_evaluate_block", evaluate)
        monkeypatch.setattr(mc, "_eval_reps", lambda n, p, burn, factored: 3)
        run_experiment(null_config(model=model, reps=13, threads=threads))
        assert len(evaluated) == len(drawn) > threads
        assert {id(X) for X in drawn} == {id(X) for X, _ in evaluated}
        assert all(kw == {} for _, kw in evaluated)
        assert all(X.flags.c_contiguous and X.shape[1:] == (30, 5) for X in drawn)

    def test_same_seed_same_report(self):
        a = run_experiment(null_config())
        b = run_experiment(null_config())
        assert a.cells == b.cells

    def test_null_rate_near_alpha(self):
        report = run_experiment(null_config(n=100, p=40, reps=300,
                                            cov=CovarianceSpec("polydecay", 40),
                                            threads=4))
        for cell in report.cells:
            assert 0.01 <= cell.rejection_rate <= 0.1
            assert cell.mc_se == pytest.approx(
                math.sqrt(cell.rejection_rate * (1 - cell.rejection_rate) / cell.reps)
            )

    def test_coefficient_fixed_across_replications(self):
        cfg = null_config(
            model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5)),
            reps=25,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.coeff_fingerprint == b.coeff_fingerprint
        assert a.coeff_fingerprint is not None
        other = run_experiment(null_config(
            model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5)),
            reps=25, master_seed=1,
        ))
        assert other.coeff_fingerprint != a.coeff_fingerprint

    def test_error_budget_enforced(self, monkeypatch):
        # fail a third of replications
        monkeypatch.setattr(mc, "_evaluate_block",
                            _failing_evaluator(mc._evaluate_block, lambda r: r % 3 == 0))
        with pytest.raises(McRunError):
            run_experiment(null_config(reps=30))

    def test_rare_errors_counted_and_excluded(self, monkeypatch):
        monkeypatch.setattr(mc, "_evaluate_block",
                            _failing_evaluator(mc._evaluate_block, lambda r: r == 5))
        report = run_experiment(null_config(reps=200))
        for cell in report.cells:
            assert cell.errors == 1
            assert cell.reps == 199

    def test_cell_not_run_is_a_key_error(self):
        report = run_experiment(null_config(reps=2))
        assert report.cell("ss", 1).reps == 2
        with pytest.raises(KeyError):
            report.cell("ss", 99)

    def test_overflowing_raw_squares_fail_the_run(self):
        # VMA(1) rows near 1e150: the raw Gram's squares overflow, so flm and fc
        # err in every replication, where they were read as "no reject"
        cfg = null_config(tests=("ss", "flm", "fc"), cov=CovarianceSpec("identity", 4), p=4,
                          model=ModelSpec("vma1", coeff=1e150 * np.eye(4)), reps=20)
        with pytest.raises(McRunError, match="flm@H=1: 20 errors, 20 of them DegenerateDataError: "
                                             "pairwise inner products overflow; fc@H=1: 20 errors"):
            run_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidSpecError):
            null_config(reps=0)
        with pytest.raises(InvalidSpecError):
            null_config(H_values=(29,))  # needs H <= n - 2
        with pytest.raises(InvalidSpecError):
            null_config(tests=("nope",))
        with pytest.raises(InvalidSpecError):
            null_config(cov=CovarianceSpec("identity", 4))

    @pytest.mark.parametrize("coeff", (CoeffSpec("dense", 10), np.zeros((10, 10))))
    def test_coefficients_sized_when_built(self, coeff):
        with pytest.raises(InvalidSpecError, match="coeff is for p=10, expected 8"):
            null_config(model=ModelSpec(ModelKind.VAR1, coeff=coeff),
                        cov=CovarianceSpec("identity", 8), p=8)

    @pytest.mark.parametrize("cell, message", [
        pytest.param(dict(model=ModelSpec("h1", h1=H1Spec(CovarianceSpec("identity", 10))),
                          cov=CovarianceSpec("identity", 8), p=8),
                     "sigma0 must be the cell's cov", id="sigma0-spec"),
        pytest.param(dict(model=ModelSpec("h1", h1=H1Spec(CovarianceSpec("polydecay", 8))),
                          cov=CovarianceSpec("identity", 8), p=8),
                     "sigma0 must be the cell's cov", id="sigma0-kind"),
        pytest.param(dict(model=ModelSpec("h1", h1=H1Spec(CovarianceSpec("identity", 5),
                                                          radial="constant")),
                          scenario=ScenarioSpec.student_t(5)),
                     "constant radial law takes normal innovations, got t", id="constant-t"),
        pytest.param(dict(model=ModelSpec("h1", h1=H1Spec(CovarianceSpec("identity", 1))),
                          cov=CovarianceSpec("identity", 1), p=1),
                     "p must be an integer >= 2, got 1", id="h1-p1"),
        pytest.param(dict(tests=("max",), cov=CovarianceSpec("identity", 1), p=1),
                     "H_values need H \\* p \\* p >= 3", id="max-p1"),
        pytest.param(dict(tests=("ss", "fc"), cov=CovarianceSpec("identity", 1), p=1,
                          H_values=(3, 2)),
                     "H_values need H \\* p \\* p >= 3", id="fc-p1-H2"),
    ])
    def test_cells_that_cannot_run_are_refused_when_built(self, cell, message):
        with pytest.raises(InvalidSpecError, match=message):
            null_config(**cell)

    @pytest.mark.parametrize("cell", [
        dict(tests=("max", "fc"), cov=CovarianceSpec("identity", 1), p=1, H_values=(3,)),
        dict(tests=("ss", "flm"), cov=CovarianceSpec("identity", 1), p=1),
        dict(model=ModelSpec("h1", h1=H1Spec(CovarianceSpec("identity", 2))),
             cov=CovarianceSpec("identity", 2), p=2),
    ])
    def test_cells_at_the_edge_build_and_run(self, cell):
        report = run_experiment(null_config(reps=5, **cell))
        assert all(c.errors == 0 for c in report.cells)

    def test_repeated_tests_and_lags_give_one_cell_each(self):
        cfg = null_config(tests=("ss", "ss", "flm"), H_values=(2, 2, 1), reps=10)
        assert cfg.tests == ("ss", "flm") and cfg.H_values == (2, 1)
        cells = run_experiment(cfg).cells
        assert [(c.test, c.H) for c in cells] == [("ss", 2), ("ss", 1), ("flm", 2), ("flm", 1)]
        assert cells == run_experiment(null_config(tests=("ss", "flm"), H_values=(2, 1),
                                                   reps=10)).cells


def _failing_evaluator(real, fails):
    """Wraps the block evaluator: replication r, counted from 1 in the order
    the wrapper sees them, fails every test at every window when fails(r) is true."""
    from hdwn.errors import DegenerateDataError

    seen = [0]

    def evaluate(X, tests, H_values):
        found = real(X, tests, H_values)
        for i in range(len(X)):
            seen[0] += 1
            if fails(seen[0]):
                for entries in found.values():
                    entries[i] = [DegenerateDataError("synthetic failure")] * len(H_values)
        return found

    return evaluate


def _erroring_evaluator(real):
    """Wraps the block evaluator so that every replication errors."""
    return _failing_evaluator(real, lambda r: True)


def test_errors_are_counted_per_test_and_window(monkeypatch):
    from hdwn.errors import DegenerateDataError

    real, seen = mc._evaluate_block, [0]

    def evaluate(X, tests, H_values):
        found = real(X, tests, H_values)
        for i in range(len(X)):
            seen[0] += 1
            if seen[0] == 5:
                found["ss"][i][0] = DegenerateDataError("synthetic failure")  # ss at H=1 only
        return found

    monkeypatch.setattr(mc, "_evaluate_block", evaluate)
    report = run_experiment(null_config(reps=200, H_values=(1, 2)))
    assert {(c.test, c.H): (c.errors, c.reps) for c in report.cells} == {
        ("ss", 1): (1, 199), ("ss", 2): (0, 200), ("flm", 1): (0, 200), ("flm", 2): (0, 200)}


def test_run_error_names_the_most_common_cause(monkeypatch):
    monkeypatch.setattr(mc, "_evaluate_block", _erroring_evaluator(mc._evaluate_block))
    with pytest.raises(McRunError) as info:
        run_experiment(null_config(reps=10, H_values=(1, 2)))
    message = str(info.value)
    assert "DegenerateDataError" in message
    assert "synthetic failure" in message
    for key in ("ss@H=1", "ss@H=2", "flm@H=1", "flm@H=2"):
        assert f"{key}: 10 errors, 10 of them DegenerateDataError: synthetic failure" in message


#: Hashes the standardized statistics of three p > n evaluations in the
#: pinned scope; run under different OPENBLAS_NUM_THREADS settings.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
import hdwn
from hdwn.montecarlo import _single_threaded_blas

digest = hashlib.sha256()
with _single_threaded_blas():
    for r in range(3):
        X = hdwn.gen_series(hdwn.ModelSpec("iid"), hdwn.ScenarioSpec.student_t(3),
                            400, 300, hdwn.derive_rng(7, "blas", r))
        outcomes, _ = hdwn.evaluate_tests_collect(X, ("ss", "flm", "max"), (1, 2, 3))
        for key in sorted(outcomes):
            digest.update(np.float64(outcomes[key].standardized).tobytes())
print(digest.hexdigest())
"""


def _task_peaks(cfg, monkeypatch) -> list[int]:
    """tracemalloc peak of each task of run_experiment(cfg) at one thread,
    above what was allocated when the task began, with its first
    replication's stream; the allocator warm-up, made on import, falls
    outside it. A task is one block, so the next one begins where the
    evaluator's last block ended."""
    import tracemalloc

    cfg = replace(cfg, threads=1)
    run_experiment(cfg)  # caches and first calls outside the trace
    real_rng, real_evaluate = mc.derive_rng, mc._evaluate_block
    peaks, start, blocks = [], [], []

    def task_end():
        if start:
            peaks.append(tracemalloc.get_traced_memory()[1] - start.pop())

    def derive_rng(seed, *path):
        if path == ("rep", sum(blocks)):
            task_end()
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
        return real_rng(seed, *path)

    def evaluate(X, tests, H_values, **kw):
        blocks.append(len(X))
        return real_evaluate(X, tests, H_values, **kw)

    monkeypatch.setattr(mc, "derive_rng", derive_rng)
    monkeypatch.setattr(mc, "_evaluate_block", evaluate)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        task_end()
    finally:
        tracemalloc.stop()
    assert len(peaks) == len(blocks) and sum(blocks) == cfg.reps
    return peaks


class TestTaskMemory:
    """A task's traced peak stays within 0.3 MiB of its grid's largest before
    blocks were evaluated in place. Measured this way, those were 1.12 MiB on
    table1 (at (200, 40)) and 1.29 MiB on table2 (a VAR(1) cell)."""

    @pytest.mark.parametrize("kind", (ModelKind.VAR1, ModelKind.VMA1))
    def test_table2_cells(self, kind, monkeypatch):
        cfg = null_config(tests=("max", "ss", "flm", "fc"), scenario=ScenarioSpec.student_t(3),
                          model=ModelSpec(kind, coeff=CoeffSpec("dense", 80)),
                          cov=CovarianceSpec("identity", 80), n=200, p=80, H_values=(1, 2, 3),
                          reps=8)
        assert mc._eval_reps(200, 80, 200) == 4
        assert max(_task_peaks(cfg, monkeypatch)) <= (1.29 + 0.3) * 2**20

    def test_table1_largest_shape(self, monkeypatch):
        cfg = null_config(tests=("max", "ss", "flm", "fc"), scenario=ScenarioSpec.student_t(3),
                          cov=CovarianceSpec("polydecay", 120), n=200, p=120,
                          H_values=(1, 2, 3), reps=8)
        assert mc._eval_reps(200, 120, 0) == 2
        assert max(_task_peaks(cfg, monkeypatch)) <= (1.12 + 0.3) * 2**20

    @pytest.mark.parametrize("preset", ("table1", "table2"))
    def test_preset_blocks_keep_their_size(self, preset):
        # replications per block of every preset cell, by (n, p); at p <= 120
        # the max stage's lag panel is the whole p x p product, so a panel
        # width of at least 120 leaves them as the p x p rule set them
        from hdwn.cli import _resolve_config_path, parse_experiment_configs

        sizes = {(100, 40): 18, (100, 80): 8, (100, 120): 4, (200, 40): 10, (200, 80): 4,
                 (200, 120): 2}
        text = _resolve_config_path(preset).read_text(encoding="utf-8")
        for cfg in parse_experiment_configs(text, seed=0):
            factored = cfg.cov.kind.value != "identity"  # table1's polydecay scatter
            R = mc._eval_reps(cfg.n, cfg.p, BURN_IN[cfg.model.kind], factored)
            assert R == sizes[(cfg.n, cfg.p)], cfg.label

    def test_long_burn_in_within_the_block_budget(self, monkeypatch):
        # the draw holds a block's burn-in rows: 18 series would fit the Gram
        # and max stages at (100, 40), but not their 5.8 MB of burn-in; and
        # three would overrun by the scratch of their t innovations
        monkeypatch.setitem(BURN_IN, ModelKind.VAR1, 1000)
        model = ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 40))
        cfg = null_config(tests=("max", "ss", "flm", "fc"), scenario=ScenarioSpec.student_t(3),
                          model=model, cov=CovarianceSpec("identity", 40), n=100, p=40,
                          H_values=(1, 2, 3), reps=6)
        assert mc._eval_reps(100, 40, 1000) == 2
        assert max(_task_peaks(cfg, monkeypatch)) <= mc._EVAL_BLOCK_BYTES

    def test_factored_scatter_within_the_block_budget(self, monkeypatch):
        # a polydecay scatter holds each series' innovations twice while they
        # are multiplied by its Cholesky factor, so such a cell gets one less
        cfg = null_config(tests=("max", "ss", "flm", "fc"), scenario=ScenarioSpec.student_t(3),
                          model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 80)),
                          cov=CovarianceSpec("polydecay", 80), n=200, p=80,
                          H_values=(1, 2, 3), reps=6)
        assert mc._eval_reps(200, 80, 200, factored=True) == 3
        assert max(_task_peaks(cfg, monkeypatch)) <= mc._EVAL_BLOCK_BYTES


class TestBlasPin:
    @pytest.fixture
    def blas(self):
        """(get, set) of the bundled OpenBLAS, left at 2 threads for the test."""
        from hdwn._blas import _openblas

        api = _openblas()
        if api is None:
            pytest.skip("numpy's bundled OpenBLAS is not available")
        get, set_ = api
        saved = get()
        set_(2)
        yield get, set_
        set_(saved)

    def test_pinned_during_replications_and_restored(self, blas, monkeypatch):
        get, _ = blas
        before = get()
        seen = []
        real = mc._evaluate_block

        def recording(X, tests, H_values, **kw):
            seen.extend([get()] * len(X))  # one entry per replication
            return real(X, tests, H_values, **kw)

        monkeypatch.setattr(mc, "_evaluate_block", recording)
        run_experiment(null_config(reps=8, threads=2))
        assert seen == [1] * 8
        assert get() == before

    def test_restored_after_run_error(self, blas, monkeypatch):
        get, _ = blas
        before = get()
        monkeypatch.setattr(mc, "_evaluate_block", _erroring_evaluator(mc._evaluate_block))
        with pytest.raises(McRunError):
            run_experiment(null_config(reps=10))
        assert get() == before

    def test_overlapping_scopes_restore_when_the_last_leaves(self, blas):
        get, _ = blas
        before = get()
        worker_inside, main_left = threading.Event(), threading.Event()
        seen = []

        def worker():
            with mc._single_threaded_blas():
                worker_inside.set()
                main_left.wait(10)
                seen.append(get())

        thread = threading.Thread(target=worker)
        thread.start()
        assert worker_inside.wait(10)
        with mc._single_threaded_blas():
            seen.append(get())
        seen.append(get())
        main_left.set()
        thread.join(10)
        assert not thread.is_alive()
        assert seen == [1, 1, 1]
        assert get() == before

    def test_concurrent_scopes_keep_the_pin(self, blas):
        get, _ = blas
        before = get()
        unpinned = []

        def worker():
            for _ in range(300):
                with mc._single_threaded_blas():
                    if get() != 1:
                        unpinned.append(get())

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert unpinned == []
        assert get() == before

    def test_statistics_do_not_depend_on_blas_threads(self, blas):
        src = str(Path(hdwn.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestAutoThreads:
    def test_follows_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert mc._auto_threads() == 1

    def test_capped_at_eight(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(32)),
                            raising=False)
        assert mc._auto_threads() == 8


class TestOrderings:
    def test_lag_one_signal_favors_smaller_window(self):
        cfg = McConfig(
            tests=("ss",),
            scenario=ScenarioSpec.normal(),
            model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 20)),
            cov=CovarianceSpec("identity", 20),
            n=100,
            p=20,
            H_values=(1, 3),
            reps=200,
            master_seed=2,
            threads=4,
        )
        report = run_experiment(cfg)
        r1 = report.cell("ss", 1)
        r3 = report.cell("ss", 3)
        se = math.sqrt(r1.mc_se**2 + r3.mc_se**2)
        assert r1.rejection_rate >= r3.rejection_rate - 2.0 * se

    def test_dense_favors_sum_sparse_favors_max(self):
        def rates(regime):
            cfg = McConfig(
                tests=("ss", "max"),
                scenario=ScenarioSpec.normal(),
                model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec(regime, 40)),
                cov=CovarianceSpec("identity", 40),
                n=100,
                p=40,
                H_values=(1,),
                reps=150,
                master_seed=3,
                threads=4,
            )
            report = run_experiment(cfg)
            return report.cell("ss", 1), report.cell("max", 1)

        ss_d, max_d = rates("dense")
        se_d = math.sqrt(ss_d.mc_se**2 + max_d.mc_se**2)
        assert ss_d.rejection_rate >= max_d.rejection_rate - 2.0 * se_d

        ss_s, max_s = rates("sparse")
        se_s = math.sqrt(ss_s.mc_se**2 + max_s.mc_se**2)
        assert max_s.rejection_rate >= ss_s.rejection_rate - 2.0 * se_s


#: Minor page faults of a second run_experiment, at one and at two threads, in
#: a fresh interpreter that has not imported scipy.
_FAULTS_SCRIPT = """
import resource
import hdwn
for threads in (1, 2):
    cfg = hdwn.McConfig(
        tests=("max", "ss", "flm", "fc"), scenario=hdwn.ScenarioSpec.normal(),
        model=hdwn.ModelSpec("iid"), cov=hdwn.CovarianceSpec("polydecay", 120),
        n=200, p=120, H_values=(1, 2, 3), reps=20, threads=threads)
    hdwn.run_experiment(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hdwn.run_experiment(cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_replications_reuse_heap_pages():
    """Replications reuse heap pages rather than faulting in fresh ones.

    Without the allocator warm-up on import, 20 replications at
    n=200, p=120 fault in 3,000-5,000 pages, about one per kB allocated.
    """
    src = str(Path(hdwn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    faults = [int(line) for line in out.stdout.split()]
    assert len(faults) == 2 and max(faults) < 1000, faults


#: Minor page faults of 20 single calls after two untimed ones, in a fresh
#: interpreter that has not imported scipy.
_CALL_FAULTS_SCRIPT = """
import resource
import hdwn
X = hdwn.gen_series(hdwn.ModelSpec("iid"), hdwn.ScenarioSpec.student_t(3), 200, 120, 0)
for _ in range(2):
    hdwn.evaluate_tests_collect(X, ("ss", "flm", "max", "fc"), (1, 2, 3))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    hdwn.evaluate_tests_collect(X, ("ss", "flm", "max", "fc"), (1, 2, 3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_single_calls_reuse_heap_pages():
    """The allocator warm-up is made on import, so single calls get it too.

    Without it, 20 calls at n=200, p=120 fault in about 2,800 pages.
    """
    src = str(Path(hdwn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _CALL_FAULTS_SCRIPT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) < 500, out.stdout
