"""Replication engine: determinism, error budget, orderings, table layout."""

import math
import os
import platform
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

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
    power_table,
    run_experiment,
    size_table,
    tabulate_reports,
)


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
        # at n=50, p=80 a block holds 6 replications, so 13 make three blocks
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
        from hdwn.dgp import _series_sampler

        # table1's IID shapes at 50 reps and 2 threads
        for n in (100, 200):
            for p in (40, 80, 120):
                _, block = _series_sampler(ModelSpec(ModelKind.IID), ScenarioSpec.normal(), n, p)
                size = mc._task_size(50, block, 2)
                sizes = [min(size, 50 - first) for first in range(0, 50, size)]
                assert size <= block and size <= 25 and len(sizes) >= 2, (n, p, sizes)
                # an even split: only the last task is short, by less than one
                # replication per task
                assert max(sizes) - min(sizes) < len(sizes), (n, p, sizes)
        assert mc._task_size(50, 32, 2) == 25  # (100, 40): was 32 and 18
        assert mc._task_size(50, 4, 2) == 4  # a VAR(1) block at (200, 80)
        # a task is cut into near-equal evaluation blocks of at most
        # _eval_reps series: 13 at most 4 at a time is 3, 3, 3, 4, not 4, 4, 4, 1
        sizes = []
        real = mc._evaluate_block

        def record(X, tests, H_values):
            sizes.append(len(X))
            return real(X, tests, H_values)

        monkeypatch.setattr(mc, "_evaluate_block", record)
        monkeypatch.setattr(mc, "_eval_reps", lambda n, p: 4)
        run_experiment(null_config(reps=13, threads=1))
        assert sizes == [3, 3, 3, 4]
        sizes.clear()
        monkeypatch.setattr(mc, "_eval_reps", lambda n, p: 2)
        run_experiment(null_config(reps=13, threads=1))
        assert sizes == [1, 2, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("model", (ModelSpec(ModelKind.IID),
                                       ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5)),
                                       ModelSpec(ModelKind.H1_SIGN,
                                                 h1=H1Spec(CovarianceSpec("polydecay", 5)))))
    def test_replications_build_no_series_matrix(self, model, monkeypatch):
        # the sampler yields plain arrays; only the public calls validate.
        # It factors one covariance once: an h1 cell's sigma0, or else the
        # innovations' covariance; and an h1 cell builds no H1Metadata
        built, factored = [], []
        real = hdwn.SeriesMatrix.__post_init__
        real_cholesky = hdwn.dgp._cholesky

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(hdwn.SeriesMatrix, "__post_init__", counting)
        monkeypatch.setattr(hdwn.dgp, "H1Metadata", lambda **fields: built.append(fields))
        monkeypatch.setattr(hdwn.dgp, "_cholesky",
                            lambda cov: factored.append(cov) or real_cholesky(cov))
        report = run_experiment(null_config(model=model, reps=12, threads=2,
                                            tests=hdwn.TEST_NAMES, H_values=(1, 2)))
        assert len(report.cells) == 10 and built == []
        assert len(factored) == 1

    @pytest.mark.parametrize("threads", (1, 2))
    def test_h1_cells_equal_the_public_calls(self, threads):
        model = ModelSpec(ModelKind.H1_SIGN, h1=H1Spec(CovarianceSpec("polydecay", 6),
                                                       sigma1_scale=0.3))
        cfg = null_config(model=model, cov=CovarianceSpec("identity", 6), n=30, p=6,
                          tests=hdwn.TEST_NAMES, H_values=(1, 2), reps=20, master_seed=3,
                          threads=threads)
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

    def test_h1_custom_radii_are_drawn_per_series_only(self):
        # without radial_c1 the engine needs no c1, so it never estimates it
        sizes = []

        def radii(rng, size):
            sizes.append(size)
            return rng.uniform(0.5, 1.5, size=size)

        h1 = H1Spec(CovarianceSpec("identity", 5), radial="custom", radial_sampler=radii)
        run_experiment(null_config(model=ModelSpec(ModelKind.H1_SIGN, h1=h1), reps=12,
                                   threads=2))
        assert sizes == [31] * 12

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
            model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5), burn_in=10),
            reps=25,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.coeff_fingerprint == b.coeff_fingerprint
        assert a.coeff_fingerprint is not None
        other = run_experiment(null_config(
            model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5), burn_in=10),
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

    def test_config_validation(self):
        with pytest.raises(InvalidSpecError):
            null_config(reps=0)
        with pytest.raises(InvalidSpecError):
            null_config(H_values=(29,))  # needs H <= n - 2
        with pytest.raises(InvalidSpecError):
            null_config(tests=("nope",))
        with pytest.raises(InvalidSpecError):
            null_config(cov=CovarianceSpec("identity", 4))


def _failing_evaluator(real, fails):
    """Wraps the block evaluator: replication r, counted from 1 in the order
    the wrapper sees them, fails every test when fails(r) is true."""
    from hdwn.errors import DegenerateDataError

    seen = [0]

    def evaluate(X, tests, H_values):
        found = real(X, tests, H_values)
        for i in range(len(X)):
            seen[0] += 1
            if fails(seen[0]):
                for entries in found.values():
                    entries[i] = DegenerateDataError("synthetic failure")
        return found

    return evaluate


def _erroring_evaluator(real):
    """Wraps the block evaluator so that every replication errors."""
    return _failing_evaluator(real, lambda r: True)


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


class TestBlasPin:
    @pytest.fixture
    def blas(self):
        """(get, set) of the bundled OpenBLAS, left at 2 threads for the test."""
        api = mc._openblas()
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

        def recording(X, tests, H_values):
            seen.extend([get()] * len(X))  # one entry per replication
            return real(X, tests, H_values)

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


class TestTables:
    def test_empty_grid_empty_table(self):
        table = size_table([])
        assert table.columns == ()
        assert table.rows == ()

    def test_size_table_layout(self):
        grid = [
            null_config(label="a", reps=10),
            null_config(label="b", scenario=ScenarioSpec.student_t(3), reps=10),
        ]
        table = size_table(grid)
        assert table.columns[:5] == ("label", "scenario", "model", "n", "p")
        assert "SS_H1" in table.columns and "FLM_H1" in table.columns
        assert [r["label"] for r in table.rows] == ["a", "b"]
        assert table.rows[1]["scenario"] == "t"
        for row in table.rows:
            assert 0.0 <= row["SS_H1"] <= 1.0

    def test_power_table_model_labels(self):
        cfg = null_config(
            label="dense-var",
            model=ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 5), burn_in=10),
            reps=10,
        )
        table = power_table([cfg])
        assert table.rows[0]["model"] == "var1-dense"

    def test_tabulate_matches_reports(self):
        reports = [run_experiment(null_config(label="x", reps=15))]
        table = tabulate_reports(reports)
        assert table.rows[0]["SS_H1"] == reports[0].cell("ss", 1).rejection_rate


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

    Without the allocator warm-up in run_experiment, 20 replications at
    n=200, p=120 fault in 3,000-5,000 pages, about one per kB allocated.
    """
    src = str(Path(hdwn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    faults = [int(line) for line in out.stdout.split()]
    assert len(faults) == 2 and max(faults) < 1000, faults
