"""The benchmark's highdim_calls reference slots, replayed through the public calls.

perfbench/ checks every call of a run against outputs recorded at an earlier
commit, within 1e-10 relative. A change in summation order that drifts past
that tolerance would first show up as benchmark failures; replaying all slots
here catches it in the test suite. Skipped when perfbench/ is absent.
"""

import importlib.util
from pathlib import Path

import pytest

import hdwn

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

pytestmark = pytest.mark.skipif(not WORKLOADS.exists(), reason="perfbench/ is absent")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_highdim_calls_match_every_reference_slot():
    W = _workloads()
    slots = W.load_reference("highdim_calls")["slots"]
    assert len(slots) == W.SEED_SLOTS
    funcs = {t: getattr(hdwn, f"{t}_test") for t in W.CALL_TESTS}
    misses = []
    for slot in range(W.SEED_SLOTS):
        series = W.highdim_series(slot)
        cycle = W.call_cycle(len(series))
        refs = slots[str(slot)]["calls"]
        assert len(refs) == len(cycle)
        for (s, test), ref in zip(cycle, refs):
            got = W.outcome_triple(funcs[test](series[s], W.CALL_H))
            if not W.call_matches(got, ref):
                misses.append((slot, s, test, got, ref))
    assert not misses, misses[:5]
