"""The bytes of results.csv for table1 and table2, against the benchmark's record.

perfbench/reference/<workload>.json holds the SHA-256 of results.csv for each
seed slot of `hdwn simulate --config <preset> --reps 50 --threads 2`. Slot 0
of both grids is replayed here through cli.main, so a change to the bytes
under the determinism guarantee fails the suite rather than the benchmark.

The bits of the Grams and lag products follow the OpenBLAS kernel that
numpy's bundled OpenBLAS picks for the CPU at load time (DYNAMIC_ARCH). The
recorded digests hold for the build and kernel named in REFERENCE_OPENBLAS; on
any other, or without the bundled OpenBLAS, the test is skipped with the
reason, since a different digest there says nothing about the code. Skipped
as well when perfbench/ is absent.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hdwn.cli import main

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

#: get_config() of the OpenBLAS the reference digests were reproduced with.
REFERENCE_OPENBLAS = ("OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX "
                      "MAX_THREADS=64")

GRIDS = {"table1": "size_grid", "table2": "power_grid"}


def _openblas_config():
    """get_config() of numpy's bundled OpenBLAS, or None without it."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        get_config = ctypes.CDLL(str(libs[0])).scipy_openblas_get_config64_
    except (IndexError, OSError, AttributeError):
        return None
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


def _skip_reason():
    if not REFERENCE_DIR.exists():
        return "perfbench/ is absent"
    config = _openblas_config()
    if config != REFERENCE_OPENBLAS:
        return (f"reference digests hold for {REFERENCE_OPENBLAS!r}; "
                f"this machine's OpenBLAS is {config!r}")
    return None


SKIP = _skip_reason()
pytestmark = pytest.mark.skipif(SKIP is not None, reason=str(SKIP))


@pytest.mark.parametrize("preset", sorted(GRIDS))
def test_results_csv_matches_the_reference_digest(preset, tmp_path):
    with open(REFERENCE_DIR / f"{GRIDS[preset]}.json", encoding="utf-8") as fh:
        expected = json.load(fh)["slots"]["0"]["sha256"]
    argv = ["simulate", "--config", preset, "--reps", "50", "--threads", "2", "--seed", "0",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == expected
