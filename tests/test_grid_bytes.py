"""The bytes of the CSV files of table1 and table2, against recorded digests.

perfbench/reference/<workload>.json holds the SHA-256 of results.csv for each
seed slot of `hdwn simulate --config <preset> --reps 50 --threads 2`, and
WIDE_TABLES the slot-0 digest of each preset's wide table (size_table.csv for
table1, power_table.csv for table2). Slot 0 of both grids is replayed here
through cli.main, so a change to the bytes under the determinism guarantee
fails the suite rather than the benchmark.

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

#: Slot-0 SHA-256 of each preset's wide table, by preset: (file name, digest).
WIDE_TABLES = {
    "table1": ("size_table.csv",
               "a44e3c3f01137291ee9f802b96683c97be04a64545f037b25e9132113bc51662"),
    "table2": ("power_table.csv",
               "d0f6aab1c22a4661102948ff2441dacc7e6f5fd81735f7f3ceb479e707375284"),
}


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


@pytest.fixture(scope="module")
def digest(tmp_path_factory):
    """SHA-256 of an output file of a preset's slot-0 run; each preset runs once."""
    runs = {}

    def of(preset, name):
        if preset not in runs:
            runs[preset] = tmp_path_factory.mktemp(preset)
            argv = ["simulate", "--config", preset, "--reps", "50", "--threads", "2",
                    "--seed", "0", "--out", str(runs[preset])]
            assert main(argv) == 0
        return hashlib.sha256((runs[preset] / name).read_bytes()).hexdigest()

    return of


@pytest.mark.parametrize("preset", sorted(GRIDS))
def test_results_csv_matches_the_reference_digest(preset, digest):
    with open(REFERENCE_DIR / f"{GRIDS[preset]}.json", encoding="utf-8") as fh:
        expected = json.load(fh)["slots"]["0"]["sha256"]
    assert digest(preset, "results.csv") == expected


@pytest.mark.parametrize("preset", sorted(WIDE_TABLES))
def test_wide_table_matches_its_digest(preset, digest):
    name, expected = WIDE_TABLES[preset]
    assert digest(preset, name) == expected
