"""The suite's run policy, in one place.

Every Hypothesis test draws the same examples on every run and has no
deadline, so tier-1 does not pass or fail by the luck of the draw or the
speed of the machine; with `derandomize` the example database is off.
Every test runs in its own temporary directory, so none writes into the
checkout or depends on the directory pytest was started from. Kernel
tests take their squared distances from `pair_sq`, the engine's tables.
"""
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from sketchdfl.aggregation import PairTable

settings.register_profile("sketchdfl", derandomize=True, deadline=None)
settings.load_profile("sketchdfl")

# Hypothesis still caches the literals it finds in the tested modules while
# pytest collects, by default under .hypothesis/ in the starting directory;
# this directory is removed when the run exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="sketchdfl-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(autouse=True)
def _own_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="session")
def pair_sq():
    """`pair_sq(vectors, star=False)`: the squared distances among `vectors`
    as the engine passes them to a screening kernel. With star=True, a star
    PairTable's row from the first vector to each of the others, in order
    (balance_filter's and sketch_filter's `sq`); else a one-pool table's
    (m, m) matrix (krum_select_index's)."""
    def build(vectors, star=False):
        vectors = list(vectors)
        pairs = PairTable({0: range(len(vectors))}, star=star)
        table = pairs.compute(vectors)
        return pairs.row(table, 0) if star else pairs.submatrix(table, 0)

    return build
