"""The suite's run policy, in one place.

Every Hypothesis test draws the same examples on every run and has no
deadline, so tier-1 does not pass or fail by the luck of the draw or the
speed of the machine; with `derandomize` the example database is off.
Every test runs in its own temporary directory, so none writes into the
checkout or depends on the directory pytest was started from.
"""
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

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
