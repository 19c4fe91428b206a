"""Settings shared by every test module under ``tests``."""

import pytest
from hypothesis import settings

import echometry.fisher

# Every falsifying example prints its @reproduce_failure blob, so a failure
# seen once can be replayed on another checkout without the local
# ``.hypothesis/`` example database.  Per-test @settings inherit this.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture
def clear_frames():
    """The readout's J_x frame cache, emptied before and after the test; the fixture's value empties it."""
    echometry.fisher._frames.clear()
    yield echometry.fisher._frames.clear
    echometry.fisher._frames.clear()
