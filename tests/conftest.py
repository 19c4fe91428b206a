"""Settings shared by every test module under ``tests``."""

from hypothesis import settings

# Every falsifying example prints its @reproduce_failure blob, so a failure
# seen once can be replayed on another checkout without the local
# ``.hypothesis/`` example database.  Per-test @settings inherit this.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
