"""Suite-wide Hypothesis settings: every property test draws the same
examples on every run, and no example database carries state between runs,
so a failure the suite finds comes back on the next run. Each test keeps
its own ``max_examples`` and ``deadline``."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
