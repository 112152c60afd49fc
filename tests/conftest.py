"""One hypothesis profile for the whole suite: every property draws the same
examples on every run and no example database is kept, so a run's result
depends on the code alone, not on the seed or on the checkout's history."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
