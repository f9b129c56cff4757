"""One Hypothesis profile for the whole suite: derandomized, with a bounded
example count and no deadline, so a run repeats in both time and result."""

from hypothesis import settings

settings.register_profile("tsvar", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("tsvar")
