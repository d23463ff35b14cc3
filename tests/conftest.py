"""Shared test set-up: one deterministic profile for the hypothesis tests.

Derandomized, every run draws the same examples, so a property test cannot
pass on one run and fail on the next.  There is no deadline, because step
timings vary widely on a loaded machine, and a bounded example count keeps
the property tests to a small share of the suite's time.
"""

from hypothesis import settings

settings.register_profile("lowregnls", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("lowregnls")
