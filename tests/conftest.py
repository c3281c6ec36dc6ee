"""Hypothesis profiles of the suite.

`tier1`, the default, draws the same examples on every run and keeps no
example database, so a Tier-1 result depends on the code alone.
`explore` draws at random, also without a database; run it with
``python -m pytest -q --hypothesis-profile=explore``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")
