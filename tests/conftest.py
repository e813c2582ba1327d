"""Hypothesis settings for the test suite.

Every run, local or CI, loads one profile: no per-example deadline, so a
slow machine cannot fail a property test on time alone, and the
reproduction blob of every failure is printed.
"""

from hypothesis import settings

settings.register_profile("opgroups", deadline=None, print_blob=True)
settings.load_profile("opgroups")
