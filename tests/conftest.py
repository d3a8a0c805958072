"""Shared test configuration: every property test runs the same examples
on every run (derandomized) and without a per-example deadline, since
example times vary with the machine's load."""

from hypothesis import settings

settings.register_profile("dynvertex", deadline=None, derandomize=True)
settings.load_profile("dynvertex")
