"""Property tests draw the same examples on every run (derandomize) and have
no per-example deadline, so a slow or busy host neither fails them nor
changes what they test."""

from hypothesis import settings

settings.register_profile("prlab", derandomize=True, deadline=None)
settings.load_profile("prlab")
