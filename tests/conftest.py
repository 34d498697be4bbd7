"""Test-session settings shared by every test module."""
from hypothesis import settings

# Property tests must be deterministic (the same examples on every run)
# and must not fail on timing: shared hosts can slow a process down by 2x
# for minutes, which would trip hypothesis's default per-example deadline.
settings.register_profile(
    "hiertune", deadline=None, derandomize=True, max_examples=60, database=None
)
settings.load_profile("hiertune")
