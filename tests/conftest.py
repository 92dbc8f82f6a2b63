"""Test-session settings shared by every test module."""

from hypothesis import settings

# Derive each property test's examples from the test itself, so every run
# draws the same ones; tests keep their own max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
