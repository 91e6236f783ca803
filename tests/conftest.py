"""Settings shared by the test suite.

When the CI environment variable is set, as CI services set it, hypothesis
runs derandomized: every property test draws the same examples on every run,
so a CI result cannot change between two runs of one commit.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
