"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` derandomizes the property
tests and prints the reproduction blob of a failure, so a failure in a CI log
can be replayed locally; without it the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
