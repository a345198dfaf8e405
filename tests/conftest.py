"""Test-session settings.  The property tests draw their examples from
hypothesis, a dev-only dependency: its profiles here are derandomized, so a
run of the suite tests the same examples every time.  ``HYPOTHESIS_PROFILE``
picks one ("tier1", the default, or "ci" with more examples)."""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
    settings.register_profile(
        "ci", derandomize=True, database=None, deadline=None, max_examples=1000
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
