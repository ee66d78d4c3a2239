"""Settings shared by the whole test suite.

The property tests draw derandomized examples, so a failing example is
reproducible as it is drawn.  Shrinking it gains little and costs much:
each shrink step reruns a spectral computation, and one failing property
test took minutes to shrink before it printed anything.  So hypothesis runs
every phase but ``shrink``.  The profile is loaded before the test modules
are imported, and each ``@settings(...)`` there inherits from it.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "no-shrink", phases=[phase for phase in Phase if phase is not Phase.shrink]
)
settings.load_profile("no-shrink")
