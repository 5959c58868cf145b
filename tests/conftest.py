"""Hypothesis profile.

``ci`` keeps tier-1 deterministic: derandomized examples, a stated
``max_examples`` and no example database.  It does not run the explain
phase, whose imports raise a ``DeprecationWarning``, which the suite turns
into an error.  A deeper run passes ``--hypothesis-seed`` or a profile of
its own through ``--hypothesis-profile``.
"""

from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "ci", derandomize=True, max_examples=150, deadline=None, database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")
