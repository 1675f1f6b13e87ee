"""Full-jitter backoff draws shared by the recovery loops.

*Full jitter* (AWS architecture-blog style): instead of every caller
sleeping exactly ``base * 2**n``, the sleep is drawn uniformly from
``[0, base * 2**n]``.  Without it, parallel workers that fail together
(a shared resource hiccup, a chaos-injected crash wave) retry together
forever; jitter decorrelates the herd.  The supervised executor's
worker-respawn throttle draws through here (the circuit breaker's probe
delay follows the same argument) from an RNG seeded through
:mod:`repro.common.rng`, so its schedule stays reproducible from a seed
like everything else in this package.
"""

from __future__ import annotations


def full_jitter(delay: float, rng) -> float:
    """One full-jitter draw: uniform in ``[0, delay]``."""
    if delay <= 0:
        return 0.0
    return rng.uniform(0.0, delay)
