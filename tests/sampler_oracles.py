"""Test-only oracles of the sampling layer.

Direct draws of the scaled sum W = n^{-1/2} sum_i X_i for the two-point
and local-means families, by binomial counts of the high value and by
multinomial cell counts.  The experiments measure these families only
through their max statistic, which :mod:`hdclt.maxlaw` draws from its exact
law, so the direct draws live beside the tests that check those laws
against them.
"""

import numpy as np

from hdclt.sampler import (DistributionSpec, _count_sums, local_means_support,
                           substream, two_point_support)


def count_scaled_sums(spec: DistributionSpec, n: int, reps: int,
                      seed: int) -> np.ndarray:
    """reps x d draws of W for a ``two_point`` or ``local_means`` spec, each
    from fresh data: the count transform of Binomial(n, 1/B^2) counts or of
    multinomial cell counts drawn from ``substream(seed, 1)``."""
    rng = substream(seed, 1)
    d = spec.dim
    if spec.kind == "two_point":
        a, b, p = two_point_support(spec.B)
        return _count_sums(rng.binomial(n, p, size=(reps, d)), n, a, b)
    if spec.kind == "local_means":
        hi, lo, p = local_means_support(d)
        return _count_sums(rng.multinomial(n, np.full(d, p), size=reps), n, hi, lo)
    raise ValueError(f"a {spec.kind!r} spec has no count transform")
