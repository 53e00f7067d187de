"""Test-side oracles that build on the package but that no command runs."""
import math

import numpy as np

from onegenus.survivors import ambiguous_census


def primitive_class_counts(limit: int) -> np.ndarray:
    """Class numbers h(d) of primitive forms for every |d| <= limit.

    Starts from the full census and strips imprimitive forms: a form with
    content g > 1 is g times a form of discriminant d/g^2, so subtracting the
    primitive counts at d/g^2 for every g^2 | d leaves the primitive count.
    Processed in blocks [4^j, 4^(j+1)) so corrections only read final values.
    """
    h, _ = ambiguous_census(limit)
    hp = h.astype(np.int64)
    lo = 1
    while lo <= limit:
        hi = min(4 * lo, limit + 1)
        for g in range(2, math.isqrt(hi - 1) + 1):
            g2 = g * g
            mlo = (lo + g2 - 1) // g2
            mhi = (hi - 1) // g2
            if mlo > mhi:
                continue
            m = np.arange(mlo, mhi + 1)
            hp[m * g2] -= hp[m]
        lo *= 4
    return hp
