"""The dense von Mangoldt arrays the sparse code replaced, kept as the
tests' one reference: length-(x + 1) arrays indexed by n."""

import numpy as np

from gzeros.characters import char_values_table


def dense_lambda(sieve, x, chi=None):
    """v[0..x] with v[n] = Lambda(n) (float64), or chi(n) Lambda(n)
    (complex128) for a character chi."""
    pos, lam = sieve.entries(x)
    v = np.zeros(x + 1, dtype=np.float64)
    v[pos] = lam
    if chi is None:
        return v
    w = char_values_table(chi)[np.arange(x + 1) % chi.q] * v
    w[:2] = 0
    return w
