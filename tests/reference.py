"""Exact structure-constant arithmetic: the reference the tests compare the
package's mod-p products against."""

import numpy as np


def multiply(x, y, c) -> list:
    """Product of two algebra elements given structure constants c[i][j][k].

    Exact: works for int or Fraction coefficients.  c is an (r, r, r)
    integer array with A_i A_j = sum_k c[i][j][k] A_k.
    """
    cc = np.asarray(c)
    r = cc.shape[0]
    if len(x) != r or len(y) != r:
        raise ValueError("coefficient vector length does not match rank")
    out: list = [0] * r
    for i in range(r):
        xi = x[i]
        if not xi:
            continue
        for j in range(r):
            yj = y[j]
            if not yj:
                continue
            for k in np.nonzero(cc[i, j])[0]:
                out[k] = out[k] + xi * yj * int(cc[i, j, k])
    return out
