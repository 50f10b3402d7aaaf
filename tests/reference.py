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


def group_table_error(t) -> str | None:
    """First failure of the group axioms, worded as check_group_table words
    it, found by direct loops over a square table of element indices."""
    n = len(t)
    ident = next(
        (e for e in range(n)
         if all(t[e][x] == x and t[x][e] == x for x in range(n))),
        None,
    )
    if ident is None:
        return "group table has no identity"
    for x in range(n):
        if not any(t[x][y] == ident and t[y][x] == ident for y in range(n)):
            return f"element {x} has no inverse"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return f"table is not associative at ({a},{b},{c})"
    return None
