"""Exact LP feasibility over free-sign variables, for test oracles only.

The package decides every such question from cached vertices and rays;
tests keep this LP to check those decisions against a direct search.
"""

from fractions import Fraction as Q

from weylgrowth.polyhedra import lp_feasible_eq


def lp_feasible_ineq(A, b):
    """One free-sign v with Av >= b, or None. Exact."""
    m = len(A)
    if m == 0:
        return ()
    n = len(A[0])
    rows = []
    for i in range(m):
        pos = list(A[i])
        neg = [-x for x in A[i]]
        slack = [Q(-1) if j == i else Q(0) for j in range(m)]
        rows.append(pos + neg + slack)
    x = lp_feasible_eq(rows, list(b))
    if x is None:
        return None
    return tuple(x[j] - x[n + j] for j in range(n))
