"""Chebyshev virtual shape basis.

A small set of q Chebyshev polynomials sampled at the servo spanwise
locations gives a constant m x q matrix Phi.  Commanding the q
coefficients instead of the m servos directly keeps the spanwise command
profile on a smooth degree-(q-1) polynomial and shrinks the allocation
search space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, RankLoss


def chebyshev_eval(x, q):
    """[T_0(x), ..., T_{q-1}(x)] by the three-term recurrence.

    T_0 = 1, T_1 = x, T_{k+1} = 2 x T_k - T_{k-1}.
    """
    if q < 1:
        raise BadDimension(f"need q >= 1, got {q}")
    t = np.empty(q)
    t[0] = 1.0
    if q > 1:
        t[1] = x
    for k in range(2, q):
        t[k] = 2.0 * x * t[k - 1] - t[k - 2]
    return t


@dataclass
class ShapeBasis:
    """Constant mapping Phi from q virtual inputs to m servo commands."""

    q: int
    xs_norm: np.ndarray
    Phi: np.ndarray

    @property
    def m(self):
        return self.Phi.shape[0]


def build_basis(servo_locations, half_span, q):
    """Sample the first q Chebyshev polynomials at the servo stations.

    Locations are normalized by the half span to [0, 1] and then mapped
    affinely onto [-1, 1], the natural Chebyshev domain, which keeps the
    sampled columns well conditioned.
    """
    locs = np.asarray(servo_locations, dtype=float)
    if not np.all(np.diff(locs) > 0.0):
        raise BadDimension("servo locations must be strictly increasing")
    if not (np.all(locs > 0.0) and np.all(locs <= half_span)):
        raise BadDimension("servo locations must lie in (0, half_span]")
    if q > locs.size:
        raise BadDimension(f"q = {q} exceeds servo count {locs.size}")
    xs_norm = locs / half_span
    x_cheb = 2.0 * xs_norm - 1.0
    Phi = np.array([chebyshev_eval(x, q) for x in x_cheb])
    if np.linalg.matrix_rank(Phi, tol=1e-10) < q:
        raise RankLoss(f"basis matrix rank below {q} at the given locations")
    return ShapeBasis(q=q, xs_norm=xs_norm, Phi=Phi)
