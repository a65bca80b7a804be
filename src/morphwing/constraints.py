"""Servo limit compilation.

Position, rate, and adjacent-pair relative-position limits are folded
into a single linear inequality A du <= b on the command increment, with
a fixed row order: position +/-, relative +/-, rate +/-.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, InfeasibleCurrentState

# Slack tolerated when the reported servo position sits marginally
# outside its bounds (sensor quantization); the position is clamped.
POSITION_SLACK = 1e-6


@dataclass
class InputLimits:
    """Per-servo actuation limits.

    u_min/u_max are angle bounds (deg), rate_min/rate_max are deg/s,
    u_adj bounds |u[i] - u[i+1]| for each adjacent pair (deg, length
    m-1), dt is the controller period the rate bounds act over.  The
    run-constant parts of A du <= b are built here once, read-only: the
    adjacency matrix C, the matrix A, the rate rows' b_rate, and E and b0
    with b = b0 + E u0 at a command u0.
    """

    u_min: np.ndarray
    u_max: np.ndarray
    rate_min: np.ndarray
    rate_max: np.ndarray
    u_adj: np.ndarray
    dt: float

    def __post_init__(self):
        self.u_min = np.asarray(self.u_min, dtype=float)
        self.u_max = np.asarray(self.u_max, dtype=float)
        self.rate_min = np.asarray(self.rate_min, dtype=float)
        self.rate_max = np.asarray(self.rate_max, dtype=float)
        self.u_adj = np.asarray(self.u_adj, dtype=float)
        m = self.u_min.size
        if self.u_adj.size != m - 1:
            raise BadDimension(f"u_adj must have length {m - 1}, got {self.u_adj.size}")
        if not np.all(self.u_min < self.u_max):
            raise BadDimension("u_min must be elementwise below u_max")
        if not (np.all(self.rate_min < 0.0) and np.all(self.rate_max > 0.0)):
            raise BadDimension("rate bounds must straddle zero")
        if not np.all(self.u_adj > 0.0):
            raise BadDimension("relative bounds must be positive")
        if self.dt <= 0.0:
            raise BadDimension("dt must be positive")
        C = adjacency_matrix(m)
        I = np.eye(m)
        self.C, self.A = C, np.vstack([I, -I, C, -C, I, -I])
        self.b_rate = np.concatenate([self.rate_max * self.dt, -self.rate_min * self.dt])
        self.E = np.vstack([-I, I, -C, C, np.zeros((2 * m, m))])
        self.b0 = np.concatenate([self.u_max, -self.u_min, self.u_adj, self.u_adj, self.b_rate])
        for a in (self.C, self.A, self.b_rate, self.E, self.b0):
            a.flags.writeable = False

    @property
    def m(self):
        return self.u_min.size


@dataclass(slots=True)
class LinearInequality:
    """A du <= b with r = 4m + 2(m-1) rows in the canonical order."""

    A: np.ndarray
    b: np.ndarray


def adjacency_matrix(m):
    """(m-1) x m differencing matrix: row i has +1 at i, -1 at i+1."""
    if m < 2:
        raise BadDimension(f"need at least two servos, got {m}")
    C = np.zeros((m - 1, m))
    idx = np.arange(m - 1)
    C[idx, idx] = 1.0
    C[idx, idx + 1] = -1.0
    return C


def assemble(limits, u0):
    """Compile the limit set at the current command u0 into A du <= b.

    u0 marginally outside the position bounds is clamped first, so the
    rate-limited retreat direction always stays feasible.  If u0 violates
    a relative bound (possible after a fault) the inequality would
    exclude du = 0; that is surfaced as InfeasibleCurrentState.  A is the
    limits' shared read-only matrix; b = b0 + E u0 is built fresh on
    every call.  E holds only +/-1 and zeros, so b equals the row-by-row
    u_max - u0, u0 - u_min, u_adj -/+ C u0 bit for bit: with every position
    and relative row of b non-negative, u0 is within its bounds, clamping
    it changes nothing and b is taken as first formed.  The rate rows are
    b_rate > 0 (InputLimits checks), so b's minimum tests the others; a NaN is not clamped.
    """
    b = np.dot(limits.E, u0)
    np.add(b, limits.b0, out=b)   # b0 + E u0: addition commutes bit for bit
    if np.minimum.reduce(b) < 0.0:
        m = limits.m
        u0 = np.minimum(np.maximum(u0, limits.u_min), limits.u_max)
        b = limits.b0 + limits.E @ u0
        if b[2 * m:4 * m - 2].min() < -POSITION_SLACK:
            raise InfeasibleCurrentState(
                "current command violates a relative-position bound; du = 0 excluded"
            )
    return LinearInequality(limits.A, b)


def rate_box(limits):
    """Fallback inequality of the rate rows alone, A's last 2m (always feasible at 0)."""
    return LinearInequality(A=limits.A[-2 * limits.m:], b=limits.b_rate)
