"""Dense linear-algebra and integration kernel.

Everything in here is a pure function of its inputs; matrices are plain
numpy arrays.  The solvers are deliberately simple direct methods sized
for the small systems the rest of the toolkit produces (n <= ~30): the
Lyapunov solver is one Kronecker-product linear solve, and the Riccati
solver reads the stabilizing solution off one eigen-decomposition of the
Hamiltonian matrix (Potter 1966; Laub, IEEE TAC 1979).
"""

import numpy as np

from .errors import (
    BadSampling,
    NoStabilizingSolution,
    NonFiniteState,
    NotHurwitz,
    RankDeficient,
)

# Pivot below this fraction of the largest entry counts as singular.
_SINGULAR_RTOL = 1e-12


def _solve(A, b):
    """Partial-pivot LU solve with an explicit singularity check."""
    A = np.asarray(A)
    scale = np.max(np.abs(A)) if A.size else 0.0
    if scale == 0.0:
        raise RankDeficient("all-zero matrix")
    # LAPACK's getrf does the pivoting; detect near-singularity via rcond.
    if 1.0 / np.linalg.cond(A, 1) < _SINGULAR_RTOL:
        raise RankDeficient(f"matrix numerically singular (cond={np.linalg.cond(A, 1):.3e})")
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(str(exc)) from exc


def pseudo_inverse(B):
    """Right pseudo-inverse B^T (B B^T)^-1 of a full-row-rank p x m matrix.

    Raises RankDeficient when B B^T is numerically singular.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    gram = B @ B.T
    try:
        return B.T @ _solve(gram, np.eye(B.shape[0]))
    except RankDeficient as exc:
        raise RankDeficient(f"row rank of B below {B.shape[0]}: {exc}") from exc


def hurwitz_margin(A):
    """Largest eigenvalue real part (negative for a Hurwitz matrix)."""
    return float(np.max(np.linalg.eigvals(np.asarray(A, dtype=float)).real))


def solve_lyapunov(A, Q):
    """Solve P A + A^T P = -Q for symmetric P > 0.

    Uses the Kronecker-product linear system, which is fine at the sizes
    this toolkit ever sees.  A must be Hurwitz and Q symmetric PD.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if hurwitz_margin(A) >= -1e-12:
        raise NotHurwitz(f"eigenvalue real part {hurwitz_margin(A):.3e} >= -1e-12")
    # vec(PA + A^T P) = (A^T (x) I + I (x) A^T) vec(P)
    K = np.kron(A.T, np.eye(n)) + np.kron(np.eye(n), A.T)
    P = _solve(K, -Q.reshape(-1)).reshape(n, n)
    return 0.5 * (P + P.T)


def care_residual(A, B, Q, R, S):
    """Infinity norm of A^T S + S A - S B R^-1 B^T S + Q."""
    res = A.T @ S + S @ A - S @ B @ np.linalg.solve(R, B.T @ S) + Q
    return float(np.max(np.abs(res)))


def solve_care(A, B, Q, R):
    """Stabilizing solution of A^T S + S A - S B R^-1 B^T S + Q = 0.

    Potter's Hamiltonian method: the eigenvectors [X1; X2] of
    [[A, -B R^-1 B^T], [-Q, -A^T]] for its n eigenvalues with negative
    real part span the stable invariant subspace, and S = X2 X1^-1.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.asarray(Q, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    w, V = np.linalg.eig(H)
    stable = w.real < 0.0
    if np.count_nonzero(stable) != n:
        raise NoStabilizingSolution(
            f"{np.count_nonzero(stable)} stable Hamiltonian eigenvalues, need {n}")
    try:
        S = _solve(V[:n, stable].T, V[n:, stable].T).T
    except RankDeficient as exc:
        raise NoStabilizingSolution(f"stable subspace has no graph form: {exc}") from exc
    # The stable subspace is Lagrangian, so S is Hermitian; imaginary-axis
    # eigenvalues split by rounding into both half planes break that.
    if np.max(np.abs(S - S.conj().T)) > 1e-8 * np.max(np.abs(S)):
        raise NoStabilizingSolution("Hamiltonian has eigenvalues on the imaginary axis")
    S = 0.5 * (S + S.T).real
    if care_residual(A, B, Q, R, S) > 1e-8 * max(1.0, float(np.max(np.abs(Q))), float(np.max(np.abs(S))) ** 2):
        raise NoStabilizingSolution("solution does not satisfy the Riccati equation")
    return S


class BlockMap:
    """k steps of x+ = Ad x + Bd u, y = Cd x + Dd u as two matrix products.

    The block-Toeplitz trajectory matrices map [x0; u_0; ...; u_{k-1}] to
    the stacked outputs y_0..y_{k-1} and to the states x_1..x_k.  They are
    built for the longest run asked for so far; a shorter run uses their
    leading blocks.  Input rows are the steps; any trailing columns of x
    and u are independent channels sharing the system.
    """

    def __init__(self, Ad, Bd, Cd, Dd):
        self.Ad, self.Bd, self.Cd, self.Dd = (np.atleast_2d(np.asarray(M, dtype=float))
                                              for M in (Ad, Bd, Cd, Dd))
        self.n = 0

    def _build(self, n):
        Ad, Bd, Cd, Dd = self.Ad, self.Bd, self.Cd, self.Dd
        (ns, nu), p = Bd.shape, Cd.shape[0]
        powers = [np.eye(ns)]
        for _ in range(n):
            powers.append(Ad @ powers[-1])
        self.outputs = np.zeros((n * p, ns + n * nu))
        self.states = np.zeros((n * ns, ns + n * nu))
        for j in range(n):
            y, x = slice(j * p, (j + 1) * p), slice(j * ns, (j + 1) * ns)
            self.outputs[y, :ns] = Cd @ powers[j]
            self.states[x, :ns] = powers[j + 1]
            for i in range(j + 1):
                u = slice(ns + i * nu, ns + (i + 1) * nu)
                self.states[x, u] = powers[j - i] @ Bd
                self.outputs[y, u] = Dd if i == j else Cd @ powers[j - 1 - i] @ Bd
        self.n = n

    def run(self, x, U):
        """Outputs of len(U) steps from state x, and the state after them.

        Returns the outputs stacked as (len(U) * p, channels) and the final
        state as (ns, channels).
        """
        k = len(U)
        if k > self.n:
            self._build(k)
        (ns, nu), p = self.Bd.shape, self.Cd.shape[0]
        xu = np.concatenate([x.reshape(ns, -1), U.reshape(k * nu, -1)])
        cols = ns + k * nu
        return self.outputs[:k * p, :cols] @ xu, self.states[(k - 1) * ns:k * ns, :cols] @ xu


class SecondOrderFilter:
    """Discrete unit-DC-gain second-order low pass w^2 / (s^2 + 2 z w s + w^2).

    Discretized with the bilinear (trapezoidal) map, which preserves the
    DC gain and stability exactly.  Holds two states; step() advances one
    sample.  Vector-valued states are supported so one instance can
    filter a bank of identical channels.
    """

    def __init__(self, zeta, omega, dt, channels=1):
        if not (zeta > 0.0 and omega > 0.0 and dt > 0.0):
            raise BadSampling("zeta, omega, dt must all be positive")
        if omega * dt >= 1.0:
            raise BadSampling(f"omega*dt = {omega * dt:.3f} >= 1; sample faster or slow the filter")
        self.zeta = zeta
        self.omega = omega
        self.dt = dt
        k = 2.0 / dt
        a0 = k * k + 2.0 * zeta * omega * k + omega * omega
        self.b = omega * omega / a0 * np.array([1.0, 2.0, 1.0])
        self.a = np.array([
            (2.0 * omega * omega - 2.0 * k * k) / a0,
            (k * k - 2.0 * zeta * omega * k + omega * omega) / a0,
        ])
        self.state = np.zeros((2, channels)) if channels > 1 else np.zeros(2)
        # the same recursion in state-space form, for run()
        a0, a1 = self.a
        b0, b1, b2 = self.b
        self.blocks = BlockMap([[-a0, 1.0], [-a1, 0.0]], [[b1 - a0 * b0], [b2 - a1 * b0]],
                               [[1.0, 0.0]], [[b0]])

    def step(self, x):
        """Advance one sample (direct form II transposed)."""
        y = self.b[0] * x + self.state[0]
        self.state[0] = self.b[1] * x - self.a[0] * y + self.state[1]
        self.state[1] = self.b[2] * x - self.a[1] * y
        return y

    def run(self, X):
        """step() over each row of X, through the block maps."""
        X = np.asarray(X, dtype=float)
        Y, state = self.blocks.run(self.state, X)
        self.state = state.reshape(self.state.shape)
        return Y.reshape(X.shape)

    def continuous_magnitude(self, w):
        """|H(jw)| of the underlying continuous-time filter."""
        num = self.omega ** 2
        den = complex(self.omega ** 2 - w ** 2, 2.0 * self.zeta * self.omega * w)
        return abs(num / den)


def integrate_step(f, x, u, dt):
    """One fixed-step RK4 update of x' = f(x, u)."""
    if dt <= 0.0:
        raise BadSampling("dt must be positive")
    k1 = f(x, u)
    k2 = f(x + 0.5 * dt * k1, u)
    k3 = f(x + 0.5 * dt * k2, u)
    k4 = f(x + dt * k3, u)
    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteState("RK4 step produced non-finite state")
    return x_next
