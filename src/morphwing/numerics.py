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
    """k steps of x+ = Ad x + Bd u, y = Cd x + Dd u as one matrix product.

    tick(k) stacks the block-Toeplitz trajectory matrices that map
    [x0; u_0; ...; u_{k-1}] to the state x_k and the outputs
    y_0..y_{k-1}, built once per block length.  Input rows are the
    steps; any trailing columns of x and u are independent channels
    sharing the system.  lifted() runs a long input sequence through
    tick(k) a whole block at a time, with a loop over the blocks only.
    """

    def __init__(self, Ad, Bd, Cd, Dd):
        self.Ad, self.Bd, self.Cd, self.Dd = (np.atleast_2d(np.asarray(M, dtype=float))
                                              for M in (Ad, Bd, Cd, Dd))
        self._ticks = {}

    def tick(self, k, held=False):
        """[x0; u_0; ...; u_{k-1}] -> [x_k; y_0; ...; y_{k-1}] as one matrix.

        held=True sums the input columns, for an input held over the k
        steps: the matrix then takes [x0; u].  The state rows come first:
        with OpenBLAS's gemv on x86-64 that keeps each output row bit for
        bit what a product with the output rows alone gives.
        """
        key = (k, held)
        if key not in self._ticks:
            Ad, Bd, Cd, Dd = self.Ad, self.Bd, self.Cd, self.Dd
            (ns, nu), p = Bd.shape, Cd.shape[0]
            powers = [np.eye(ns)]
            for _ in range(k):
                powers.append(Ad @ powers[-1])
            M = np.zeros((ns + k * p, ns + k * nu))
            M[:ns, :ns] = powers[k]
            u = [slice(ns + i * nu, ns + (i + 1) * nu) for i in range(k)]
            for j in range(k):
                y = slice(ns + j * p, ns + (j + 1) * p)
                M[y, :ns] = Cd @ powers[j]
                M[:ns, u[j]] = powers[k - 1 - j] @ Bd
                for i in range(j + 1):
                    M[y, u[i]] = Dd if i == j else Cd @ powers[j - 1 - i] @ Bd
            if held:
                M = np.hstack([M[:, :ns], M[:, ns:].reshape(len(M), k, nu).sum(axis=1)])
            self._ticks[key] = M
        return self._ticks[key]

    def lifted(self, x0, U, k, rows=None):
        """Run the n steps of U from x0 as k-step blocks, with no loop over steps.

        U holds one input row per step, shape (n, nu) plus any channel
        axes of x0.  With tick(k) split into its state and output parts
        [[Ā, B̄], [C̄, D̄]] and u_j block j's inputs stacked, the forcing
        B̄·u_j of every block is one product, the block starts follow from
        s_{j+1} = Ā·s_j + B̄·u_j, a recursion over the blocks only, and the
        outputs C̄·s_j + D̄·u_j of every block are one product.  rows picks
        rows of the k·p block outputs (all by default).  A last block of
        r < k steps is padded with zero inputs: its outputs after step n
        are the padded block's, and the final state comes from tick(r).

        Returns (S, Y, x_n): the state at each block start, one row per
        block; the picked outputs of each block, one row per block; and
        the state after the n steps.
        """
        M = self.tick(k)
        ns, nu = self.Bd.shape
        x0, U = np.asarray(x0, dtype=float), np.asarray(U, dtype=float)
        ch, n = x0.shape[1:], len(U)
        c, N = int(np.prod(ch)), -(-n // k)
        # one row per block and channel: that block's inputs, step by step
        W = U.reshape(n, nu, c)
        if n < N * k:
            W = np.concatenate([W, np.zeros((N * k - n, nu, c))])
        W = W.reshape(N, k * nu, c).transpose(0, 2, 1).reshape(N * c, k * nu)
        F = (W @ M[:ns, ns:].T).reshape(N, c, ns)
        S = np.empty((N + 1, c, ns))
        S[0] = x0.reshape(ns, c).T
        At, starts = M[:ns, :ns].T, list(S)   # the block starts' views, built once
        for s, s1, f in zip(starts, starts[1:], F):
            np.matmul(s, At, out=s1)
            s1 += f
        CD = M[ns:] if rows is None else M[ns:][rows]
        Y = S[:N].reshape(N * c, ns) @ CD[:, :ns].T + W @ CD[:, ns:].T
        r = n - (N - 1) * k
        if r < k:
            S[N] = np.concatenate([S[N - 1], W[-c:, :r * nu]], axis=1) @ self.tick(r)[:ns].T
        S = S.transpose(0, 2, 1)
        Y = Y.reshape(N, c, -1).transpose(0, 2, 1)
        return S[:N].reshape((N, ns) + ch), Y.reshape((N, -1) + ch), S[N].reshape((ns,) + ch)


def delay_chain(delay, sections):
    """(A, B, C, D) of a delay-step shift register and SecondOrderFilter
    sections in series, for one channel.

    The register's oldest entry feeds the first section (the input
    itself when delay is 0); the states are the registers, oldest first,
    then two per section.
    """
    d = delay
    A, B, C, D = np.eye(d, k=1), np.eye(d, 1, k=1 - d), np.eye(1, d), np.eye(1) * (d == 0)
    for f in sections:
        A2, B2, C2, D2 = f.blocks.Ad, f.blocks.Bd, f.blocks.Cd, f.blocks.Dd
        A = np.block([[A, np.zeros((len(A), len(A2)))], [B2 @ C, A2]])
        B, C, D = np.vstack([B, B2 @ D]), np.hstack([D2 @ C, C2]), D2 @ D
    return A, B, C, D


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
        # the same recursion in state-space form, for delay_chain and the plant maps
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
