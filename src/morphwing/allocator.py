"""Per-step incremental control allocation.

Three routes to split a pseudo-control demand over the servos:

* pseudo-inverse — exact, unconstrained, minimum-norm;
* constrained QP — weighted tracking objective plus a small secondary
  term pulling toward a preferred command, subject to the compiled
  servo-limit inequality;
* the same QP posed in virtual-shape coordinates, which shrinks the
  decision space to q < m and keeps the spanwise profile smooth.

The QP is compiled once; a primal active-set method, warm started
between steps, runs only when its unconstrained optimum is infeasible.
"""

from dataclasses import dataclass, field

import numpy as np

from .constraints import LinearInequality
from .errors import DimensionMismatch
from .numerics import pseudo_inverse
from .shapes import ShapeBasis

_FEAS_TOL = 1e-9
_ITER_CAP = 50


@dataclass
class AllocationProblem:
    """One time-step's allocation data.

    B_eff maps command increments to pseudo-control (load-units per
    deg), target is the demanded pseudo-control increment, W1/W2 weight
    the tracking and secondary objectives, sigma trades them off, u0 is
    the current command and u_star the preferred one.
    """

    B_eff: np.ndarray
    target: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    sigma: float
    u0: np.ndarray
    u_star: np.ndarray
    ineq: LinearInequality

    def __post_init__(self):
        self.B_eff = np.atleast_2d(np.asarray(self.B_eff, dtype=float))
        self.target = np.asarray(self.target, dtype=float)
        self.u0 = np.asarray(self.u0, dtype=float)
        self.u_star = np.asarray(self.u_star, dtype=float)
        self.W1 = np.asarray(self.W1, dtype=float)
        self.W2 = np.asarray(self.W2, dtype=float)
        if self.B_eff.shape[0] != self.target.size:
            raise DimensionMismatch("B_eff rows must match target length")
        if not (0.0 < self.sigma < 1.0):
            raise DimensionMismatch(f"sigma must be in (0, 1), got {self.sigma}")


@dataclass
class AllocationResult:
    delta_u: np.ndarray
    eps_ca: np.ndarray
    iterations: int
    active_set: tuple
    status: str  # Optimal | IterationCap
    delta_u_virtual: np.ndarray = field(default=None, repr=False)


def allocate_pseudo_inverse(B_eff, target):
    """Minimum-norm exact increment delta_u = B+ target."""
    return pseudo_inverse(B_eff) @ np.asarray(target, dtype=float)


class ActiveSetQP:
    """Primal active-set solver for min 0.5 x'Hx + g'x s.t. A x <= b.

    One constraint is added or dropped per iteration; each equality
    subproblem is solved through the KKT system.  The start point is
    x = 0, which the constraint compiler guarantees feasible.  The
    working set from the previous solve can seed the next one.

    Precondition: H is positive definite.  Both allocators pass
    H = B'B + sigma I with sigma in (0, 1), which is.
    """

    def __init__(self, tol=_FEAS_TOL, max_iter=_ITER_CAP):
        self.tol = tol
        self.max_iter = max_iter

    def solve(self, H, g, A, b, warm_start=()):
        x = np.zeros(g.size)
        # keep only warm-start rows active at x = 0; drop the rest
        working = [i for i in warm_start if b[i] <= self.tol]
        # guard against a degenerate (rank-deficient) warm working set
        while working and np.linalg.matrix_rank(A[working], tol=1e-10) < len(working):
            working.pop()

        for iterations in range(1, self.max_iter + 1):
            x_eq, lam = self._kkt_solve(H, g, A, b, working)
            step = x_eq - x
            # relative to |x_eq|: a rounding-sized step is no move, or a
            # dependent row joins, leaves and the solver cycles
            if np.max(np.abs(step)) <= 1e-11 * max(1.0, np.max(np.abs(x_eq))):
                # at the working-set minimizer: optimal unless a
                # negative multiplier says a constraint should leave
                if len(working) == 0 or np.min(lam) >= -self.tol:
                    return x, iterations, tuple(sorted(working)), "Optimal"
                worst = np.min(lam)
                candidates = [working[j] for j in range(len(working)) if lam[j] <= worst + 1e-14]
                drop_row = min(candidates)
                working.remove(drop_row)
                continue
            # longest feasible step toward x_eq: the smallest ratio below
            # one blocks, and argmin sends exact ties to the lowest row
            Astep = A @ step
            approaching = Astep > 1e-14
            approaching[working] = False
            ratio = np.full(Astep.shape, np.inf)
            np.divide(b - A @ x, Astep, out=ratio, where=approaching)
            block = int(np.argmin(ratio))
            alpha = ratio[block]
            if alpha < 1.0 - 1e-12:
                x = x + max(alpha, 0.0) * step
                working.append(block)
            else:
                x = x + step
        return x, self.max_iter, tuple(sorted(working)), "IterationCap"

    @staticmethod
    def _kkt_solve(H, g, A, b, working):
        """Minimize over the affine set where the working rows are tight.

        Solves [H A_w'; A_w 0][x; lam] = [-g; b_w] for the full working
        set; the current iterate already satisfies A_w x = b_w.
        """
        if not working:
            return np.linalg.solve(H, -g), np.empty(0)
        Aw = A[working]
        k = len(working)
        KKT = np.block([[H, Aw.T], [Aw, np.zeros((k, k))]])
        rhs = np.concatenate([-g, b[working]])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            # dependent working rows (possible after projection into
            # virtual space): the primal part is still unique because H
            # is positive definite; take the minimum-norm multipliers
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        return sol[: H.shape[0]], sol[H.shape[0]:]


class CompiledQP:
    """The run-constant parts of the allocation QP, built once per controller.

    Over x (du, or shape coefficients with du = Phi x; Phi is None in servo
    space) the QP is min 0.5 x'Hx + g'x s.t. A Phi x <= b, H = (B Phi)' W1 B Phi
    + sigma W2, g = G target - S pull.  S maps the pull u_star - u0 through Phi
    by least squares (Phi has full column rank); W2 is the identity unless it
    is square in x.  H is positive definite, so x0 = M target + N pull, the
    unconstrained minimizer, is optimal if feasible.
    """

    def __init__(self, B_eff, W1, W2, sigma, A, Phi=None):
        if not 0.0 < sigma < 1.0:
            raise DimensionMismatch(f"sigma must be in (0, 1), got {sigma}")
        B, proj = (B_eff, np.eye(B_eff.shape[1])) if Phi is None else (
            B_eff @ Phi, np.linalg.solve(Phi.T @ Phi, Phi.T))
        W2 = W2 if W2.shape[0] == B.shape[1] else np.eye(B.shape[1])
        self.H = B.T @ W1 @ B + sigma * W2
        self.G, self.S = -B.T @ W1, sigma * W2 @ proj
        self.M, self.N = np.linalg.solve(self.H, -self.G), np.linalg.solve(self.H, self.S)
        self.A = A if Phi is None else A @ Phi

    def solve(self, problem, solver, warm_start):
        """One tick's (x, iterations, active set, status); warm_start seeds the solver."""
        t, pull, b = problem.target, problem.u_star - problem.u0, problem.ineq.b
        x0 = self.M @ t + self.N @ pull
        A = self.A[-b.size:]   # all rows, or the rate box: the last 2m
        if np.all(A @ x0 <= b):
            return x0, 1, (), "Optimal"
        return solver.solve(self.H, self.G @ t - self.S @ pull, A, b, warm_start=warm_start)


def allocate_qp(problem, solver=None, warm_start=(), compiled=None):
    """Constrained allocation in servo space; see allocate_qp_virtual."""
    return _allocate(problem, None, solver, warm_start, compiled)


def allocate_qp_virtual(problem, basis, solver=None, warm_start=(), compiled=None):
    """Constrained allocation over virtual-shape coefficients.

    The effectiveness and inequality are both composed with Phi so the
    QP searches only q coefficients; the returned increment is mapped
    back to servo space and satisfies the original inequality by
    construction.  compiled is the CompiledQP of the problem's constant
    parts; without one it is built from the problem.

    Precondition: B_eff @ Phi has full row rank.  Both are constant over
    a run, so the caller checks this once (IndiController does so at
    construction) rather than on every call.
    """
    Phi = basis.Phi if isinstance(basis, ShapeBasis) else np.asarray(basis, dtype=float)
    return _allocate(problem, Phi, solver, warm_start, compiled)


def _allocate(problem, Phi, solver, warm_start, compiled):
    compiled = compiled or CompiledQP(problem.B_eff, problem.W1, problem.W2, problem.sigma,
                                      problem.ineq.A, Phi)
    x, iterations, active, status = compiled.solve(problem, solver or ActiveSetQP(), warm_start)
    delta_u = x if Phi is None else Phi @ x
    return AllocationResult(
        delta_u=delta_u, eps_ca=problem.B_eff @ delta_u - problem.target, iterations=iterations,
        active_set=active, status=status, delta_u_virtual=None if Phi is None else x,
    )
