"""Per-step incremental control allocation.

Three routes to split a pseudo-control demand over the servos:

* pseudo-inverse — exact, unconstrained, minimum-norm;
* constrained QP — weighted tracking objective plus a small secondary
  term pulling toward a preferred command, subject to the compiled
  servo-limit inequality;
* the same QP posed in virtual-shape coordinates, which shrinks the
  decision space to q < m and keeps the spanwise profile smooth.

The QP is compiled once; a dual active-set method, warm started
between steps, runs only when its unconstrained optimum is infeasible.
"""

from dataclasses import dataclass, field

import numpy as np

from .constraints import LinearInequality
from .errors import DimensionMismatch
from .numerics import pseudo_inverse
from .shapes import ShapeBasis

_ITER_CAP = 50
# a violation, pivot or multiplier rate below this share of its scale is rounding
_TIGHT = 1e-12


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    """Dual active-set solver (Goldfarb & Idnani, Math. Prog. 27, 1983) for
    min 0.5 x'Hx + g'x s.t. A x <= b, on R = H^-1 A' and P = A R.

    x = x0 - R_W lam, P_WW lam = A_W x0 - b_W (x0 = -H^-1 g), is the minimizer
    with the working rows W tight, and the QP's optimum if lam >= 0 and no
    other row is violated.  Each step adds the most violated row (ties to the
    lowest index); a working row whose multiplier reaches zero leaves by a
    partial step.  A warm working set is taken if its multipliers are all
    >= 0 (Haerkegaard, CDC 2002).  iterations counts x0, the warm start and
    each step.  A capped iterate, still infeasible, is pulled back to the
    longest feasible step from x = 0.
    """

    def __init__(self, max_iter=_ITER_CAP):
        self.max_iter = max_iter

    def solve(self, A, b, R, P, x0, v, warm_start=()):
        """(x, iterations, active set, status) from x0 and its violations v = A x0 - b."""
        W, x, lam, iterations, p = list(warm_start), x0, np.empty(0), 1, None
        if W:
            Pinv = np.linalg.inv(P[W][:, W])
            lam = Pinv @ v[W]
            if lam.min() >= 0.0:
                x, iterations = x0 - R[:, W] @ lam, 2
            else:
                W, lam = [], np.empty(0)
        while True:
            if W:   # one refinement puts the working rows back on their limits
                c = Pinv @ (A[W] @ x - b[W])
                x, lam = x - R[:, W] @ c, lam + c
            if p is None:
                s = A @ x - b
                s[W] = -np.inf
                p = int(np.argmax(s))
                # a violation within rounding of its scale (a working row's twin) holds
                if s[p] <= _TIGHT * (np.abs(A[p]) @ np.abs(x) + abs(b[p])):
                    return x, iterations, tuple(sorted(W)), "Optimal"
                lam_p = 0.0
            if iterations >= self.max_iter:
                break
            iterations += 1
            # raising p's multiplier by t moves x by -t z and keeps the W rows
            # tight; steps[0] makes row p tight, steps[1 + i] zeroes lam[i]
            r = Pinv @ P[W, p] if W else np.empty(0)
            z = R[:, p] - R[:, W] @ r
            d = A[p] @ z
            steps = np.full(len(W) + 1, np.inf)
            if d > _TIGHT * P[p, p]:
                steps[0] = (A[p] @ x - b[p]) / d
            np.divide(lam, r, out=steps[1:], where=r > _TIGHT)
            j = int(np.argmin(steps))
            t = steps[j]
            if t == np.inf:   # nothing satisfies row p: end as at the cap
                break
            x, lam, lam_p = x - t * z, lam - t * r, lam_p + t
            if j:   # partial step: W[j - 1] leaves
                del W[j - 1]
                lam = np.delete(lam, j - 1)
            else:
                W.append(p)
                lam, p = np.append(lam, lam_p), None
            if W:
                Pinv = np.linalg.inv(P[W][:, W])
        Ax = A @ x
        over = Ax > b
        alpha = np.clip(np.min(b[over] / Ax[over], initial=1.0), 0.0, 1.0)
        return alpha * x, iterations, tuple(sorted(W)), "IterationCap"


_SOLVER = ActiveSetQP()   # the default; it keeps no state between solves


class CompiledQP:
    """The run-constant parts of the allocation QP, built once per controller.

    Over x (du, or shape coefficients with du = Phi x; Phi is None in servo
    space) the QP is min 0.5 x'Hx + g'x s.t. A Phi x <= b, H = (B Phi)' W1 B Phi
    + sigma W2, g = G target - S pull.  S maps the pull u_star - u0 through Phi
    by least squares (Phi has full column rank); W2 is the identity unless it
    is square in x.  H is positive definite, so x0 = M target + N pull, the
    unconstrained minimizer, is optimal if feasible.  The dual solver runs on
    R = H^-1 (A Phi)' and P = A Phi R; the rate box takes their last 2m columns
    and A Phi's and P's last 2m rows.
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
        self.R = np.linalg.solve(self.H, self.A.T)
        self.P = self.A @ self.R

    def solve(self, problem, solver, warm_start):
        """One tick's (x, iterations, active set, status); warm_start seeds the solver."""
        b = problem.ineq.b
        n = b.size   # all rows, or the rate box: the last 2m
        A, x0 = self.A[-n:], self.M @ problem.target
        if problem.u_star is not problem.u0:   # no pull without a preferred command of its own
            x0 = x0 + self.N @ (problem.u_star - problem.u0)
        Ax0 = A @ x0
        if (Ax0 <= b).all():   # exact: no tolerance accepts a violation
            return x0, 1, (), "Optimal"
        return solver.solve(A, b, self.R[:, -n:], self.P[-n:, -n:], x0, Ax0 - b, warm_start)


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
    x, iterations, active, status = compiled.solve(problem, solver or _SOLVER, warm_start)
    delta_u = x if Phi is None else Phi @ x
    return AllocationResult(
        delta_u=delta_u, eps_ca=problem.B_eff @ delta_u - problem.target, iterations=iterations,
        active_set=active, status=status, delta_u_virtual=None if Phi is None else x,
    )
