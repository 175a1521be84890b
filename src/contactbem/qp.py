"""Bound-constrained QP per time step and its projected-CG solver.

The incremental functional, after the change of variables of the contact
module, is 0.5 y^T A y - b^T y + c over y >= xi.  A is an explicit dense
matrix: the contact Hessian pulled back to y through the nodal frames, plus
the consistent compliance mass.  A depends only on the operator and the
step size, so it, its Jacobi-scaled form and that form's norm are built
once per step size.  A step first solves the QP on the previous step's
active set by a few primal-dual active-set corrections, each one direct
solve of the free block; the projected conjugate gradient method with
proportioning and expansion steps (MPRGP) runs only when that fails, and the
same corrections then finish its iterate exactly.  A is only positive
semidefinite (the slip magnitudes appear linearly), so nonpositive
curvature along a search direction falls back to the expansion step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import (
    ContactLaw,
    GapState,
    contact_mass,  # unused here; perfbench/probe.py wraps qp.contact_mass
    frame_split,
    mosco_bounds,
)


class QPError(RuntimeError):
    pass


@dataclass
class QPProblem:
    """min 0.5 y^T A y - b^T y + c  subject to  y >= xi."""

    A: np.ndarray
    b: np.ndarray
    xi: np.ndarray
    c: float = 0.0
    scaled: tuple = None  # jacobi_scaling(A); None: built per solve
    # y stacks (y1, y2, y3, y4) as build_qp does: each node's slip
    # magnitude alpha = (y1 + y2)/2 is a null direction of A
    slip_pairs: bool = False

    @property
    def dim(self) -> int:
        return len(self.b)

    def objective(self, y: np.ndarray) -> float:
        return float(0.5 * y @ (self.A @ y) - self.b @ y + self.c)


@dataclass
class QPSolution:
    y: np.ndarray
    iterations: int
    active: np.ndarray
    n_backsolves: int = 0  # applications of A; perfbench/probe.py reads the name


def quadratic_part(op, c_beta: float):
    """(A, jacobi_scaling(A)) of the step QP with compliance factor
    c_beta = tau k_g / (tau + chi).

    A is the contact Hessian H pulled back to y by B = dw/dy (w the global
    gap, w_t = (y1 - y2)/2 and w_n = y4 - y3 in the nodal frames), plus
    c_beta M on the y3 block.  A depends only on the operator and c_beta,
    so it and its scaled form are built once per distinct c_beta and kept
    on the operator.
    """
    part = op.qp_parts.get(c_beta)
    if part is not None:
        return part
    pair, n = op.im.pair, op.n_w // 2
    # nodal (t or n) component -> interleaved global xy components
    R_t, R_n = ((v[:, :, None] * np.eye(n)[:, None, :]).reshape(2 * n, n)
                for v in (pair.tangent, pair.normal))
    B = np.hstack([0.5 * R_t, -0.5 * R_t, -R_n, R_n])
    A = B.T @ op.H @ B
    A[2 * n:3 * n, 2 * n:3 * n] += c_beta * op.M
    A = 0.5 * (A + A.T)
    part = A, jacobi_scaling(A)
    op.qp_parts[c_beta] = part
    return part


def build_qp(op, d: np.ndarray, law: ContactLaw, tau: float, chi: float,
             z_prev: GapState) -> QPProblem:
    """Assemble the per-step QP from the Steklov operator and the step's
    known boundary data d (the offset state is the solution at zero gap).

    The quadratic part combines the elastic contact response with the
    compliance mass term; the linear part carries the offset gradient
    -G_R d and the frozen friction coupling, the constant the offset
    potential -d^T P d / 2.
    """
    A, scaled = quadratic_part(op, tau * law.k_g / (tau + chi))
    g_off_t, g_off_n = frame_split(op.im.pair, -(op.G[:, :op.n_known] @ d))
    fric = law.mu * law.k_g * (op.M @ z_prev.beta_prev())
    b = -np.concatenate([
        0.5 * fric + 0.5 * g_off_t,
        0.5 * fric - 0.5 * g_off_t,
        -g_off_n,
        g_off_n,
    ])
    xi = mosco_bounds(z_prev, tau, chi)
    return QPProblem(A=A, b=b, xi=xi, c=float(-0.5 * d @ (op.P @ d)),
                     scaled=scaled, slip_pairs=True)


def jacobi_scaling(A: np.ndarray):
    """(s, A_hat, norm of A_hat): s = sqrt(diag A), with tiny diagonal
    entries floored at 1e-12 of the largest (s = 1 without a positive
    diagonal), A_hat = S^-1 A S^-1 for S = diag(s), and the norm of the
    semidefinite A_hat its largest eigenvalue, floored at 0."""
    diag = np.diag(A)
    if np.any(diag > 0):
        s = np.sqrt(np.maximum(diag, 1e-12 * diag.max()))
    else:
        s = np.ones(len(diag))
    A_hat = A / s[:, None] / s[None, :]
    return s, A_hat, max(float(np.linalg.eigvalsh(A_hat)[-1]), 0.0)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _max_feasible_step(y, d, xi):
    """Largest a >= 0 with y - a d >= xi (d is a descent direction)."""
    pos = d > 0
    return float(((y - xi)[pos] / d[pos]).min(initial=np.inf))


MAX_ACTIVE_SETS = 4  # active sets one candidate solve may try


def _tighten(y, xi, s, i):
    """Shift the slip pairs (y1, y2) of the nodes i along their null
    direction until the one nearer its bound sits exactly on it, so that
    alpha = |w_t - z_t|; y and xi are scaled by s.  In place."""
    j = i + len(y) // 4
    e1, e2 = (y[i] - xi[i]) / s[i], (y[j] - xi[j]) / s[j]
    low = e1 <= e2
    y[i] = np.where(low, xi[i], y[i] - s[i] * e2)
    y[j] = np.where(low, y[j] - s[j] * e1, xi[j])


def _active_set_solve(A, b, xi, act, slip=None):
    """Primal-dual active-set corrections from the candidate active set act
    on the scaled problem min 0.5 y^T A y - b^T y over y >= xi.

    Each correction puts the active components on their bounds and solves
    the free block directly; the next set keeps an active index while its
    gradient is >= -eps (eps at roundoff) and adds every free component
    that landed below its bound.  It stops when the set repeats or after
    MAX_ACTIVE_SETS sets and returns (y, g) of the last set, or (None,
    None) if a free block is singular, and the applications of A.

    slip = (s, flat) marks a build_qp problem scaled by s.  A pair (y1, y2)
    with both free spans the null direction alpha of A, so the solve pins
    alpha = 0 (y2 = -y1).  At flat nodes (zero friction weight,
    b1 + b2 = 0) the objective is flat along alpha too, and alpha is then
    set tight.  Elsewhere the pinned pair violates a bound unless it is
    stuck, and the next set activates that side.
    """
    n, m = len(b), len(b) // 4
    eps = 1e-12 * _norm(b)
    for sets in range(1, MAX_ACTIVE_SETS + 1):
        free = ~act
        y = np.where(act, xi, 0.0)
        rhs = b - A @ y
        i = np.zeros(0, dtype=int)
        if slip is not None:
            s, flat = slip
            i = np.flatnonzero(free[:m] & free[m:2 * m])
        try:
            if i.size:
                keep = free.copy()
                keep[i + m] = False
                T = np.eye(n)[:, keep]
                T[i + m, np.searchsorted(np.flatnonzero(keep), i)] = (
                    -s[i + m] / s[i])
                y[free] = (T @ np.linalg.solve(T.T @ A @ T, T.T @ rhs))[free]
                _tighten(y, xi, s, i[flat[i]])
            else:
                y[free] = np.linalg.solve(A[np.ix_(free, free)], rhs[free])
        except np.linalg.LinAlgError:
            return None, None, 2 * sets - 1
        g = A @ y - b
        new = np.where(act, g >= -eps, y < xi)
        if np.array_equal(new, act):
            break
        act = new
    return y, g, 2 * sets


def mprgp_solve(p: QPProblem, y0: np.ndarray = None, active: np.ndarray = None,
                rtol: float = 1e-8, max_iter: int = None,
                telemetry: list = None) -> QPSolution:
    """Projected CG with proportioning and expansion for min over y >= xi.

    Stops when the projected gradient norm drops below rtol times the
    gradient scale; raises on the iteration cap.  The iteration runs on the
    Jacobi-scaled variables y_hat = s * y with the scaled matrix A_hat of
    jacobi_scaling, taken from the problem when it carries them: the
    positive diagonal scaling preserves the bound structure and equalizes
    stiff and soft rows, which keeps the fixed expansion step effective.
    Every application of A is one matvec with A_hat.

    A candidate active set (the previous step's) is tried first by
    _active_set_solve; its result is returned after 0 iterations when it is
    feasible and passes the stopping test.  Otherwise MPRGP runs from y0,
    and _active_set_solve then finishes from MPRGP's active set; that result
    is kept when it passes the same test and does not raise the objective.
    For a build_qp problem every slip magnitude of the result is made tight.
    The returned active set is that of the returned y.
    """
    n = p.dim
    if max_iter is None:
        max_iter = 50 * n
    scal, A, norm_A = p.scaled if p.scaled is not None else jacobi_scaling(p.A)
    b = p.b / scal
    xi = p.xi * scal
    tiny = 1e-13
    tol = rtol * max(_norm(b), tiny)
    act_below = xi + tiny * (1.0 + np.abs(xi))

    def parts(y, g):
        act = y <= act_below
        free_g = np.where(act, 0.0, g)
        chop_g = np.where(act, np.minimum(g, 0.0), 0.0)
        return act, free_g, chop_g

    def kkt(y, g):
        _, free_g, chop_g = parts(y, g)
        return bool(np.all(y >= xi)) and _norm(free_g + chop_g) <= tol

    slip = None
    if p.slip_pairs:
        m = n // 4
        slip = scal, p.b[:m] + p.b[m:2 * m] == 0.0
    y, it, nb = None, 0, 0
    if active is not None:
        y, g, nb = _active_set_solve(A, b, xi, active, slip)
        if y is not None and not kkt(y, g):
            y = None
    if y is None:
        y, g, it, nb_mprgp = _mprgp(A, b, xi, y0, scal, norm_A, tol, parts,
                                    max_iter, p.c, telemetry)
        y_f, g_f, nb_f = _active_set_solve(A, b, xi, parts(y, g)[0], slip)
        nb += nb_mprgp + nb_f
        if (y_f is not None and kkt(y_f, g_f)
                and y_f @ (g_f - b) <= y @ (g - b)):
            y = y_f
    if p.slip_pairs:
        _tighten(y, xi, scal, np.arange(n // 4))
    act = y <= act_below
    return QPSolution(y=np.where(act, p.xi, y / scal), iterations=it,
                      active=act, n_backsolves=nb)


def _mprgp(A, b, xi, y0, scal, norm_A, tol, parts, max_iter, c, telemetry):
    """The MPRGP iteration on the scaled problem from y0 (unscaled);
    returns (y, g, iterations, applications of A)."""
    if y0 is not None:
        y0 = y0 * scal
    y = np.maximum(y0 if y0 is not None else xi, xi).astype(float)
    abar = 1.0 / norm_A if norm_A > 0 else 1.0
    tiny = 1e-13

    g = A @ y - b
    nb = 1
    act, free_g, chop_g = parts(y, g)
    d = free_g.copy()
    it = 0
    while True:
        nu = _norm(free_g + chop_g)
        if telemetry is not None:
            obj = 0.5 * float(y @ g - b @ y) + c
            telemetry.append((it, nu, int(act.sum()), obj))
        if nu <= tol:
            # recurred gradients drift; confirm against a fresh residual
            g = A @ y - b
            nb += 1
            act, free_g, chop_g = parts(y, g)
            nu = _norm(free_g + chop_g)
            if nu <= tol:
                break
            d = free_g.copy()
        if it >= max_iter:
            raise QPError(f"projected CG exceeded {max_iter} iterations "
                          f"(residual {nu:.3e}, tol {tol:.3e})")
        it += 1
        if chop_g @ chop_g <= free_g @ d:
            # dominance of the free gradient: try a CG step along d
            Ad = A @ d
            nb += 1
            dAd = float(d @ Ad)
            a_f = _max_feasible_step(y, d, xi)
            a_cg = (g @ d) / dAd if dAd > tiny * (d @ d) * norm_A else np.inf
            if a_cg <= a_f:
                y = y - a_cg * d
                g = g - a_cg * Ad
                act, free_g, chop_g = parts(y, g)
                beta = (free_g @ Ad) / dAd
                d = free_g - beta * d
            else:
                # expansion: feasible part of the CG step, then a fixed
                # gradient step projected back onto the bounds
                if np.isfinite(a_f):
                    y = y - a_f * d
                    g = g - a_f * Ad
                act, free_g, _ = parts(y, g)
                y = np.maximum(y - abar * free_g, xi)
                g = A @ y - b
                nb += 1
                act, free_g, chop_g = parts(y, g)
                d = free_g.copy()
        else:
            # proportioning: release active components with negative gradient
            d_c = chop_g
            Ad = A @ d_c
            nb += 1
            dAd = float(d_c @ Ad)
            a_cg = (g @ d_c) / dAd if dAd > 0 else abar
            y = y - a_cg * d_c
            g = g - a_cg * Ad
            act, free_g, chop_g = parts(y, g)
            d = free_g.copy()

    return y, g, it, nb
