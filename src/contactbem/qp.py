"""Bound-constrained QP per time step and its projected-CG solver.

The incremental functional, after the change of variables of the contact
module, is 0.5 y^T A y - b^T y + c over y >= xi.  A is applied as dense
matvecs: the gap part of y through the operator's nodal-frame blocks of the
contact Hessian, the compliance part through a consistent-mass product.  A
depends only on the operator and the step size, so its application, its
diagonal and its norm are built once per step size.  The solver is a
projected conjugate gradient method with proportioning and expansion steps
(MPRGP); A is only positive semidefinite (the slip magnitudes appear
linearly), so nonpositive curvature along a search direction falls back to
the expansion step.
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
    split_y,
)


class QPError(RuntimeError):
    pass


@dataclass
class QPProblem:
    """min 0.5 y^T A y - b^T y + c  subject to  y >= xi."""

    apply_A: callable
    b: np.ndarray
    xi: np.ndarray
    c: float = 0.0
    diag: np.ndarray = None  # exact diag(A), enables Jacobi scaling
    norm: float = None  # norm of the Jacobi-scaled A; None: estimated per solve

    @property
    def dim(self) -> int:
        return len(self.b)

    def objective(self, y: np.ndarray) -> float:
        return float(0.5 * y @ self.apply_A(y) - self.b @ y + self.c)


@dataclass
class QPSolution:
    y: np.ndarray
    iterations: int
    active: np.ndarray
    n_backsolves: int = 0  # applications of A; perfbench/probe.py reads the name


def quadratic_part(op, c_beta: float):
    """(apply_A, diag(A), norm of the Jacobi-scaled A) of the step QP with
    compliance factor c_beta = tau k_g / (tau + chi).

    A depends only on the operator and c_beta, so the three are built once
    per distinct c_beta and kept on the operator; the norm is taken on the
    scaled operator that mprgp_solve iterates with.
    """
    part = op.qp_parts.get(c_beta)
    if part is not None:
        return part
    T, U, V = op.T, op.U, op.V
    Cb = c_beta * op.M

    def apply_A(y):
        y1, y2, y3, y4 = split_y(y)
        w_t = 0.5 * (y1 - y2)
        w_n = y4 - y3
        g_t = T @ w_t + U @ w_n
        g_n = U.T @ w_t + V @ w_n
        return np.concatenate([
            0.5 * g_t, -0.5 * g_t, Cb @ y3 - g_n, g_n,
        ])

    diag = np.concatenate([
        0.25 * np.diag(T), 0.25 * np.diag(T),
        np.diag(Cb) + np.diag(V), np.diag(V),
    ])
    _, scaled = jacobi_scaling(apply_A, diag)
    part = apply_A, diag, estimate_norm(scaled, len(diag))
    op.qp_parts[c_beta] = part
    return part


def build_qp(op, offset, law: ContactLaw, tau: float, chi: float,
             z_prev: GapState) -> QPProblem:
    """Assemble the per-step QP from the Steklov operator and the offset
    state (the solution for the step's boundary data at zero gap).

    The quadratic part combines the elastic contact response (the operator's
    frame blocks of the dense Hessian, so applications in the solver are
    plain matvecs) with the compliance mass term; the linear part carries
    the load offset and the frozen friction coupling.
    """
    M = op.M
    apply_A, diag, norm = quadratic_part(op, tau * law.k_g / (tau + chi))
    g_off_t, g_off_n = frame_split(op.im.pair, op.gradient(offset))
    fric = law.mu * law.k_g * (M @ z_prev.beta_prev())
    b = -np.concatenate([
        0.5 * fric + 0.5 * g_off_t,
        0.5 * fric - 0.5 * g_off_t,
        -g_off_n,
        g_off_n,
    ])
    xi = mosco_bounds(z_prev, tau, chi)
    return QPProblem(apply_A=apply_A, b=b, xi=xi, c=op.potential(offset),
                     diag=diag, norm=norm)


def jacobi_scaling(apply_A, diag):
    """Scaling s = sqrt(diag) and the scaled operator y_hat -> A(y_hat/s)/s.

    Returns (None, apply_A) without a positive diagonal.  Tiny diagonal
    entries are floored at 1e-12 of the largest.
    """
    if diag is None or not np.any(diag > 0):
        return None, apply_A
    scal = np.sqrt(np.maximum(diag, 1e-12 * diag.max()))
    return scal, lambda yh: apply_A(yh / scal) / scal


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def estimate_norm(apply_A, dim: int, iters: int = 20, seed: int = 0) -> float:
    """Operator-norm estimate by power iteration (A symmetric PSD)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= _norm(v)
    lam = 0.0
    for _ in range(iters):
        av = apply_A(v)
        lam = float(v @ av)
        nrm = _norm(av)
        if nrm == 0.0:
            return 0.0
        v = av / nrm
    return max(lam, nrm)


def _max_feasible_step(y, d, xi):
    """Largest a >= 0 with y - a d >= xi (d is a descent direction)."""
    pos = d > 0
    return float(((y - xi)[pos] / d[pos]).min(initial=np.inf))


def mprgp_solve(p: QPProblem, y0: np.ndarray = None, rtol: float = 1e-8,
                max_iter: int = None, telemetry: list = None) -> QPSolution:
    """Projected CG with proportioning and expansion for min over y >= xi.

    Stops when the projected gradient norm drops below rtol times the
    gradient scale; raises on the iteration cap.  When the problem carries
    its exact diagonal, the iteration runs on the Jacobi-scaled variables
    y_hat = sqrt(diag) * y; the positive diagonal scaling preserves the
    bound structure and equalizes stiff and soft rows, which keeps the
    fixed expansion step effective.  The norm of the scaled A comes from
    the problem when it carries one, else from a power iteration.
    """
    n = p.dim
    if max_iter is None:
        max_iter = 50 * n
    scal, apply_A = jacobi_scaling(p.apply_A, p.diag)
    b, xi = p.b, p.xi
    if scal is not None:
        b = p.b / scal
        xi = p.xi * scal
        if y0 is not None:
            y0 = y0 * scal
    y = np.maximum(y0 if y0 is not None else xi, xi).astype(float)
    norm_A = p.norm if p.norm is not None else estimate_norm(apply_A, n)
    abar = 1.0 / norm_A if norm_A > 0 else 1.0
    tiny = 1e-13

    g = apply_A(y) - b
    nb = 1
    tol = rtol * max(_norm(b), tiny)
    act_below = xi + tiny * (1.0 + np.abs(xi))

    def parts(y, g):
        act = y <= act_below
        free_g = np.where(act, 0.0, g)
        chop_g = np.where(act, np.minimum(g, 0.0), 0.0)
        return act, free_g, chop_g

    act, free_g, chop_g = parts(y, g)
    d = free_g.copy()
    it = 0
    while True:
        nu = _norm(free_g + chop_g)
        if telemetry is not None:
            obj = 0.5 * float(y @ g - b @ y) + p.c
            telemetry.append((it, nu, int(act.sum()), obj))
        if nu <= tol:
            # recurred gradients drift; confirm against a fresh residual
            g = apply_A(y) - b
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
            Ad = apply_A(d)
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
                g = apply_A(y) - b
                nb += 1
                act, free_g, chop_g = parts(y, g)
                d = free_g.copy()
        else:
            # proportioning: release active components with negative gradient
            d_c = chop_g
            Ad = apply_A(d_c)
            nb += 1
            dAd = float(d_c @ Ad)
            a_cg = (g @ d_c) / dAd if dAd > 0 else abar
            y = y - a_cg * d_c
            g = g - a_cg * Ad
            act, free_g, chop_g = parts(y, g)
            d = free_g.copy()

    if scal is not None:
        y = y / scal
    return QPSolution(y=y, iterations=it, active=act, n_backsolves=nb)
