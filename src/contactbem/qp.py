"""Bound-constrained QP per time step and its projected-CG solver.

The incremental functional, after the change of variables of the contact
module, is 0.5 y^T A y - b^T y + c over y >= xi.  A is applied implicitly:
the gap part of y triggers one backsolve against the factorized coupled
system, the compliance part a consistent-mass product.  The solver is a
projected conjugate gradient method with proportioning and expansion steps
(MPRGP); A is only positive semidefinite (the slip magnitudes appear
linearly), so nonpositive curvature along a search direction falls back to
the expansion step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def dim(self) -> int:
        return len(self.b)

    def objective(self, y: np.ndarray) -> float:
        return float(0.5 * y @ self.apply_A(y) - self.b @ y + self.c)


@dataclass
class QPSolution:
    y: np.ndarray
    objective: float
    iterations: int
    proj_grad_norm: float
    active: np.ndarray
    n_backsolves: int = 0


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
    c_beta = tau * law.k_g / (tau + chi)
    g_off_t, g_off_n = frame_split(op.im.pair, op.gradient(offset))
    fric = law.mu * law.k_g * (M @ z_prev.beta_prev())
    b = -np.concatenate([
        0.5 * fric + 0.5 * g_off_t,
        0.5 * fric - 0.5 * g_off_t,
        -g_off_n,
        g_off_n,
    ])
    xi = mosco_bounds(z_prev, tau, chi)
    T, U, V = op.T, op.U, op.V
    Cb = c_beta * M

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
    return QPProblem(apply_A=apply_A, b=b, xi=xi,
                     c=op.potential(offset), diag=diag)


def estimate_norm(apply_A, dim: int, iters: int = 20, seed: int = 0) -> float:
    """Operator-norm estimate by power iteration (A symmetric PSD)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        av = apply_A(v)
        lam = float(v @ av)
        nrm = np.linalg.norm(av)
        if nrm == 0.0:
            return 0.0
        v = av / nrm
    return max(lam, nrm)


def _max_feasible_step(y, d, xi):
    """Largest a >= 0 with y - a d >= xi (d is a descent direction)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(d > 0, (y - xi) / d, np.inf)
    return float(steps.min()) if len(steps) else np.inf


def mprgp_solve(p: QPProblem, y0: np.ndarray = None, rtol: float = 1e-8,
                gamma: float = 1.0, max_iter: int = None,
                telemetry: list = None) -> QPSolution:
    """Projected CG with proportioning and expansion for min over y >= xi.

    Stops when the projected gradient norm drops below rtol times the
    gradient scale; raises on the iteration cap.  When the problem carries
    its exact diagonal, the iteration runs on the Jacobi-scaled variables
    y_hat = sqrt(diag) * y; the positive diagonal scaling preserves the
    bound structure and equalizes stiff and soft rows, which keeps the
    fixed expansion step effective.
    """
    n = p.dim
    if max_iter is None:
        max_iter = 50 * n
    apply_A, b, xi = p.apply_A, p.b, p.xi
    scal = None
    if p.diag is not None and np.any(p.diag > 0):
        scal = np.sqrt(np.maximum(p.diag, 1e-12 * p.diag.max()))
        A_raw = p.apply_A
        apply_A = lambda yh: A_raw(yh / scal) / scal
        b = p.b / scal
        xi = p.xi * scal
        if y0 is not None:
            y0 = y0 * scal
    y = np.maximum(y0 if y0 is not None else xi, xi).astype(float)
    norm_A = estimate_norm(apply_A, n)
    abar = 1.0 / norm_A if norm_A > 0 else 1.0
    tiny = 1e-13

    g = apply_A(y) - b
    nb = 1
    tol = rtol * max(np.linalg.norm(b), tiny)

    def parts(y, g):
        act = y <= xi + tiny * (1.0 + np.abs(xi))
        free_g = np.where(act, 0.0, g)
        chop_g = np.where(act, np.minimum(g, 0.0), 0.0)
        return act, free_g, chop_g

    act, free_g, chop_g = parts(y, g)
    d = free_g.copy()
    it = 0
    while True:
        nu = np.linalg.norm(free_g + chop_g)
        if telemetry is not None:
            obj = 0.5 * float(y @ g - b @ y) + p.c
            telemetry.append((it, nu, int(act.sum()), obj))
        if nu <= tol:
            # recurred gradients drift; confirm against a fresh residual
            g = apply_A(y) - b
            nb += 1
            act, free_g, chop_g = parts(y, g)
            nu = np.linalg.norm(free_g + chop_g)
            if nu <= tol:
                break
            d = free_g.copy()
        if it >= max_iter:
            raise QPError(f"projected CG exceeded {max_iter} iterations "
                          f"(residual {nu:.3e}, tol {tol:.3e})")
        it += 1
        if chop_g @ chop_g <= gamma * gamma * (free_g @ d):
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
    return QPSolution(y=y, objective=p.objective(y), iterations=it,
                      proj_grad_norm=float(nu), active=act, n_backsolves=nb)
