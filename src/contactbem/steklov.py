"""Contact Poincare-Steklov operator of the coupled two-body problem.

Maps the known boundary data d and a nodal gap field w on the master contact
trace to the elastic response of both bodies.  The map is affine in
s = [d; w], so one multi-RHS backsolve Z = K^{-1} [R_known W] per assembly
gives every contact-space form a step needs, and a step makes no full solve.
Calculus is exact at the discrete level: with the coupled system
K x = R_known d + W w, the elastic potential of the solved state is
Phi = -x^T (R_known d + W w) / 2, so grad_w Phi = -W^T x and the contact
Hessian is -W^T K^{-1} W.  The Hessian is positive semidefinite; its
nullspace holds the rigid motions of a body that is supported through the
contact alone.

Nothing here depends on the load: the operator is built once per assembled
system, and the boundary data of a step enter as the d part of s.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    BoundarySolution,
    InfluenceMatrices,
    check_residual,
    scatter_solution,
    solve_tbvp,
)
from .contact import contact_mass


class SteklovError(RuntimeError):
    pass


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


class SteklovOperator:
    """Affine solution map s = [d; w] -> boundary state, and its forms.

    Owns the load-independent contact-space quantities of one assembly, all
    from Z = K^{-1} [R_known W]:
      G = W^T Z, the contact force of s (its d columns G_R give the offset
        gradient -G_R d, the full G s the force of a solved state);
      H = -G_W, the contact Hessian;
      P = R_known^T Z_R, so the offset potential is -d^T P d / 2;
      Q, the pairing form sum_d <p_d, Mg_d v_d> of the traces of s;
      F, the Neumann work d^T F s of the traction data in d on s;
      traction = M^{-1} G per xy component, the nodal contact traction of s;
    plus the contact mass M and the quadratic parts of the step QPs, one per
    step size.
    """

    def __init__(self, im: InfluenceMatrices):
        pair = im.pair
        if pair is None:
            raise SteklovError("contact operator needs a two-domain assembly")
        self.im = im
        self.M = contact_mass(pair)
        rhs = np.hstack([im.R_known, im.W])
        self.Z = im.solve(rhs)
        check_residual(im, self.Z, rhs)
        self.n_known = im.R_known.shape[1]
        self.G = im.W.T @ self.Z
        self.H = self.hessian()
        n = pair.n_master_nodes  # M^{-1} on each xy component of G's rows
        self.traction = np.linalg.solve(
            self.M, self.G.reshape(n, -1)).reshape(self.G.shape)
        self.P = _sym(im.R_known.T @ self.Z[:, :self.n_known])
        # full-layout traces of s (scatter_solution, column by column)
        layout = im.layout
        L = np.zeros((layout.offsets[-1], self.Z.shape[1]))
        L[layout.known_cols, np.arange(self.n_known)] = 1.0
        L[layout.unknown_cols] = self.Z
        ML = np.zeros_like(L)  # pairing mass applied to the traces
        for off, dd, Mg in zip(layout.offsets, layout.domains, im.Mg):
            phi = slice(off, off + 2 * dd.n_phi)
            ML[phi] = Mg @ L[phi.stop:off + dd.width]
        self.Q = _sym(L.T @ ML)
        self.F = ML[layout.known_cols]  # Dirichlet rows are psi rows: zero
        self.qp_parts = {}  # c_beta -> qp.quadratic_part(self, c_beta)

    @property
    def n_w(self) -> int:
        """Number of scalar gap dofs (two per master contact node)."""
        return self.im.W.shape[1]

    def traces(self, s: np.ndarray) -> BoundarySolution:
        """Full per-domain traction and displacement traces of s."""
        return scatter_solution(self.im, self.Z @ s, s[:self.n_known])

    def solve(self, w: np.ndarray, g_D, f_N) -> BoundarySolution:
        """Full affine state for boundary data (g_D, f_N) and gap w."""
        return solve_tbvp(self.im, g_D, f_N, w=w)

    def gradient(self, sol: BoundarySolution) -> np.ndarray:
        """d(elastic potential)/dw of the solved state (exact discretely)."""
        return -self.im.W.T @ sol.x

    def potential(self, sol: BoundarySolution) -> float:
        """Elastic potential of a solved state (includes data work terms)."""
        return float(-0.5 * sol.x @ sol.rhs)

    def energy_pairing(self, sol: BoundarySolution) -> float:
        """Boundary-pairing elastic energy (1/2) <p, v> per domain.

        Independent of the potential calculus; agrees up to discretization
        error and exactly on states the trial spaces represent exactly.
        """
        e = 0.0
        for p, v, Mg in zip(sol.p, sol.v, self.im.Mg):
            e += 0.5 * (p @ (Mg @ v))
        return float(e)

    def hessian(self) -> np.ndarray:
        """Dense contact Hessian -W^T K^{-1} W, read off the gap columns of
        the contact force G and symmetrized."""
        return _sym(-self.G[:, self.n_known:])
