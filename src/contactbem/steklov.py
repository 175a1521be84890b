"""Contact Poincare-Steklov operator of the coupled two-body problem.

Maps the known boundary data d and a nodal gap field w on the master contact
trace to the elastic response of both bodies.  The map is affine in
s = [d; w], so one multi-RHS backsolve Z = K^{-1} [R_known W] per assembly
gives every contact-space form a step needs, and a step makes no full solve.
Calculus is exact at the discrete level: with the coupled system
K x = R_known d + W w, the elastic potential of the solved state is
Phi = -x^T (R_known d + W w) / 2, so grad_w Phi = -W^T x and the contact
Hessian is -W^T K^{-1} W.  It is positive semidefinite only up to
discretization error: the rigid motions of a body supported through the
contact alone span its near-nullspace, and the rotation costs a little less
than nothing (receding: smallest eigenvalue -3.4e-7 against a largest of
1278.5 at refine 10, -3.7e-8 at refine 20).  The full solves and the
potential itself serve as test oracles (tests/oracles.py); a run needs only
the forms built here.

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
    solve_tbvp,  # unused here; perfbench/probe.py wraps steklov.solve_tbvp
)
from .mesh import contact_mass, frame_matrix
from .qp import gap_map


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


class SteklovOperator:
    """Affine solution map s = [d; w] -> boundary state, and its forms.

    Owns the load-independent contact-space quantities of one assembly, all
    from Z = K^{-1} [R_known W]:
      G = W^T Z, the contact force of s (its d columns G_R give the offset
        gradient -G_R d, the full G s the force of a solved state);
      H = -G_W, the contact Hessian;
      Q, the pairing form sum_d <p_d, Mg_d v_d> of the traces of s;
      F, the Neumann work d^T F s of the traction data in d on s;
      traction_tn = [R_t^T; R_n^T] M^{-1} G (M^{-1} on each xy component),
        the stacked nodal frame components [p_t; p_n] of the contact
        traction of s;
      B = dw/dy, the frame matrix from the step QP's variables y to the
        global gap (qp module), and BtG_R = B^T G_R, so the data term of a
        step QP is one product with d;
    plus the contact mass M and, per step size, the quadratic part of the
    step QP beside the free-block memo of its solves (qp_parts).
    """

    def __init__(self, im: InfluenceMatrices):
        pair = im.pair
        self.im = im
        self.M = contact_mass(pair)
        rhs = np.hstack([im.R_known, im.W])
        self.Z = im.solve(rhs)
        check_residual(im, self.Z, rhs)
        self.n_known = im.R_known.shape[1]
        self.G = im.W.T @ self.Z
        self.H = self.hessian()
        n = pair.n_master_nodes  # M^{-1} on each xy component of G's rows
        traction = np.linalg.solve(
            self.M, self.G.reshape(n, -1)).reshape(self.G.shape)
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
        R = frame_matrix(pair)
        self.traction_tn = R.T @ traction
        self.B = gap_map(R)
        self.BtG_R = self.B.T @ self.G[:, :self.n_known]
        # c_beta -> (qp.quadratic_part(self, c_beta), its free-block memo)
        self.qp_parts = {}

    @property
    def n_w(self) -> int:
        """Number of scalar gap dofs (two per master contact node)."""
        return self.im.W.shape[1]

    def traces(self, s: np.ndarray) -> BoundarySolution:
        """Full per-domain traction and displacement traces of s."""
        return scatter_solution(self.im, self.Z @ s, s[:self.n_known])

    def hessian(self) -> np.ndarray:
        """Dense contact Hessian -W^T K^{-1} W, read off the gap columns of
        the contact force G and symmetrized."""
        return _sym(-self.G[:, self.n_known:])
