"""Contact Poincare-Steklov operator of the coupled two-body problem.

Maps a nodal gap field w on the master contact trace to the elastic response
of both bodies; every application costs one backsolve against the factorized
influence matrices.  Calculus is exact at the discrete level: with the
coupled system K x = r + W w, the elastic potential of the solved state is
Phi(w) = -x^T (r + W w) / 2, so grad_w Phi = -W^T x and the contact Hessian
is -W^T K^{-1} W.  The Hessian is positive semidefinite; its nullspace holds
the rigid motions of a body that is supported through the contact alone.

Nothing here depends on the load: the operator is built once per assembled
system, and the boundary data of a step enter as arguments.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    BoundarySolution,
    InfluenceMatrices,
    check_residual,
    solve_tbvp,
)
from .contact import contact_mass


class SteklovError(RuntimeError):
    pass


class SteklovOperator:
    """Affine solution map (w, boundary data) -> boundary state.

    Owns the load-independent contact quantities of one assembly: the
    contact mass M, the contact Hessian H and the blocks T, U, V of
    R^T H R in the nodal (t, n) frames of the master contact nodes.  The
    quadratic parts of the step QPs, one per step size, are kept here too.
    """

    def __init__(self, im: InfluenceMatrices):
        pair = im.pair
        if pair is None:
            raise SteklovError("contact operator needs a two-domain assembly")
        self.im = im
        self.M = contact_mass(pair)
        self.H = self.hessian()
        n_w = self.n_w
        R = np.zeros((n_w, n_w))  # global xy components <- nodal (t, n) frames
        R[0::2, 0::2] = np.diag(pair.tangent[:, 0])
        R[1::2, 0::2] = np.diag(pair.tangent[:, 1])
        R[0::2, 1::2] = np.diag(pair.normal[:, 0])
        R[1::2, 1::2] = np.diag(pair.normal[:, 1])
        S = R.T @ self.H @ R
        self.T = S[0::2, 0::2]  # tangential block
        self.U = S[0::2, 1::2]  # tangential-normal coupling
        self.V = S[1::2, 1::2]  # normal block
        self.qp_parts = {}  # c_beta -> qp.quadratic_part(self, c_beta)

    @property
    def n_w(self) -> int:
        """Number of scalar gap dofs (two per master contact node)."""
        return self.im.W.shape[1]

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
        """Dense contact Hessian -W^T K^{-1} W, one backsolve per gap dof.

        Column by column on purpose: a multi-RHS backsolve and a matrix
        product round differently in the last bits, and an adaptive march
        amplifies that through MPRGP's stopping test (the ledger of the
        skewed preset moves by 3e-8 relative).
        """
        im = self.im
        X = np.column_stack([im.solve(w) for w in im.W.T])
        check_residual(im, X, im.W)
        H = np.column_stack([-im.W.T @ x for x in X.T])
        return 0.5 * (H + H.T)
