"""The step QP: its variables y, the bound-constrained QP and its solver.

The nonsmooth incremental functional in the nodal gap unknowns is rewritten
with auxiliary variables so every constraint becomes a lower bound:

    alpha >= |w_t - z_t|   (friction slip magnitude)
    beta  >= max(0, -(w_n + (chi/tau) z_n))   (compliance penetration)

Stacking y = (y1, y2, y3, y4) with y1 = alpha + w_t, y2 = alpha - w_t,
y3 = beta and y4 = beta + w_n turns the constraint set into y >= xi with
xi = (z_t, -z_t, 0, -(chi/tau) z_n), all values from the previous step;
t and n are the components in the master-side (B) nodal frame.  No other
module knows this layout.  The functional is then 0.5 y^T A y - b^T y over
y >= xi, up to a constant that no minimizer reads.  A is an explicit dense
matrix: the contact Hessian pulled back to y through the nodal frames, plus
the consistent compliance mass.  A depends only on the operator and the
step size, so it is built once per step size; b is one product of the
operator's B^T G_R with the step's data plus the friction term.  The QP is
solved by a primal active-set method started at y = xi from the previous
step's active set, each pass one direct solve of the free block; it
terminates finitely and returns the minimizer to roundoff.  Each node's
slip magnitude alpha is a null direction of A, pinned in the solve; beyond
those, A is positive semidefinite only up to discretization error, as the
contact Hessian is (steklov module).  The free-block structure of the last
working set (the free indices, the pinning map and the reduced matrix) is
memoized beside A, so a step whose working set is the previous step's
gathers no block; the solve itself is the same, and so is y, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# unused here; perfbench/probe.py wraps qp.contact_mass
from .mesh import contact_mass


class ContactError(ValueError):
    pass


@dataclass(frozen=True)
class ContactLaw:
    """Coulomb friction coefficient and normal compliance stiffness."""

    mu: float  # dimensionless
    k_g: float  # MPa / mm

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ContactError(f"friction coefficient mu must be positive: {self.mu}")
        if not self.k_g > 0.0:
            raise ContactError(f"normal stiffness k_g must be positive: {self.k_g}")


@dataclass
class GapState:
    """Nodal displacement gap on the contact, split in the master frame,
    and its penetration magnitude beta = max(0, -z_n), the frozen friction
    weight of the next step."""

    z_t: np.ndarray  # mm, tangential component per master node
    z_n: np.ndarray  # mm, normal component (negative = penetration)

    def __post_init__(self):
        self.beta = np.maximum(0.0, -self.z_n)

    @classmethod
    def rest(cls, n_nodes: int) -> "GapState":
        return cls(np.zeros(n_nodes), np.zeros(n_nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.z_t)


def mosco_bounds(z_prev: GapState, tau: float, chi: float) -> np.ndarray:
    """Lower bounds xi for the transformed variables y >= xi."""
    zero = np.zeros(z_prev.n_nodes)
    return np.concatenate(
        [z_prev.z_t, -z_prev.z_t, zero, -(chi / tau) * z_prev.z_n]
    )


def gap_map(R: np.ndarray) -> np.ndarray:
    """B = dw/dy, from y to the global gap w = R [w_t; w_n], with R the
    frame matrix [R_t R_n] (mesh.frame_matrix)."""
    n = R.shape[1] // 2
    R_t, R_n = R[:, :n], R[:, n:]
    return np.hstack([0.5 * R_t, -0.5 * R_t, -R_n, R_n])


def gap_of(y: np.ndarray):
    """The nodal gap (w_t, w_n) of y: w_t = (y1 - y2)/2, w_n = y4 - y3."""
    n = len(y) // 4
    return 0.5 * (y[:n] - y[n:2 * n]), y[3 * n:] - y[2 * n:3 * n]


def competitor(z_prev: GapState, tau: float, chi: float) -> np.ndarray:
    """y of the do-nothing competitor: the gap z_prev carried over, with
    alpha = 0 and beta = max(0, -(1 + chi/tau) z_n), the least feasible."""
    z_t, z_n = z_prev.z_t, z_prev.z_n
    beta_c = np.maximum(0.0, -(1.0 + chi / tau) * z_n)
    return np.concatenate([0.0 + z_t, 0.0 - z_t, beta_c, beta_c + z_n])


class QPError(RuntimeError):
    pass


@dataclass
class QPProblem:
    """min 0.5 y^T A y - b^T y  subject to  y >= xi."""

    A: np.ndarray
    b: np.ndarray
    xi: np.ndarray
    # y stacks (y1, y2, y3, y4) as build_qp does: each node's slip
    # magnitude alpha = (y1 + y2)/2 is a null direction of A
    slip_pairs: bool = False
    # free-block memo of A, shared by the QPs of one A (build_qp passes the
    # one kept on the operator)
    memo: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.b)


@dataclass
class QPSolution:
    y: np.ndarray
    iterations: int  # components that entered or left the start set
    active: np.ndarray
    n_backsolves: int = 0  # free-block solves; perfbench/probe.py reads the name


def quadratic_part(op, c_beta: float) -> np.ndarray:
    """A of the step QP with compliance factor c_beta = tau k_g / (tau + chi).

    A is the contact Hessian H pulled back to y by B = dw/dy (w the global
    gap, w_t = (y1 - y2)/2 and w_n = y4 - y3 in the nodal frames), plus
    c_beta M on the y3 block.  A depends only on the operator and c_beta,
    so it is built once per distinct c_beta and kept on the operator.
    """
    part = op.qp_parts.get(c_beta)
    if part is not None:
        return part[0]
    n = op.n_w // 2
    A = op.B.T @ op.H @ op.B
    A[2 * n:3 * n, 2 * n:3 * n] += c_beta * op.M
    A = 0.5 * (A + A.T)
    op.qp_parts[c_beta] = (A, {})
    return A


def build_qp(op, d: np.ndarray, law: ContactLaw, tau: float, chi: float,
             z_prev: GapState) -> QPProblem:
    """Assemble the per-step QP from the Steklov operator and the step's
    known boundary data d (the offset state is the solution at zero gap).

    The quadratic part combines the elastic contact response with the
    compliance mass term; the linear part b = B^T G_R d - (1/2) mu k_g
    [M; M; 0; 0] beta_prev carries the offset gradient -G_R d and the frozen
    friction coupling.  The functional's constant, the offset potential of
    d, is left out: no minimizer and no difference of objectives reads it.
    """
    c_beta = tau * law.k_g / (tau + chi)
    A = quadratic_part(op, c_beta)
    n = op.n_w // 2
    b = op.BtG_R @ d
    fric = (0.5 * law.mu * law.k_g) * (op.M @ z_prev.beta)
    b[:n] -= fric
    b[n:2 * n] -= fric
    xi = mosco_bounds(z_prev, tau, chi)
    return QPProblem(A=A, b=b, xi=xi, slip_pairs=True,
                     memo=op.qp_parts[c_beta][1])


CHANGES_PER_DIM = 10  # cap on working-set changes, per component of y


def _free_block(A, free, m):
    """(F, T, T^T A_FF T) of the free set: its indices F, and the map T
    from the solved unknowns to y_F, None when the block is A_FF itself.
    With m > 0, y stacks slip pairs (y1, y2) in its first 2m entries, and a
    pair with both components free spans the null direction alpha of A; T
    pins alpha there, y2 = -y1."""
    F = np.flatnonzero(free)
    i = np.flatnonzero(free[:m] & free[m:2 * m])
    if not i.size:
        return F, None, A[np.ix_(F, F)]
    keep = ~np.isin(F, i + m)
    T = np.eye(len(F))[:, keep]
    T[np.searchsorted(F, i + m), np.searchsorted(F[keep], i)] = -1.0
    return F, T, T.T @ A[np.ix_(F, F)] @ T


def _free_block_solve(A, rhs, free, m, memo):
    """Minimizer of the free components of 0.5 y^T A y - rhs^T y, the others
    held fixed.  memo keeps the _free_block of the last free set of A."""
    key = free.tobytes()
    if key not in memo:
        memo.clear()
        memo[key] = _free_block(A, free, m)
    F, T, A_red = memo[key]
    if T is None:
        return np.linalg.solve(A_red, rhs[F])
    return T @ np.linalg.solve(A_red, T.T @ rhs[F])


def solve_qp(p: QPProblem, active: np.ndarray = None) -> QPSolution:
    """Primal active-set method for min 0.5 y^T A y - b^T y over y >= xi
    (Nocedal & Wright, Numerical Optimization, sec. 16.5).

    It starts at y = xi, where every bound holds with equality, so any
    working set W is a valid start: the given active set (the previous
    step's), or else the components whose gradient at xi is at least
    -eps = -1e-12 ||b||.  Each pass solves the free block directly for the
    minimizer on W.  A free component that would cross its bound blocks the
    step there and joins W; otherwise the step is taken and the most
    negative multiplier below -eps leaves W.  With none left, y and W are
    returned, with the count of components whose membership differs
    between the start set and W (0 when the start set was optimal); the
    number of changes on the way there is not returned, as on a degenerate
    QP it depends on rounding.  More than CHANGES_PER_DIM * dim working-set
    changes raise QPError.

    A step that would go uphill is reversed.  Only rounding makes one, as
    the sign of the huge step along the null direction of a free block that
    is singular but for rounding.  Taken uphill, it could run off to that
    size with nothing to block it, or send a component that just left W
    straight back, pass after pass.

    Every slip magnitude of a build_qp problem comes back tight,
    alpha = |w_t - z_t|: a pair with one component in W has it on its
    bound, and a pair with both free is solved at alpha = 0 with
    xi2 = -xi1, so it is feasible only when both sit on their bounds.
    """
    n = p.dim
    m = n // 4 if p.slip_pairs else 0
    A, b, xi, memo = p.A, p.b, p.xi, p.memo
    eps = 1e-12 * np.sqrt(b @ b)
    y = xi.copy()
    g = A @ y - b  # gradient at y
    start = g >= -eps if active is None else active
    work = start.copy()
    changes = solves = 0
    while True:
        free = ~work
        y_new = np.where(work, xi, 0.0)  # its free part is solved for
        try:
            y_new[free] = _free_block_solve(A, b - A @ y_new, free, m, memo)
        except np.linalg.LinAlgError:
            raise QPError(f"singular free block after {changes} "
                          f"working-set changes")
        solves += 1
        if g @ (y_new - y) > 0.0:
            y_new = 2.0 * y - y_new  # downhill, see the docstring
        cross = np.flatnonzero(free & (y_new < xi))
        if cross.size:
            ratio = (xi - y)[cross] / (y_new - y)[cross]
            k = int(np.argmin(ratio))
            y = np.maximum(y + ratio[k] * (y_new - y), xi)
            y[cross[k]] = xi[cross[k]]
            work[cross[k]] = True
            g = A @ y - b
        else:
            y = y_new
            g = A @ y - b
            lam = np.where(work, g, np.inf)  # multipliers on W
            j = int(np.argmin(lam))
            if lam[j] >= -eps:
                break
            work[j] = False
        changes += 1
        if changes > CHANGES_PER_DIM * n:
            raise QPError(f"more than {CHANGES_PER_DIM * n} working-set "
                          f"changes")
    return QPSolution(y=y, iterations=int(np.count_nonzero(work != start)),
                      active=work, n_backsolves=solves)
