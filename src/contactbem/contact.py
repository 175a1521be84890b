"""Normal-compliance contact law, friction energy and Mosco bounds.

The nonsmooth incremental functional in the nodal gap unknowns is rewritten
with auxiliary variables so every constraint becomes a lower bound:

    alpha >= |w_t - z_t|   (friction slip magnitude)
    beta  >= max(0, -(w_n + (chi/tau) z_n))   (compliance penetration)

Stacking y = (y1, y2, y3, y4) with y1 = alpha + w_t, y2 = alpha - w_t,
y3 = beta and y4 = beta + w_n turns the constraint set into y >= xi with
xi = (z_t, -z_t, 0, -(chi/tau) z_n), all values from the previous step.
Normal/tangential components live in the master-side (B) nodal frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ContactPair, p1_mass


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
    """Nodal displacement gap on the contact, split in the master frame."""

    z_t: np.ndarray  # mm, tangential component per master node
    z_n: np.ndarray  # mm, normal component (negative = penetration)

    def __post_init__(self):
        self.z_t = np.asarray(self.z_t, dtype=float)
        self.z_n = np.asarray(self.z_n, dtype=float)
        if self.z_t.shape != self.z_n.shape or self.z_t.ndim != 1:
            raise ContactError("gap components must be equal-length vectors")

    @classmethod
    def rest(cls, n_nodes: int) -> "GapState":
        return cls(np.zeros(n_nodes), np.zeros(n_nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.z_t)

    def beta_prev(self) -> np.ndarray:
        """Penetration magnitude max(0, -z_n), the frozen friction weight."""
        return np.maximum(0.0, -self.z_n)


# -- Mosco change of variables ------------------------------------------------

def mosco_bounds(z_prev: GapState, tau: float, chi: float) -> np.ndarray:
    """Lower bounds xi for the transformed variables y >= xi."""
    if not tau > 0.0:
        raise ContactError(f"time step must be positive: {tau}")
    if chi < 0.0:
        raise ContactError(f"relaxation time must be nonnegative: {chi}")
    zero = np.zeros(z_prev.n_nodes)
    return np.concatenate(
        [z_prev.z_t, -z_prev.z_t, zero, -(chi / tau) * z_prev.z_n]
    )


def split_y(y: np.ndarray):
    """Views of the four equal-length blocks of a stacked y vector."""
    n = len(y) // 4
    if 4 * n != len(y):
        raise ContactError("y length must be a multiple of four")
    return y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]


def y_to_awb(y: np.ndarray):
    """Recover (alpha, beta, w_t, w_n) from the bound-constrained variables."""
    y1, y2, y3, y4 = split_y(np.asarray(y, dtype=float))
    alpha = 0.5 * (y1 + y2)
    w_t = 0.5 * (y1 - y2)
    beta = y3.copy()
    w_n = y4 - y3
    return alpha, beta, w_t, w_n


def awb_to_y(alpha, beta, w_t, w_n) -> np.ndarray:
    """Stack (alpha, beta, w_t, w_n) into the bound-constrained variables."""
    alpha, beta, w_t, w_n = map(np.asarray, (alpha, beta, w_t, w_n))
    return np.concatenate([alpha + w_t, alpha - w_t, beta, beta + w_n])


# -- master-frame rotation and contact mass -----------------------------------

def frame_matrix(pair: ContactPair) -> np.ndarray:
    """[R_t R_n] (2n x 2n): maps the stacked nodal [w_t; w_n] in the master
    frame to the interleaved global xy vector; it is orthogonal, and its
    transpose maps back."""
    eye = np.eye(pair.n_master_nodes)[:, None, :]
    return np.hstack([(v[:, :, None] * eye).reshape(-1, len(v))
                      for v in (pair.tangent, pair.normal)])


def contact_mass(pair: ContactPair) -> np.ndarray:
    """Consistent scalar mass of the master-side contact shapes (n_c x n_c)."""
    n_c = pair.n_master_nodes
    chain = np.arange(n_c - 1)[:, None] + np.arange(2)  # element ends in nodes_B
    return p1_mass(pair.mesh_B.lengths[pair.elements_B], chain, chain, (n_c, n_c))


# -- incremental functional ---------------------------------------------------

def incremental_energy(w_t, w_n, alpha, beta, op, g_D, f_N, law: ContactLaw,
                       tau: float, chi: float, z_prev: GapState) -> float:
    """Value of the per-step boundary functional at (w, alpha, beta).

    Sum of the elastic potential of the coupled state solved for the
    boundary data (g_D, f_N) at gap w, the quadratic compliance term in beta
    and the friction work coupling the frozen penetration weight to the slip
    magnitude alpha (N mm).
    """
    M = op.M
    w = frame_matrix(op.im.pair) @ np.concatenate([w_t, w_n])
    e = op.potential(op.solve(w, g_D, f_N))
    e += 0.5 * (tau * law.k_g / (tau + chi)) * beta @ (M @ beta)
    e += law.mu * law.k_g * (z_prev.beta_prev() @ (M @ alpha))
    return float(e)
