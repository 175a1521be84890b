"""Galerkin double integrals of the plane-strain Kelvin kernels.

Public entry points: all_pair_blocks for every element pair of a mesh and
galerkin_integral for a single pair.  Both integrate through the batched
evaluator in _kernels_impl; a single pair is a batch of one.
"""

from __future__ import annotations

import numpy as np

from . import _kernels_impl as impl
from ._kernels_impl import KernelError
from .mesh import BoundaryMesh, Material

KERNEL_KINDS = ("U", "T", "T*", "S")


def _classify(el: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Pair classes and adjacency flags of the element pairs (i[k], j[k])."""
    a, b = el[i], el[j]
    same = a[:, :, None] == b[:, None, :]  # node of i equals node of j
    n_shared = same.sum(axis=(1, 2))
    overlap = (n_shared == 2) & (i != j)
    if overlap.any():
        k = np.argmax(overlap)
        raise KernelError(f"elements {i[k]} and {j[k]} overlap")
    kind = np.where(i == j, 2, np.minimum(n_shared, 1))
    info = np.where(kind == 1, same[:, 0, :].any(1) | 2 * same[:, :, 0].any(1), 0)
    return kind.astype(np.int64), info.astype(np.int64)


def classify_pairs(mesh: BoundaryMesh):
    """Pair classification for one mesh: 0 disjoint, 1 adjacent, 2 coincident.

    For adjacent pairs, info bit 0 says the shared vertex starts element i,
    bit 1 says it starts element j.
    """
    m = mesh.n_elements
    i, j = np.divmod(np.arange(m * m), m)
    kind, info = _classify(mesh.elements, i, j)
    return kind.reshape(m, m), info.reshape(m, m)


def _blocks(mesh: BoundaryMesh, mat: Material, i, j):
    """(U, Tij, Tji, S) of the element pairs (i[k], j[k]), i[k] <= j[k]."""
    kind, info = _classify(mesh.elements, i, j)
    return impl.pair_blocks(mesh.ends, mesh.lengths, mesh.normals, kind, info,
                            i, j, mat.shear_modulus, mat.poisson_ratio)


def all_pair_blocks(mesh: BoundaryMesh, mat: Material):
    """U, T, S Galerkin blocks for every element pair of one domain.

    Returns (U, T, S) with shape (m, m, 4, 4); index (2m+k, 2n+l) pairs test
    shape m / component k with trial shape n / component l.  T[i, j] is
    tested on element i.
    """
    m = mesh.n_elements
    i, j = np.triu_indices(m)
    Ub, Tij, Tji, Sb = _blocks(mesh, mat, i, j)
    U = np.empty((m, m, 4, 4))
    T = np.empty((m, m, 4, 4))
    S = np.empty((m, m, 4, 4))
    U[j, i] = Ub.transpose(0, 2, 1)
    S[j, i] = Sb.transpose(0, 2, 1)
    T[j, i] = Tji
    U[i, j] = Ub
    S[i, j] = Sb
    T[i, j] = Tij
    return U, T, S


def galerkin_integral(mesh: BoundaryMesh, e_test: int, e_trial: int, kind: str,
                      mat: Material) -> np.ndarray:
    """Galerkin double integral over one element pair, as a 4x4 block.

    Both shape families are linear per element; the phi/psi distinction
    (traction jumps at junctions) only matters during global assembly.
    The block is the (e_test, e_trial) block of all_pair_blocks.
    """
    if kind not in KERNEL_KINDS:
        raise KernelError(f"unsupported kernel kind {kind!r}")
    if kind == "T*":
        return galerkin_integral(mesh, e_trial, e_test, "T", mat).T
    swap = e_test > e_trial
    pair = np.array([min(e_test, e_trial)]), np.array([max(e_test, e_trial)])
    Ub, Tij, Tji, Sb = (blk[0] for blk in _blocks(mesh, mat, *pair))
    if kind == "T":
        return Tji if swap else Tij
    blk = Ub if kind == "U" else Sb
    return blk.T if swap else blk
