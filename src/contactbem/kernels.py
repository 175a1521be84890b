"""Galerkin double integrals of the plane-strain Kelvin kernels.

Public entry points: all_pair_blocks for every element pair of a mesh and
galerkin_integral for a single pair.  Both classify their pairs and integrate
them through one batched numpy evaluator (pair_blocks; a single pair is a
batch of one): the quadrature points of many pairs are laid out as flat
arrays, the kernels are evaluated on all of them at once and the sums are
contracted with the shape products per pair.

Kernel conventions (plane strain, r = y - x, dr = r/|r|, n = n(y)):
    U_kl = 1/(8 pi G (1-nu)) [ -(3-4nu) ln r d_kl + dr_k dr_l ]
    T_kl = -1/(4 pi (1-nu) r) [ (dr.n)((1-2nu) d_kl + 2 dr_k dr_l)
                                - (1-2nu)(dr_k n_l - dr_l n_k) ]
The hypersingular kernel S never appears pointwise: its Galerkin bilinear
form is integrated by parts on the closed boundary, leaving the weakly
singular kernel
    D_kl = -G/(2 pi (1-nu)) [ -ln r d_kl + dr_k dr_l ]
paired with tangential derivatives of the displacement shapes.  Those are
constant per element, so the S block is outer(da, db) times the summed D.

Pair classes: coincident pairs use closed forms; adjacent pairs map one
reference Duffy rule with dyadic radial refinement at the shared vertex
(Duffy, SIAM J. Numer. Anal. 19, 1982); separated pairs are bisected until
every sub-pair is admissible and then integrated by tensor Gauss rules
(Sauter & Schwab, Boundary Element Methods, 2011, ch. 5).
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import BoundaryMesh, Material

# admissibility: integrate a sub-pair by tensor Gauss once the gap exceeds
# ETA times the larger sub-element; one bisection level per factor two
ETA = 1.5
ADJ_LEVELS = 26  # dyadic radial levels for Duffy integration at shared nodes
BATCH_POINTS = 4096  # quadrature points evaluated per batch


class KernelError(ValueError):
    pass


def gauss01(n: int):
    """Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_G8 = gauss01(8)


def _duffy_rule():
    """Reference points (xi, eta) and weights of the adjacent-pair rule.

    xi runs along element i and eta along element j, both measured from the
    shared vertex.  Row h holds Duffy triangle h, split into ADJ_LEVELS
    dyadic radial bands with a 10 x 10 Gauss rule; the weights lack Li Lj.
    """
    gx, gw = gauss01(10)
    hi = 2.0 ** -np.arange(ADJ_LEVELS)
    lo = 0.5 * hi
    lo[-1] = 0.0
    rho = lo[:, None] + (hi - lo)[:, None] * gx[None, :]  # (level, p)
    w = gw[None, :, None] * gw[None, None, :] * (hi - lo)[:, None, None]
    w = (w * rho[:, :, None]).ravel()
    rho = np.repeat(rho.ravel(), len(gx))
    sig = np.tile(gx, ADJ_LEVELS * len(gx))
    xi = np.stack([rho, rho * sig])
    eta = np.stack([rho * sig, rho])
    return xi, eta, np.stack([w, w])


_DUFFY = _duffy_rule()


def _seg_point_dist(px, py, ax, ay, bx, by):
    dx = bx - ax
    dy = by - ay
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _seg_seg_dist(ax, ay, bx, by, cx, cy, dx_, dy_):
    d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d2 = (bx - ax) * (dy_ - ay) - (by - ay) * (dx_ - ax)
    d3 = (dx_ - cx) * (ay - cy) - (dy_ - cy) * (ax - cx)
    d4 = (dx_ - cx) * (by - cy) - (dy_ - cy) * (bx - cx)
    cross = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    d = np.minimum(
        np.minimum(_seg_point_dist(cx, cy, ax, ay, bx, by),
                   _seg_point_dist(dx_, dy_, ax, ay, bx, by)),
        np.minimum(_seg_point_dist(ax, ay, cx, cy, dx_, dy_),
                   _seg_point_dist(bx, by, cx, cy, dx_, dy_)),
    )
    return np.where(cross, 0.0, d)


def _admissible_subpairs(P, Ls, i, j):
    """Bisect separated pairs (i[k], j[k]) into admissible sub-pairs.

    Works level by level over all pairs at once.  Returns the pair index k
    and the parameter boxes (s0, s1, t0, t1) of every admissible sub-pair,
    grouped by k.  Raises KernelError if a sub-pair has zero distance.
    """
    Li, Lj = Ls[i], Ls[j]
    k = np.arange(len(i))
    box = np.tile([0.0, 1.0, 0.0, 1.0], (len(i), 1))
    done_k, done_box = [], []
    while True:
        s0, s1, t0, t1 = box.T
        p, q = P[i[k]], P[j[k]]
        ends = [p[:, c] + s * (p[:, c + 2] - p[:, c])
                for s in (s0, s1) for c in (0, 1)]
        ends += [q[:, c] + t * (q[:, c + 2] - q[:, c])
                 for t in (t0, t1) for c in (0, 1)]
        dist = _seg_seg_dist(*ends)
        if np.any(dist <= 0.0):
            bad = k[np.argmax(dist <= 0.0)]
            raise KernelError("overlapping but non-identical elements "
                              f"{i[bad]} and {j[bad]}")
        ls = (s1 - s0) * Li[k]
        lt = (t1 - t0) * Lj[k]
        lmax = np.maximum(ls, lt)
        ok = (dist >= ETA * lmax) | (lmax < 1e-7 * (Li[k] + Lj[k]))
        done_k.append(k[ok])
        done_box.append(box[ok])
        k, box = k[~ok], box[~ok]
        if len(k) == 0:
            break
        split_s = ls[~ok] >= lt[~ok]
        s0, s1, t0, t1 = box.T
        sm = 0.5 * (s0 + s1)
        tm = 0.5 * (t0 + t1)
        first = np.where(split_s[:, None], np.stack([s0, sm, t0, t1], 1),
                         np.stack([s0, s1, t0, tm], 1))
        second = np.where(split_s[:, None], np.stack([sm, s1, t0, t1], 1),
                          np.stack([s0, s1, tm, t1], 1))
        k = np.concatenate([k, k])
        box = np.concatenate([first, second])
    k = np.concatenate(done_k)
    order = np.argsort(k, kind="stable")
    return k[order], np.concatenate(done_box)[order]


def _coincident_blocks(P, L, G, nu):
    """Closed forms (U, T, S) for straight elements paired with themselves."""
    tx = (P[:, 2] - P[:, 0]) / L
    ty = (P[:, 3] - P[:, 1]) / L
    cU = 1.0 / (8.0 * math.pi * G * (1.0 - nu))
    k34 = 3.0 - 4.0 * nu
    lnL = np.log(L)
    # int_0^L int_0^L shp_m(s) shp_n(u) ln|u-s| du ds
    Iln_d = L * L * lnL / 4.0 - 7.0 * L * L / 16.0
    Iln_o = L * L * lnL / 4.0 - 5.0 * L * L / 16.0
    half = 0.5 * L  # int_0^L shp_m = L/2, the dr x dr term separates
    cT = (1.0 - 2.0 * nu) / (4.0 * math.pi * (1.0 - nu))
    Icpv = 0.5 * L  # CPV int int shp_0(s) shp_1(u)/(u-s), antisymmetric in m,n
    aD = -G / (2.0 * math.pi * (1.0 - nu))
    tt = np.stack([tx * tx, tx * ty, tx * ty, ty * ty], 1).reshape(-1, 2, 2)
    eye = np.eye(2)
    n = len(L)
    U = np.empty((n, 2, 2, 2, 2))  # (pair, m, k, n, l)
    S = np.empty((n, 2, 2, 2, 2))
    T = np.zeros((n, 2, 2, 2, 2))
    for m in range(2):
        for mm in range(2):
            Iln = Iln_d if m == mm else Iln_o
            sg = (1.0 if m == 1 else -1.0) * (1.0 if mm == 1 else -1.0)
            U[:, m, :, mm, :] = cU * (
                -k34 * Iln[:, None, None] * eye + tt * (half * half)[:, None, None]
            )
            S[:, m, :, mm, :] = sg * aD * (
                -(lnL - 1.5)[:, None, None] * eye + tt
            )
    # E = t x n - n x t = [[0,-1],[1,0]] for anti-clockwise frames
    T[:, 0, 0, 1, 1] = -cT * Icpv
    T[:, 0, 1, 1, 0] = cT * Icpv
    T[:, 1, 0, 0, 1] = cT * Icpv
    T[:, 1, 1, 0, 0] = -cT * Icpv
    return (U.reshape(n, 4, 4), T.reshape(n, 4, 4), S.reshape(n, 4, 4))


def _item_sums(x, y, ni, nj, si, tj, w, G, nu):
    """Shape-weighted kernel sums over the quadrature points of a batch.

    The batch holds nb items of q points each: x, y (nb, q, 2) are the
    points on the test and trial element, si, tj (nb, q) their linear shape
    fractions and w (nb, q) the weights; ni, nj (nb, 2) are the normals.
    Returns per item the U, T (i tested), T (j tested) blocks as (nb, 4, 4)
    and the summed D entries (nb, 3).
    """
    r = y - x
    r2 = r[..., 0] ** 2 + r[..., 1] ** 2
    lr = 0.5 * np.log(r2)
    rr = np.sqrt(r2)
    ex = r[..., 0] / rr
    ey = r[..., 1] / rr
    exx, exy, eyy = ex * ex, ex * ey, ey * ey

    cU = w * (1.0 / (8.0 * math.pi * G * (1.0 - nu)))
    k34lr = (3.0 - 4.0 * nu) * lr
    cT = w * (-1.0 / (4.0 * math.pi * (1.0 - nu))) / rr
    o2 = 1.0 - 2.0 * nu
    # test on i (point x), trial on j (point y, normal nj)
    drn = ex * nj[:, None, 0] + ey * nj[:, None, 1]
    wn = o2 * (ex * nj[:, None, 1] - ey * nj[:, None, 0])
    # test on j (point y), trial on i (point x, normal ni); r flips sign
    drm = -(ex * ni[:, None, 0] + ey * ni[:, None, 1])
    wm = o2 * (ey * ni[:, None, 0] - ex * ni[:, None, 1])
    K = np.stack([
        cU * (exx - k34lr), cU * exy, cU * exy, cU * (eyy - k34lr),
        cT * (drn * (o2 + 2.0 * exx)), cT * (drn * (2.0 * exy) - wn),
        cT * (drn * (2.0 * exy) + wn), cT * (drn * (o2 + 2.0 * eyy)),
        cT * (drm * (o2 + 2.0 * exx)), cT * (drm * (2.0 * exy) - wm),
        cT * (drm * (2.0 * exy) + wm), cT * (drm * (o2 + 2.0 * eyy)),
    ], -1)
    ab = np.stack([(1.0 - si) * (1.0 - tj), (1.0 - si) * tj,
                   si * (1.0 - tj), si * tj], 1)  # (nb, m n, q)
    nb = len(w)
    blk = (ab @ K).reshape(nb, 2, 2, 3, 2, 2)  # (item, m, n, kernel, k, l)
    Ub = blk[:, :, :, 0].transpose(0, 1, 3, 2, 4).reshape(nb, 4, 4)
    Tij = blk[:, :, :, 1].transpose(0, 1, 3, 2, 4).reshape(nb, 4, 4)
    Tji = blk[:, :, :, 2].transpose(0, 2, 3, 1, 4).reshape(nb, 4, 4)
    wD = w * (-G / (2.0 * math.pi * (1.0 - nu)))
    D = np.stack([(wD * (exx - lr)).sum(1), (wD * exy).sum(1),
                  (wD * (eyy - lr)).sum(1)], 1)
    return Ub, Tij, Tji, D


def _batches(n_items: int, n_ref: int):
    """Indices of whole items, about BATCH_POINTS quadrature points each."""
    per = max(1, BATCH_POINTS // n_ref)
    for a in range(0, n_items, per):
        yield np.arange(a, min(a + per, n_items))


def _accumulate(acc, keys, sums):
    """Add per-item sums to the accumulators of their pairs; keys repeat
    when a pair has several items."""
    for a, part in zip(acc, sums):
        np.add.at(a, keys, part)


def _adjacent(acc, kk, P, Ls, Ns, i, j, info, G, nu):
    """Map the reference Duffy rule onto the adjacent pairs kk.

    An item is one Duffy triangle of one pair: item 2k + h is triangle h
    of pair kk[k].
    """
    xi_ref, eta_ref, w_ref = _DUFFY
    i, j, info = i[kk], j[kk], info[kk]
    p, q = P[i], P[j]
    i_start = (info & 1) != 0
    j_start = (info & 2) != 0
    v = np.where(i_start[:, None], p[:, 0:2], p[:, 2:4])
    ui = np.where(i_start, 1.0, -1.0)[:, None] * (p[:, 2:4] - p[:, 0:2])
    uj = np.where(j_start, 1.0, -1.0)[:, None] * (q[:, 2:4] - q[:, 0:2])
    LL = Ls[i] * Ls[j]
    for b in _batches(2 * len(kk), xi_ref.shape[1]):
        k, h = b // 2, b % 2
        xi, eta = xi_ref[h], eta_ref[h]
        sums = _item_sums(
            v[k, None] + xi[..., None] * ui[k, None],
            v[k, None] + eta[..., None] * uj[k, None],
            Ns[i[k]], Ns[j[k]],
            np.where(i_start[k, None], xi, 1.0 - xi),
            np.where(j_start[k, None], eta, 1.0 - eta),
            w_ref[h] * LL[k, None], G, nu,
        )
        _accumulate(acc, kk[k], sums)


def _separated(acc, kk, P, Ls, Ns, i, j, G, nu):
    """Tensor Gauss on the admissible sub-pairs of the separated pairs kk.

    An item is one admissible sub-pair.
    """
    gx, gw = _G8
    gs = np.repeat(gx, len(gx))
    gt = np.tile(gx, len(gx))
    gww = np.repeat(gw, len(gw)) * np.tile(gw, len(gw))
    i, j = i[kk], j[kk]
    ks, box = _admissible_subpairs(P, Ls, i, j)
    s0, s1, t0, t1 = box.T
    wsub = (s1 - s0) * (t1 - t0) * Ls[i[ks]] * Ls[j[ks]]
    p, q = P[i], P[j]
    for b in _batches(len(ks), len(gww)):
        k = ks[b]
        s = s0[b, None] + (s1 - s0)[b, None] * gs
        t = t0[b, None] + (t1 - t0)[b, None] * gt
        sums = _item_sums(
            p[k, None, 0:2] + s[..., None] * (p[k, None, 2:4] - p[k, None, 0:2]),
            q[k, None, 0:2] + t[..., None] * (q[k, None, 2:4] - q[k, None, 0:2]),
            Ns[i[k]], Ns[j[k]], s, t, gww * wsub[b, None], G, nu,
        )
        _accumulate(acc, kk[k], sums)


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


def pair_blocks(mesh: BoundaryMesh, mat: Material, i, j):
    """Galerkin blocks of the element pairs (i[k], j[k]), i[k] <= j[k].

    Returns (U, Tij, Tji, S), each (n_pairs, 4, 4): Tij is tested on element
    i[k] and trialled on j[k], Tji the reverse; U and S are tested on i[k].
    Raises KernelError if two elements overlap, two separated elements
    touch or a block is not finite (a quadrature point on both elements).
    """
    kind, info = _classify(mesh.elements, i, j)
    P, Ls, Ns = mesh.ends, mesh.lengths, mesh.normals
    G, nu = mat.shear_modulus, mat.poisson_ratio
    n = len(i)
    U, Tij, Tji = (np.zeros((n, 4, 4)) for _ in range(3))
    D = np.zeros((n, 3))
    acc = (U, Tij, Tji, D)
    # an empty class is skipped, so a one-pair call does not pay the fixed
    # numpy overhead of the other class's integrator; a quadrature point
    # on both elements makes a block that is not finite, checked below
    ks = np.flatnonzero(kind == 0)
    ka = np.flatnonzero(kind == 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if len(ks):
            _separated(acc, ks, P, Ls, Ns, i, j, G, nu)
        if len(ka):
            _adjacent(acc, ka, P, Ls, Ns, i, j, info, G, nu)
    da = np.stack([-1.0 / Ls[i], 1.0 / Ls[i]], 1)
    db = np.stack([-1.0 / Ls[j], 1.0 / Ls[j]], 1)
    Dm = D[:, [0, 1, 1, 2]].reshape(n, 2, 2)
    S = np.einsum("pm,pn,pkl->pmknl", da, db, Dm).reshape(n, 4, 4)
    kc = np.flatnonzero(kind == 2)
    if len(kc):
        U[kc], Tij[kc], S[kc] = _coincident_blocks(P[i[kc]], Ls[i[kc]], G, nu)
        Tji[kc] = Tij[kc]
    finite = np.ones(n, dtype=bool)
    for blk in (U, Tij, Tji, S):
        finite &= np.isfinite(blk).all((1, 2))
    if not finite.all():
        k = np.argmin(finite)
        raise KernelError(f"domain {mesh.domain_label}: Galerkin block of "
                          f"elements {i[k]} and {j[k]} is not finite")
    return U, Tij, Tji, S


def all_pair_blocks(mesh: BoundaryMesh, mat: Material):
    """U, T, S Galerkin blocks for every element pair of one domain.

    Returns (U, T, S) with shape (m, m, 4, 4); index (2m+k, 2n+l) pairs test
    shape m / component k with trial shape n / component l.  T[i, j] is
    tested on element i.
    """
    m = mesh.n_elements
    i, j = np.triu_indices(m)
    Ub, Tij, Tji, Sb = pair_blocks(mesh, mat, i, j)
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
    if kind not in ("U", "T", "T*", "S"):
        raise KernelError(f"unsupported kernel kind {kind!r}")
    if kind == "T*":
        return galerkin_integral(mesh, e_trial, e_test, "T", mat).T
    swap = e_test > e_trial
    pair = np.array([min(e_test, e_trial)]), np.array([max(e_test, e_trial)])
    Ub, Tij, Tji, Sb = (blk[0] for blk in pair_blocks(mesh, mat, *pair))
    if kind == "T":
        return Tji if swap else Tij
    blk = Ub if kind == "U" else Sb
    return blk.T if swap else blk
