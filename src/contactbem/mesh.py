"""Boundary meshes, part tagging, contact pairing and the master frames.

Each domain boundary is a closed anti-clockwise polyline of straight linear
elements.  Elements carry a part tag: Dirichlet ("D"), Neumann ("N"),
contact ("C"), or a componentwise mix ("DxNy", "NxDy") used for roller and
simple-support faces.  Units are mm / MPa / s throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VALID_TAGS = ("D", "N", "C", "DxNy", "NxDy")

# componentwise Dirichlet masks: tag -> (x is Dirichlet, y is Dirichlet)
TAG_DIRICHLET_MASK = {
    "D": (True, True),
    "N": (False, False),
    "C": (False, False),
    "DxNy": (True, False),
    "NxDy": (False, True),
}


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class Material:
    """Isotropic plane-strain Kelvin-Voigt material, viscosity D = chi*C."""

    young_modulus: float  # MPa
    poisson_ratio: float
    relaxation_time: float = 0.0  # chi, s, shared by both domains

    @property
    def shear_modulus(self) -> float:
        return self.young_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass
class BoundaryMesh:
    """Straight elements on a node set, with their geometry.

    The element arrays are computed once, at construction: ends (m, 4)
    holds each element's endpoints [x0 y0 x1 y1], lengths (m,) its length,
    tangents (m, 2) its unit tangent t and normals (m, 2) its outward
    normal n = (t2, -t1).
    """

    domain_label: str
    nodes: np.ndarray  # (n, 2)
    elements: np.ndarray  # (m, 2) int, element i runs nodes[e[0]] -> nodes[e[1]]
    part_tag: list  # per element, one of VALID_TAGS
    segment: np.ndarray  # (m,) int, polyline segment each element was meshed from
    ends: np.ndarray = field(init=False)
    lengths: np.ndarray = field(init=False)
    tangents: np.ndarray = field(init=False)
    normals: np.ndarray = field(init=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        self.segment = np.asarray(self.segment, dtype=np.int64)
        self.ends = self.nodes[self.elements].reshape(-1, 4)
        d = self.ends[:, 2:] - self.ends[:, :2]
        self.lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.lengths <= 0.0):
            raise MeshError(f"degenerate element {np.argmax(self.lengths <= 0.0)}")
        self.tangents = d / self.lengths[:, None]
        self.normals = np.stack([self.tangents[:, 1], -self.tangents[:, 0]], 1)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def contact_elements(self) -> np.ndarray:
        return np.flatnonzero(np.array(self.part_tag) == "C")


def scatter(rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray, shape) -> np.ndarray:
    """Dense matrix summing blocks[...] into (rows[...], cols[...]), in order."""
    flat = np.bincount((rows * shape[1] + cols).ravel(), weights=blocks.ravel(),
                       minlength=shape[0] * shape[1])
    return flat.reshape(shape)


def p1_mass(h, rows, cols, shape, f=np.eye(2), g=np.eye(2)) -> np.ndarray:
    """Dense scalar mass matrix, sum over intervals k of int f_a g_b.

    Interval k has length h[k] and pairs the test shapes rows[k, a] with
    the trial shapes cols[k, b], a, b in {0, 1}; f[k, i, a] and g[k, i, b]
    are their values at the interval's ends i = 0, 1 (by default those of
    the element's own shapes: shape a is 1 at end a).  The product of two
    linear functions integrates exactly to
    h/6 (2 f0 g0 + f0 g1 + f1 g0 + 2 f1 g1); the interval blocks are summed
    into the matrix in interval order.
    """
    f0, f1 = f[..., 0, :, None], f[..., 1, :, None]
    g0, g1 = g[..., 0, None, :], g[..., 1, None, :]
    blocks = h[:, None, None] / 6.0 * (2.0 * f0 * g0 + f0 * g1 + f1 * g0
                                       + 2.0 * f1 * g1)
    return scatter(rows[:, :, None], cols[:, None, :], blocks, shape)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of stacked 2-vectors, each rounded as u @ v is."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _project(points: np.ndarray, chain: np.ndarray):
    """Projections of points (n, 2) onto the k segments of the polyline
    chain (k + 1, 2): the parameter t (n, k) in [0, 1] of each point's
    nearest point on each segment, and the distance (n, k) to it."""
    a = chain[:-1]
    d = chain[1:] - a
    t = np.clip(_dot(points[:, None] - a, d) / _dot(d, d), 0.0, 1.0)
    r = points[:, None] - (a + t[..., None] * d)
    return t, np.sqrt(_dot(r, r))


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(u, v, w) -> float:
    return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])


def _segments_properly_intersect(p, q, a, b) -> bool:
    d1, d2 = _orient(a, b, p), _orient(a, b, q)
    d3, d4 = _orient(p, q, a), _orient(p, q, b)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def _unit_extent(poly: np.ndarray) -> np.ndarray:
    """poly translated and scaled so that its bounding box has largest side
    1, where the orientation and distance tests cannot overflow."""
    with np.errstate(over="ignore"):
        extent = float(np.ptp(poly, axis=0).max())
    if not np.isfinite(extent):
        raise MeshError(f"polyline extent {extent} is not finite")
    return (poly - poly.min(axis=0)) / (extent if extent > 0.0 else 1.0)


def _check_simple(poly: np.ndarray, unit: np.ndarray):
    """Reject zero-length segments, crossings, and segments that touch or
    overlap anywhere but at the vertex two consecutive segments share.
    The tests run on unit = _unit_extent(poly); messages give poly's
    coordinates."""
    m = len(poly)
    seg = [(unit[i], unit[(i + 1) % m]) for i in range(m)]
    tol = 1e-12
    for i, (p, q) in enumerate(seg):
        if np.linalg.norm(q - p) <= tol:
            raise MeshError(f"segment {i}: zero length (at most 1e-12 of "
                            f"the polyline's extent)")
    dist = _project(unit, np.vstack([unit, unit[:1]]))[1]  # [vertex, segment]
    for i in range(m):
        p, q = seg[i]
        for j in range(i + 1, m):
            a, b = seg[j]
            if j == i + 1 or (i == 0 and j == m - 1):
                # neighbours share one vertex; they must not fold back
                far = b if j == i + 1 else a
                if (abs(_orient(p, q, far)) <= tol * np.linalg.norm(q - p)
                        and (q - p) @ (b - a) < 0):
                    raise MeshError(f"polyline folds back at segments {i} and {j}")
                continue
            if _segments_properly_intersect(p, q, a, b):
                raise MeshError(f"polyline self-intersects (segments {i} and {j})")
            for k, sk in ((i, j), ((i + 1) % m, j), (j, i), ((j + 1) % m, i)):
                if dist[k, sk] <= tol:
                    x = poly[k]
                    raise MeshError(
                        f"polyline segments {i} and {j} touch at "
                        f"({x[0]:.12g}, {x[1]:.12g})"
                    )


def _graded_breaks(n: int, min_len: float, total: float, toward_end: bool):
    """Cumulative break fractions for n elements in geometric progression.

    The smallest element has length min_len and sits at the graded end.
    """
    if min_len * n >= total:
        # grading request already satisfied by uniform elements
        return np.linspace(0.0, 1.0, n + 1)
    # solve min_len * (q^n - 1)/(q - 1) = total for ratio q > 1 by bisection
    def excess(q):
        return min_len * (q**n - 1.0) / (q - 1.0) - total

    lo, hi = 1.0 + 1e-12, 2.0
    while excess(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    lens = min_len * q ** np.arange(n)
    lens *= total / lens.sum()
    if toward_end:
        lens = lens[::-1]
    fr = np.concatenate([[0.0], np.cumsum(lens)]) / total
    fr[-1] = 1.0
    return fr


def build_mesh(
    polyline,
    part_spec,
    domain_label: str = "A",
    allow_floating: bool = False,
) -> BoundaryMesh:
    """Build a closed boundary mesh from a vertex chain and per-segment specs.

    polyline: sequence of vertices (closed implicitly, anti-clockwise).
    part_spec: one dict per segment, as parse_scenario validates it, with keys
        tag   -- part tag (see VALID_TAGS)
        n     -- number of elements on the segment (>= 1, even for "both")
        grade -- optional ("start"|"end"|"both", min_len) geometric grading
                 toward the named vertex of the segment.
    allow_floating: permit a domain with no Dirichlet component provided it
        owns a contact part (the pairing then anchors it).
    """
    poly = np.asarray(polyline, dtype=float)
    if len(poly) < 3:
        raise MeshError("polyline needs at least 3 vertices")
    unit = _unit_extent(poly)
    if np.allclose(unit[0], unit[-1]):
        raise MeshError("do not repeat the first vertex; closure is implicit")
    if _signed_area(unit) <= 0:
        raise MeshError("polyline must be anti-clockwise")
    _check_simple(poly, unit)

    nodes = []
    elements = []
    tags = []
    segment = []
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        spec = part_spec[i]
        tag = spec["tag"]
        n = int(spec["n"])
        total = float(np.linalg.norm(b - a))
        grade = spec.get("grade")
        if grade is None:
            fr = np.linspace(0.0, 1.0, n + 1)
        else:
            side, min_len = grade
            if side == "start":
                fr = _graded_breaks(n, float(min_len), total, toward_end=False)
            elif side == "end":
                fr = _graded_breaks(n, float(min_len), total, toward_end=True)
            else:  # "both": n is even
                half = _graded_breaks(n // 2, float(min_len), total / 2, False)
                fr = np.concatenate([half * 0.5, 0.5 + 0.5 * (1.0 - half[::-1][1:])])
        base = len(nodes)
        for k in range(n):
            nodes.append(a + fr[k] * (b - a))
        for k in range(n):
            elements.append((base + k, base + k + 1))
            tags.append(tag)
            segment.append(i)
    # close the chain: last element of last segment points at node 0
    elements[-1] = (elements[-1][0], 0)

    mesh = BoundaryMesh(domain_label, np.array(nodes), np.array(elements), tags,
                        np.array(segment))

    has_dirichlet = any(any(TAG_DIRICHLET_MASK[t]) for t in tags)
    has_contact = any(t == "C" for t in tags)
    if not has_dirichlet and not (allow_floating and has_contact):
        raise MeshError("Dirichlet part empty")

    # closures of Dirichlet and contact parts must share no node
    d_nodes, c_nodes = set(), set()
    for e, t in enumerate(tags):
        tgt = d_nodes if any(TAG_DIRICHLET_MASK[t]) else None
        if t == "C":
            tgt = c_nodes
        if tgt is not None:
            tgt.update(mesh.elements[e])
    if d_nodes & c_nodes:
        raise MeshError("Dirichlet and contact closures intersect")
    return mesh


@dataclass
class ContactPair:
    """Pairing of the two contact traces; side B is the master surface.

    The master parameter s is arclength along B's contact chain.  The element
    ends of both traces cut it into overlap pieces [breaks[k], breaks[k + 1]],
    each inside one A and one B element.
    """

    mesh_A: BoundaryMesh
    mesh_B: BoundaryMesh
    elements_A: np.ndarray  # A contact elements, in A's boundary order
    elements_B: np.ndarray  # B contact elements, in B's boundary order
    breaks: np.ndarray  # (k + 1,) master arclength of the piece ends, rising
    pieces: np.ndarray  # (k, 2) the A element and the B element of each piece
    # (k, 2, 2) values of the two shapes of each piece's A (B) element at
    # the piece's ends, [piece, end, shape], as p1_mass takes them
    shapes_A: np.ndarray
    shapes_B: np.ndarray
    nodes_B: np.ndarray  # master-side contact displacement nodes, along the chain
    arclength_B: np.ndarray  # master arclength of each node in nodes_B
    normal: np.ndarray  # outward normal of B at each node of nodes_B (unit)
    tangent: np.ndarray

    @property
    def n_master_nodes(self) -> int:
        return len(self.nodes_B)


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


def _contact_chain(mesh: BoundaryMesh):
    """Ordered contact element list following the boundary orientation."""
    idx = mesh.contact_elements()
    if len(idx) == 0:
        raise MeshError(f"mesh {mesh.domain_label}: empty contact set")
    # the contact part must be one chain along the closed polyline; rotate
    # the sorted list so that the chain starts at its first element
    idx = sorted(idx)
    m = mesh.n_elements
    present = set(idx)
    starts = [k for k, e in enumerate(idx) if (e - 1) % m not in present]
    if len(starts) > 1:
        k = starts[1]
        raise MeshError(
            f"domain {mesh.domain_label}: contact elements are not one "
            f"contiguous chain (break between elements {idx[k - 1]} and {idx[k]})"
        )
    if starts:
        idx = idx[starts[0]:] + idx[:starts[0]]
    return np.array(idx, dtype=np.int64)


# Tolerances of the pairing, relative to the length of B's contact chain:
PAIR_TOL = 1e-9  # distance at which the two contact traces match
BREAK_TOL = 1e-12  # gap between two element ends that makes them one break


def chain_nodes(mesh: BoundaryMesh, chain: np.ndarray) -> np.ndarray:
    """Nodes along a chain of consecutive elements: its first element's
    start, then the end of every element."""
    return np.append(mesh.elements[chain, 0], mesh.elements[chain[-1], 1])


def _shapes(span: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Values [piece, end, shape] of the linear shapes of an element with
    master span (k, 2) at the ends (k, 2) of each piece."""
    t = (ends - span[:, :1]) / (span[:, 1:] - span[:, :1])
    return np.stack([1.0 - t, t], -1)


def _nodal_mean(v: np.ndarray) -> np.ndarray:
    """Unit mean of the two chain elements' unit vectors v at each node."""
    acc = np.zeros((len(v) + 1, 2))
    acc[:-1] += v
    acc[1:] += v
    return acc / np.linalg.norm(acc, axis=1)[:, None]


def _holder(span: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Chain position of the element whose master span (k, 2) holds each
    point of mid deepest."""
    return np.argmin(np.maximum(span.min(1) - mid[:, None],
                                mid[:, None] - span.max(1)), axis=1)


def pair_contacts(mesh_A: BoundaryMesh, mesh_B: BoundaryMesh) -> ContactPair:
    """Match the two contact traces; non-matching subdivisions allowed."""
    chain_A = _contact_chain(mesh_A)
    chain_B = _contact_chain(mesh_B)
    nodes_A = chain_nodes(mesh_A, chain_A)
    nodes_B = chain_nodes(mesh_B, chain_B)
    seg_len = mesh_B.lengths[chain_B]
    s_B = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = s_B[-1]
    tol = PAIR_TOL * total

    # master arclength of A's contact nodes: their nearest points on B's chain
    t, dist = _project(mesh_A.nodes[nodes_A], mesh_B.nodes[nodes_B])
    k = np.argmin(dist, axis=1)
    near = np.arange(len(k))
    if np.any(dist[near, k] > tol):
        raise MeshError("contact traces diverge beyond tolerance")
    s_A = s_B[k] + t[near, k] * seg_len[k]
    if s_A.min() > tol or s_A.max() < total - tol:
        raise MeshError("contact traces do not cover the same curve")

    # the node arclengths of both traces cut the chain into pieces
    cuts = np.sort(np.concatenate([s_A, s_B]))
    breaks = cuts[np.concatenate([[True], np.diff(cuts) > BREAK_TOL * total])]
    piece_ends = np.stack([breaks[:-1], breaks[1:]], 1)
    mid = piece_ends.mean(1)
    # element spans in master arclength (A runs opposite to B)
    span_A = np.stack([s_A[:-1], s_A[1:]], 1)
    span_B = np.stack([s_B[:-1], s_B[1:]], 1)
    ia, ib = _holder(span_A, mid), _holder(span_B, mid)

    return ContactPair(
        mesh_A=mesh_A,
        mesh_B=mesh_B,
        elements_A=chain_A,
        elements_B=chain_B,
        breaks=breaks,
        pieces=np.stack([chain_A[ia], chain_B[ib]], 1),
        shapes_A=_shapes(span_A[ia], piece_ends),
        shapes_B=_shapes(span_B[ib], piece_ends),
        nodes_B=nodes_B,
        arclength_B=s_B,
        normal=_nodal_mean(mesh_B.normals[chain_B]),
        tangent=_nodal_mean(mesh_B.tangents[chain_B]),
    )
