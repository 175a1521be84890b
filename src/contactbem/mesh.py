"""Boundary meshes, part tagging and contact pairing.

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

    def __post_init__(self):
        if self.young_modulus <= 0:
            raise MeshError("young_modulus must be positive")
        if not (0.0 <= self.poisson_ratio < 0.5):
            raise MeshError("poisson_ratio must lie in [0, 0.5)")
        if self.relaxation_time < 0:
            raise MeshError("relaxation_time must be nonnegative")

    @property
    def shear_modulus(self) -> float:
        return self.young_modulus / (2.0 * (1.0 + self.poisson_ratio))



@dataclass
class BoundaryMesh:
    domain_label: str
    nodes: np.ndarray  # (n, 2)
    elements: np.ndarray  # (m, 2) int, element i runs nodes[e[0]] -> nodes[e[1]]
    part_tag: list  # per element, one of VALID_TAGS

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        if len(self.part_tag) != len(self.elements):
            raise MeshError("one part tag per element required")
        for t in self.part_tag:
            if t not in VALID_TAGS:
                raise MeshError(f"unknown part tag {t!r}")

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def element_indices(self, tag_pred) -> np.ndarray:
        return np.array(
            [i for i, t in enumerate(self.part_tag) if tag_pred(t)], dtype=np.int64
        )

    def contact_elements(self) -> np.ndarray:
        return self.element_indices(lambda t: t == "C")


def element_frame(mesh: BoundaryMesh, e: int):
    """Unit tangent, outward normal n = (t2, -t1) and length of element e."""
    a, b = mesh.elements[e]
    d = mesh.nodes[b] - mesh.nodes[a]
    length = float(np.hypot(d[0], d[1]))
    if length <= 0.0:
        raise MeshError(f"degenerate element {e}")
    t = d / length
    n = np.array([t[1], -t[0]])
    return t, n, length


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(u, v, w) -> float:
    return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])


def _segments_properly_intersect(p, q, a, b) -> bool:
    d1, d2 = _orient(a, b, p), _orient(a, b, q)
    d3, d4 = _orient(p, q, a), _orient(p, q, b)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def _point_segment_distance(p, a, b) -> float:
    d = b - a
    t = np.clip((p - a) @ d / (d @ d), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * d)))


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
            for k, (s0, s1) in ((i, seg[j]), ((i + 1) % m, seg[j]),
                                (j, seg[i]), ((j + 1) % m, seg[i])):
                if _point_segment_distance(unit[k], s0, s1) <= tol:
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
        fr = np.linspace(0.0, 1.0, n + 1)
        return fr
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
    part_spec: one dict per segment with keys
        tag   -- part tag (see VALID_TAGS)
        n     -- number of elements on the segment (>= 1)
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
    if len(part_spec) != len(poly):
        raise MeshError("one part spec per polyline segment required")
    if _signed_area(unit) <= 0:
        raise MeshError("polyline must be anti-clockwise")
    _check_simple(poly, unit)

    nodes = []
    elements = []
    tags = []
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        spec = part_spec[i]
        tag = spec["tag"]
        n = int(spec["n"])
        if tag not in VALID_TAGS:
            raise MeshError(f"segment {i}: unknown tag {tag!r}")
        if n < 1:
            raise MeshError(f"segment {i}: subdivision count must be >= 1")
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
            elif side == "both":
                if n % 2:
                    raise MeshError(f"segment {i}: 'both' grading needs even n")
                half = _graded_breaks(n // 2, float(min_len), total / 2, False)
                fr = np.concatenate([half * 0.5, 0.5 + 0.5 * (1.0 - half[::-1][1:])])
            else:
                raise MeshError(f"segment {i}: bad grading side {side!r}")
        base = len(nodes)
        for k in range(n):
            nodes.append(a + fr[k] * (b - a))
        for k in range(n):
            elements.append((base + k, base + k + 1))
            tags.append(tag)
    # close the chain: last element of last segment points at node 0
    elements[-1] = (elements[-1][0], 0)

    mesh = BoundaryMesh(domain_label, np.array(nodes), np.array(elements), tags)

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
    """Pairing of the two contact traces; side B is the master surface."""

    mesh_A: BoundaryMesh
    mesh_B: BoundaryMesh
    elements_A: np.ndarray  # A contact elements ordered along the master curve
    elements_B: np.ndarray
    # (element index on A, element index on B, s0, s1) in master arclength
    overlap_map: list = field(default_factory=list)
    # master-arclength of each contact element's start/end node (signed span)
    span_A: dict = field(default_factory=dict)
    span_B: dict = field(default_factory=dict)
    # master-side contact displacement nodes, ordered along the curve
    nodes_B: np.ndarray = None
    arclength_B: np.ndarray = None  # master arclength of each node in nodes_B
    normal: np.ndarray = None  # outward normal of B along the contact (unit)
    tangent: np.ndarray = None

    @property
    def n_master_nodes(self) -> int:
        return len(self.nodes_B)


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


PAIR_TOL = 1e-9  # relative distance at which the two contact traces match


def pair_contacts(mesh_A: BoundaryMesh, mesh_B: BoundaryMesh) -> ContactPair:
    """Match the two contact traces; non-matching subdivisions allowed."""
    chain_A = _contact_chain(mesh_A)
    chain_B = _contact_chain(mesh_B)

    # master parameter: arclength along B's contact chain
    pts_B = [mesh_B.nodes[mesh_B.elements[chain_B[0]][0]]]
    for e in chain_B:
        pts_B.append(mesh_B.nodes[mesh_B.elements[e][1]])
    pts_B = np.array(pts_B)
    seg_len = np.linalg.norm(np.diff(pts_B, axis=0), axis=1)
    s_B = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = s_B[-1]
    span_tol = PAIR_TOL * max(1.0, total)

    def param_of(p):
        """Arclength of point p on B's chain; error if off the chain."""
        best = None
        for k in range(len(pts_B) - 1):
            a, b = pts_B[k], pts_B[k + 1]
            d = b - a
            L2 = d @ d
            t = np.clip((p - a) @ d / L2, 0.0, 1.0)
            proj = a + t * d
            dist = np.linalg.norm(p - proj)
            s = s_B[k] + t * np.sqrt(L2)
            if best is None or dist < best[0]:
                best = (dist, s)
        if best[0] > span_tol:
            raise MeshError("contact traces diverge beyond tolerance")
        return best[1]

    # element intervals in master parameter (A runs opposite to B)
    iv_A = []
    span_A = {}
    for e in chain_A:
        a, b = mesh_A.elements[e]
        sa, sb = param_of(mesh_A.nodes[a]), param_of(mesh_A.nodes[b])
        span_A[int(e)] = (sa, sb)
        iv_A.append((min(sa, sb), max(sa, sb), e))
    iv_B = []
    span_B = {}
    for e in chain_B:
        a, b = mesh_B.elements[e]
        sa, sb = param_of(mesh_B.nodes[a]), param_of(mesh_B.nodes[b])
        span_B[int(e)] = (sa, sb)
        iv_B.append((min(sa, sb), max(sa, sb), e))
    iv_A.sort()
    iv_B.sort()

    lo_A, hi_A = iv_A[0][0], iv_A[-1][1]
    lo_B, hi_B = iv_B[0][0], iv_B[-1][1]
    if abs(lo_A - lo_B) > span_tol or abs(hi_A - hi_B) > span_tol:
        raise MeshError("contact traces do not cover the same curve")

    breaks = sorted(set([round(x, 12) for x, _, _ in iv_A + iv_B] + [round(hi_A, 12)]))
    overlap = []
    for s0, s1 in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (s0 + s1)
        ea = next(e for a0, a1, e in iv_A if a0 - PAIR_TOL <= mid <= a1 + PAIR_TOL)
        eb = next(e for a0, a1, e in iv_B if a0 - PAIR_TOL <= mid <= a1 + PAIR_TOL)
        overlap.append((ea, eb, s0, s1))
    covered = sum(s1 - s0 for _, _, s0, s1 in overlap)
    if abs(covered - total) > 1e-12 * max(1.0, total):
        raise MeshError("overlap intervals do not partition the contact curve")

    # master node list along the chain, with frames
    nodes_B = [mesh_B.elements[chain_B[0]][0]]
    for e in chain_B:
        nodes_B.append(mesh_B.elements[e][1])
    nodes_B = np.array(nodes_B, dtype=np.int64)
    normals = np.zeros((len(nodes_B), 2))
    tangents = np.zeros((len(nodes_B), 2))
    for k, e in enumerate(chain_B):
        t, n, _ = element_frame(mesh_B, e)
        normals[k] += n
        normals[k + 1] += n
        tangents[k] += t
        tangents[k + 1] += t
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]

    arclen = np.array([param_of(mesh_B.nodes[n]) for n in nodes_B])

    return ContactPair(
        mesh_A=mesh_A,
        mesh_B=mesh_B,
        elements_A=chain_A,
        elements_B=chain_B,
        overlap_map=overlap,
        span_A=span_A,
        span_B=span_B,
        nodes_B=nodes_B,
        arclength_B=arclen,
        normal=normals,
        tangent=tangents,
    )
