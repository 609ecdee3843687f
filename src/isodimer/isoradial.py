"""Planar embedded graphs, isoradiality, diamond-graph angles and lattice builders.

The embedding works in complex coordinates.  Every primal edge owns a rhombus
record with a canonical direction (v1 -> v2), the adjacent circumcenters
f1 (right) / f2 (left), the embedding half-angle theta_bar and a lifted pair
(alpha_bar, beta_bar) with beta_bar - alpha_bar = 2 theta_bar.  Boundary
rhombus pairs additionally carry the pinned lifts (alpha_l, beta_l, alpha_r,
beta_r) of the two quarter-rhombi at the midpoint vertex, with
beta_l = alpha_r + 2 pi.
"""

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DomainError,
    EmbeddingError,
    InfeasibleError,
    IsoradialityError,
    ParseError,
)

RADIUS = 2.0
_GEOM_TOL = 1e-9
DEFAULT_EPSILON = 0.05


def _tau(z):
    """Angle of a complex vector in [0, 2 pi).  atan2, not cmath.phase, which
    raises OverflowError where the angle underflows (as at 5e-324 j)."""
    a = math.atan2(z.imag, z.real)
    return a + 2.0 * math.pi if a < 0 else a


def _cross(a, b):
    return a.real * b.imag - a.imag * b.real


def _seg_intersect(p1, p2, q1, q2):
    """Proper or improper intersection of open segments (shared endpoints
    excluded), of scalars or elementwise of arrays."""
    d1 = _cross(p2 - p1, q1 - p1)
    d2 = _cross(p2 - p1, q2 - p1)
    d3 = _cross(q2 - q1, p1 - q1)
    d4 = _cross(q2 - q1, p2 - q1)
    eps = 1e-12
    return ((((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps)))
            & (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps))))


@dataclass
class PlanarGraph:
    """Straight-line planar embedded graph with derived rotation system and faces."""

    coords: dict
    edges: list
    adj: dict = field(default_factory=dict)
    faces: list = field(default_factory=list)          # bounded faces, CCW cycles
    outer_face: tuple = ()                              # CW cycle

    def __post_init__(self):
        if not self.adj:
            self._derive()

    def _derive(self):
        ids = sorted(self.coords)
        if len(ids) != len(set(ids)):
            raise ParseError("duplicate vertex ids")
        seen = set()
        edges = []
        for a, b in self.edges:
            if a == b:
                raise ParseError(f"loop edge at vertex {a}")
            if a not in self.coords or b not in self.coords:
                raise ParseError(f"edge ({a},{b}) references unknown vertex")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ParseError(f"duplicate edge {key}")
            seen.add(key)
            edges.append(key)
        self.edges = sorted(edges)
        adj = {v: [] for v in ids}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        xy = self.coords
        for v in ids:
            if not adj[v]:
                raise ParseError(f"isolated vertex {v}")
            adj[v].sort(key=lambda w, z=xy[v]: _tau(xy[w] - z))
        self.adj = adj
        self._check_planarity()
        self._trace_faces()

    def _check_planarity(self, new=None):
        # Uniform-grid spatial hash whose cell size is the longest edge: two
        # crossing segments have overlapping bounding boxes, so they share a
        # cell.  The pair named is the first crossing pair in sorted edge
        # order, as in an all-pairs scan.  With ``new`` (positions in
        # ``edges``) only the pairs holding one of those edges are tested.
        es, xy = self.edges, self.coords
        ids = list(xy)
        z = np.array([xy[v] for v in ids], dtype=complex)
        bad = ~np.isfinite(z)
        if bad.any():
            raise EmbeddingError(f"vertex {ids[int(np.argmax(bad))]} has a non-finite coordinate")
        if not es:
            return
        pos = {v: n for n, v in enumerate(ids)}
        ends = np.array([(pos[a], pos[b]) for a, b in es], dtype=np.intp)
        za, zb = z[ends[:, 0]], z[ends[:, 1]]
        d = zb - za
        lo = np.stack([np.minimum(za.real, zb.real), np.minimum(za.imag, zb.imag)])
        hi = np.stack([np.maximum(za.real, zb.real), np.maximum(za.imag, zb.imag)])
        origin = lo.min(axis=1, keepdims=True)
        # at most 2^30 cells a side, so a cell's key fits in 64 bits
        cell = max(float(np.hypot(d.real, d.imag).max()),
                   float((hi - origin).max()) / 2.0 ** 30) or 1.0
        first = np.floor((lo - origin) / cell).astype(np.int64)
        last = np.floor((hi - origin) / cell).astype(np.int64)
        span, width = last - first, int(last[1].max()) + 1
        keys, members = [], []
        for dx in range(int(span[0].max()) + 1):
            for dy in range(int(span[1].max()) + 1):
                on = np.flatnonzero((span[0] >= dx) & (span[1] >= dy))
                keys.append((first[0, on] + dx) * width + first[1, on] + dy)
                members.append(on)
        keys, members = np.concatenate(keys), np.concatenate(members)
        srt = np.lexsort((members, keys))
        keys, members = keys[srt], members[srt]
        pairs = []
        for lag in range(1, len(keys)):
            same = keys[lag:] == keys[:-lag]
            if not same.any():
                break
            pairs.append(members[:-lag][same] * len(es) + members[lag:][same])
        if not pairs:
            return
        i, j = np.divmod(np.unique(np.concatenate(pairs)), len(es))
        keep = ((ends[i, 0] != ends[j, 0]) & (ends[i, 0] != ends[j, 1])
                & (ends[i, 1] != ends[j, 0]) & (ends[i, 1] != ends[j, 1]))
        if new is not None:
            fresh = np.zeros(len(es), dtype=bool)
            fresh[new] = True
            keep &= fresh[i] | fresh[j]
        i, j = i[keep], j[keep]
        hit = np.flatnonzero(_seg_intersect(za[i], zb[i], za[j], zb[j]))
        if len(hit):
            raise EmbeddingError(f"edges {es[i[hit[0]]]} and {es[j[hit[0]]]} cross")

    def _trace_faces(self):
        # Next directed edge: at v, turn to the neighbor just clockwise of u.
        # With CCW-sorted rotations this traces the face to the left of (u, v);
        # bounded faces come out CCW, the outer face CW.
        # Faces start at their least directed edge, taken in sorted order.
        succ = {(u, v): (v, nbrs[i - 1]) for v, nbrs in self.adj.items()
                for i, u in enumerate(nbrs)}
        faces = []
        for start in sorted(succ):
            if start not in succ:
                continue
            cycle, cur = [], start
            while True:
                cycle.append(cur[0])
                cur = succ.pop(cur)
                if cur == start:
                    break
            faces.append(tuple(cycle))
        outer, bounded = [], []
        xy = self.coords
        for f in faces:
            area = 0.0
            for a, b in zip(f, f[1:] + f[:1]):
                za, zb = xy[a], xy[b]
                area += za.real * zb.imag - za.imag * zb.real
            (bounded if area > 0 else outer).append((f, area))
        if len(outer) != 1:
            raise EmbeddingError("embedding does not have a unique outer face")
        self.outer_face = outer[0][0]
        self.faces = sorted((f for f, _ in bounded), key=lambda f: min(f))
        n_v, n_e, n_f = len(self.coords), len(self.edges), len(self.faces) + 1
        if n_v - n_e + n_f != 2:
            raise EmbeddingError(f"Euler check failed: V={n_v} E={n_e} F={n_f}")

    def boundary_edges(self):
        out = set()
        f = self.outer_face
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            out.add((min(a, b), max(a, b)))
        return out

    def boundary_vertices(self):
        return set(self.outer_face)


def load_graph(json_bytes):
    """Parse the normative graph JSON into a PlanarGraph.

    Expected format:
    {"radius": 2.0, "vertices": [{"id": int, "x": float, "y": float}, ...],
     "edges": [[int, int], ...]}.  Every number may be a JSON integer or
    float, an id an integral one; a boolean or a string is a ParseError.
    """
    try:
        data = json.loads(json_bytes)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        # written so that a NaN radius fails too
        if not abs(float(_number(data["radius"])) - RADIUS) <= _GEOM_TOL:
            raise ParseError(f"radius must be {RADIUS}, got {data['radius']}")
        coords = {}
        for v in data["vertices"]:
            vid = _vertex_id(v["id"])
            if vid in coords:
                raise ParseError(f"duplicate vertex id {vid}")
            coords[vid] = complex(float(_number(v["x"])), float(_number(v["y"])))
        edges = [(_vertex_id(a), _vertex_id(b)) for a, b in data["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc
    return PlanarGraph(coords=coords, edges=edges)


def _number(x):
    """A number from the graph JSON: an int or a float, not a bool (which
    Python counts as an int) or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"expected a number, got {x!r}")
    return x


def _vertex_id(x):
    """A vertex id from the graph JSON: an integral number, as an int."""
    vid = int(_number(x))
    if vid != x:
        raise ParseError(f"vertex id must be an integer, got {x!r}")
    return vid


def dump_graph(g):
    """Inverse of load_graph; deterministic key order."""
    data = {
        "radius": RADIUS,
        "vertices": [{"id": v, "x": g.coords[v].real, "y": g.coords[v].imag}
                     for v in sorted(g.coords)],
        "edges": [[a, b] for a, b in g.edges],
    }
    return json.dumps(data, sort_keys=True, indent=1)


def _circumcenter(points):
    """Common center of |z - c| = RADIUS through all points, from the first
    two sides out of points[0] that are not parallel; None if inconsistent,
    and None where the center overflows or is not finite."""
    p0 = points[0]
    try:
        for a, b in combinations([q - p0 for q in points[1:]], 2):
            det = 2.0 * _cross(a, b)
            if abs(det) < 1e-9:
                continue
            ux = (b.imag * abs(a) ** 2 - a.imag * abs(b) ** 2) / det
            uy = (a.real * abs(b) ** 2 - b.real * abs(a) ** 2) / det
            best = p0 + complex(ux, uy)
            # written so that a NaN distance fails too
            return best if all(abs(abs(q - best) - RADIUS) <= _GEOM_TOL for q in points) else None
    except OverflowError:
        pass
    return None


def _point_in_polygon(z, poly):
    inside = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (a.imag > z.imag) != (b.imag > z.imag):
            xcross = a.real + (z.imag - a.imag) * (b.real - a.real) / (b.imag - a.imag)
            if z.real < xcross:
                inside = not inside
    return inside


@dataclass
class RhombusRecord:
    """Diamond-graph data of one primal edge, canonical direction (v1, v2).

    f1/f2 are face indices (into IsoradialGraph.face_centers) of the right/left
    circumcenter; f2 is None for boundary edges (the reflected outer point is
    virtual).  alpha_bar/beta_bar are the lifted rhombus-vector angles with
    2 e^{i alpha_bar} on the right of (v1, v2).
    """

    edge_id: int
    v1: int
    v2: int
    f1: int
    f2: object
    theta_bar: float
    alpha_bar: float
    beta_bar: float
    boundary: bool


@dataclass
class BoundaryPair:
    """A boundary rhombus pair: vertices (vl, vc, vr), inner center fc.

    wl/wr are the edge ids of (vl, vc) and (vc, vr); alpha_l..beta_r are the
    lifted quarter-rhombus vectors of the double-graph edges (vc, wl) and
    (vc, wr), pinned so that beta_l = alpha_r + 2 pi.
    """

    vl: int
    vc: int
    vr: int
    fc: int
    wl: int
    wr: int
    theta_bar: float
    alpha_l: float
    beta_l: float
    alpha_r: float
    beta_r: float
    is_root: bool = False


@dataclass
class TrainTrack:
    rhombi: tuple       # ordered edge ids
    direction: float    # common parallel direction mod pi


@dataclass
class IsoradialGraph:
    base: PlanarGraph
    face_centers: list            # circumcenter per bounded face (index = face id)
    dual_edges: list              # ((face_i, face_j), edge_id) for inner primal edges
    rhombi: dict                  # edge_id -> RhombusRecord
    edge_ids: dict                # (a, b) sorted pair -> edge_id
    boundary_pairs: list          # BoundaryPair, sorted by vc
    root: int                     # chosen root midpoint
    epsilon: float
    _hash: str = field(default=None, init=False, repr=False, compare=False)
    _excl: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _table: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # a copy may have its angle records edited: it rebuilds what derives from them
        return dict(self.__dict__, _excl={}, _table=None)

    # --- convenience -----------------------------------------------------
    def edge_list(self):
        return sorted(self.rhombi)

    def pair_of_vc(self, vc):
        for bp in self.boundary_pairs:
            if bp.vc == vc:
                return bp
        raise KeyError(vc)

    def root_pair(self):
        return self.pair_of_vc(self.root)

    def graph_hash(self):
        """Short digest of the embedded graph and its root, computed once."""
        if self._hash is None:
            import hashlib

            blob = dump_graph(self.base) + f"|root={self.root}"
            self._hash = hashlib.sha1(blob.encode()).hexdigest()[:12]
        return self._hash


def _edge_faces(faces):
    """The ids of the faces on each edge (min, max), in face order."""
    edge_faces = {}
    for fi, f in enumerate(faces):
        for a, b in zip(f, f[1:] + f[:1]):
            edge_faces.setdefault((a, b) if a < b else (b, a), []).append(fi)
    return edge_faces


def _validate_isoradial_faces(faces, coords):
    centers = []
    for f in faces:
        pts = [coords[v] for v in f]
        c = _circumcenter(pts)
        if c is None:
            raise IsoradialityError(
                f"face {f} is not inscribed in a circle of radius {RADIUS}")
        if not _point_in_polygon(c, pts):
            raise IsoradialityError(f"circumcenter of face {f} lies outside the face")
        centers.append(c)
    return centers


def _split_edges(g, coords, mids, touched):
    """g with each edge (a, b) of ``mids`` split at the vertex mids[(a, b)]
    of ``coords``, taken from g's rotation system and faces rather than
    derived again.  The new vertex takes the place of the far end in the
    rotations at a and b, which are sorted again, and enters the cycles of
    the outer face and of the faces ``touched`` (those of g on a split edge)
    between a and b.  Only the pairs holding a new edge are tested for
    crossings.  Returns the graph and, for each of its bounded faces, the
    index of that face in g.

    A traced cycle starts at its least directed edge.  The cycles here are
    simple (make_isoradial checks that every boundary vertex has two
    boundary edges, and an inscribed face is convex), so that edge leaves
    the least vertex, and a split cycle keeps its start.
    """
    def split(cycle):
        out = []
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            out.append(x)
            m = mids.get((min(x, y), max(x, y)))
            if m is not None:
                out.append(m)
        return tuple(out)

    halves = [(min(x, m), max(x, m)) for e, m in mids.items() for x in e]
    edges = sorted([e for e in g.edges if e not in mids] + halves)
    adj = dict(g.adj)
    for (a, b), m in mids.items():
        adj[a] = [m if w == b else w for w in adj[a]]
        adj[b] = [m if w == a else w for w in adj[b]]
        adj[m] = [a, b]
    for v in {x for e in halves for x in e}:
        adj[v] = sorted(sorted(adj[v]), key=lambda w, v=v: _tau(coords[w] - coords[v]))
    faces = list(g.faces)
    for fi in touched:
        faces[fi] = split(faces[fi])
    # the traced order: by least directed edge, which a split may have moved
    order = sorted(range(len(faces)), key=lambda fi: faces[fi][:2])
    out = PlanarGraph(coords=coords, edges=edges, adj=adj, faces=[faces[i] for i in order],
                      outer_face=split(g.outer_face))
    new = set(halves)
    out._check_planarity(new=[n for n, e in enumerate(edges) if e in new])
    return out, order


def make_isoradial(g, epsilon=DEFAULT_EPSILON, root_hint=None):
    """Build the full isoradial structure from a radius-2 isoradial planar graph.

    Adds the arc-midpoint vertex on every boundary edge, derives the restricted
    dual, the per-edge rhombus records with consistent angle lifts, and the
    boundary rhombus pairs with the pinned left lift beta_l = alpha_r + 2 pi.
    """
    if not g.faces:
        raise IsoradialityError("graph has no bounded face")
    face_centers_pre = _validate_isoradial_faces(g.faces, g.coords)

    # face id of the unique bounded face containing a boundary edge
    edge_faces = _edge_faces(g.faces)

    boundary = sorted(g.boundary_edges())
    boundary_degree = Counter(v for e in boundary for v in e)
    for v in g.boundary_vertices():
        n_b = boundary_degree[v]
        if n_b != 2:
            raise IsoradialityError(
                f"boundary vertex {v} has {n_b} incident boundary edges (need 2)")

    coords = dict(g.coords)
    next_id = max(coords) + 1
    mid_of_edge, touched = {}, set()
    for (a, b) in boundary:
        flist = edge_faces[(a, b)]
        if len(flist) != 1:
            raise IsoradialityError(f"boundary edge {(a, b)} adjacent to {len(flist)} faces")
        touched.add(flist[0])
        c = face_centers_pre[flist[0]]
        mid = 0.5 * (coords[a] + coords[b])
        if abs(mid - c) < _GEOM_TOL:
            raise IsoradialityError(f"degenerate boundary edge {(a, b)}")
        coords[next_id] = c + RADIUS * (mid - c) / abs(mid - c)
        mid_of_edge[(a, b)] = next_id
        next_id += 1

    base, order = _split_edges(g, coords, mid_of_edge, touched)
    # the split faces gain vertices: their centres are computed again
    grown = [n for n, fi in enumerate(order) if fi in touched]
    face_centers = [face_centers_pre[fi] for fi in order]
    for n, c in zip(grown, _validate_isoradial_faces([base.faces[n] for n in grown], coords)):
        face_centers[n] = c

    # face ids adjacent to each edge of the split graph
    edge_faces2 = _edge_faces(base.faces)
    boundary2 = base.boundary_edges()

    edge_ids = {e: i for i, e in enumerate(base.edges)}
    rhombi = {}
    dual_edges = []

    def theta_of(v1, v2):
        # half-angle of the rhombus at the primal vertices
        half_chord = 0.5 * abs(coords[v2] - coords[v1])
        psi = math.asin(min(1.0, half_chord / RADIUS))
        return math.pi / 2 - psi

    def right_face(v1, v2, fi):
        c = face_centers[fi]
        return _cross(coords[v2] - coords[v1], c - coords[v1]) < 0

    for (a, b), eid in edge_ids.items():
        flist = edge_faces2[(a, b)]
        is_bnd = (a, b) in boundary2
        if is_bnd:
            if len(flist) != 1:
                raise IsoradialityError(f"boundary edge {(a, b)} face count {len(flist)}")
            fc = flist[0]
            # canonical direction with the bounded face on the right
            v1, v2 = (a, b) if right_face(a, b, fc) else (b, a)
            f1, f2 = fc, None
        else:
            if len(flist) != 2:
                raise IsoradialityError(f"inner edge {(a, b)} face count {len(flist)}")
            v1, v2 = a, b
            f1 = flist[0] if right_face(v1, v2, flist[0]) else flist[1]
            f2 = flist[1] if f1 == flist[0] else flist[0]
            dual_edges.append(((min(f1, f2), max(f1, f2)), eid))
        theta = theta_of(v1, v2)
        if not (epsilon < theta < math.pi / 2 - epsilon):
            raise IsoradialityError(
                f"edge {(a, b)}: half-angle {theta:.4f} outside ({epsilon}, pi/2-{epsilon})")
        d = _tau(coords[v2] - coords[v1])
        alpha = (d - theta) % (2.0 * math.pi)
        beta = alpha + 2.0 * theta
        rhombi[eid] = RhombusRecord(eid, v1, v2, f1, f2, theta, alpha, beta, is_bnd)

    # boundary pairs: one per midpoint vertex; re-lift the left rhombus
    pairs = []
    for vc in sorted(mid_of_edge.values()):
        nbrs = base.adj[vc]
        if len(nbrs) != 2:
            raise IsoradialityError(f"midpoint {vc} has degree {len(nbrs)}")
        x, y = nbrs
        e_x = edge_ids[(min(vc, x), max(vc, x))]
        fc = rhombi[e_x].f1
        c = face_centers[fc]
        # vl is the endpoint with fc on the right of (vl -> vc)
        if _cross(base.coords[vc] - base.coords[x], c - base.coords[x]) < 0:
            vl, vr = x, y
        else:
            vl, vr = y, x
        el = edge_ids[(min(vc, vl), max(vc, vl))]
        er = edge_ids[(min(vc, vr), max(vc, vr))]
        rl, rr = rhombi[el], rhombi[er]
        if not (rl.v1 == vl and rl.v2 == vc and rr.v1 == vc and rr.v2 == vr):
            raise IsoradialityError(f"boundary pair at {vc}: unexpected canonical directions")
        theta = rl.theta_bar
        if abs(rr.theta_bar - theta) > 1e-9:
            raise IsoradialityError(f"boundary pair at {vc}: unequal half-angles")
        # pin: beta_bar(left edge) = alpha_bar(right edge) + pi
        new_beta = rr.alpha_bar + math.pi
        shift = new_beta - rl.beta_bar
        n_turns = round(shift / (2.0 * math.pi))
        if abs(shift - 2.0 * math.pi * n_turns) > 1e-9:
            raise IsoradialityError(f"boundary pair at {vc}: lift mismatch {shift:.6f}")
        rl.alpha_bar += 2.0 * math.pi * n_turns
        rl.beta_bar += 2.0 * math.pi * n_turns
        # pair-record vectors are the from-vc quarter-rhombus vectors
        al, bl = rl.alpha_bar + math.pi, rl.beta_bar + math.pi
        ar, br = rr.alpha_bar, rr.beta_bar
        gap = 0.5 * (al - br)
        if not (2 * epsilon < gap < math.pi - 2 * epsilon):
            raise IsoradialityError(f"boundary pair at {vc}: gap {gap:.4f} out of range")
        pairs.append(BoundaryPair(vl, vc, vr, fc, el, er, theta, al, bl, ar, br))

    if not pairs:
        raise IsoradialityError("graph has no boundary pairs")

    # default root: midpoint of the boundary edge with smallest endpoint pair
    if root_hint is not None:
        if root_hint not in mid_of_edge.values():
            raise DomainError(f"root_hint {root_hint} is not a boundary midpoint vertex")
        root = root_hint
    else:
        root = mid_of_edge[min(mid_of_edge)]
    for bp in pairs:
        bp.is_root = bp.vc == root

    return IsoradialGraph(base=base, face_centers=face_centers, dual_edges=dual_edges,
                          rhombi=rhombi, edge_ids=edge_ids, boundary_pairs=pairs,
                          root=root, epsilon=epsilon)


def train_tracks(ig):
    """Maximal chains of edge-adjacent rhombi with parallel crossed sides."""
    # side slots per rhombus: 0:(v1,f1) dir alpha, 1:(f1,v2) dir beta,
    # 2:(v2,f2) dir alpha+pi, 3:(f2,v1) dir beta+pi; axes {0,2} and {1,3}.
    def side_key(eid, slot):
        r = ig.rhombi[eid]
        corners = [(r.v1, ("f", r.f1)), (("f", r.f1), r.v2),
                   (r.v2, ("f", r.f2)), (("f", r.f2), r.v1)]
        a, b = corners[slot]
        if r.f2 is None and slot in (2, 3):
            return ("virt", eid, slot)
        return ("side", tuple(sorted((a, b), key=str)))

    shared = {}
    for eid in ig.rhombi:
        for slot in range(4):
            shared.setdefault(side_key(eid, slot), []).append((eid, slot))
    for key, lst in shared.items():
        if key[0] == "side" and len(lst) > 2:
            raise IsoradialityError(f"side {key} shared by {len(lst)} rhombi")

    used = set()
    tracks = []
    for eid in sorted(ig.rhombi):
        for axis in (0, 1):
            if (eid, axis) in used:
                continue
            chain = [(eid, axis)]
            # walk forward through slot axis+2, backward through slot axis
            for start_slot, forward in ((axis + 2, True), (axis, False)):
                cur, slot = eid, start_slot
                while True:
                    key = side_key(cur, slot)
                    nxt = [t for t in shared.get(key, []) if t[0] != cur]
                    if key[0] == "virt" or not nxt:
                        break
                    cur, in_slot = nxt[0]
                    ax = in_slot % 2
                    if (cur, ax) in used or (cur, ax) in (c for c in chain):
                        break
                    if forward:
                        chain.append((cur, ax))
                    else:
                        chain.insert(0, (cur, ax))
                    slot = (in_slot + 2) % 4
            for item in chain:
                used.add(item)
            r0 = ig.rhombi[chain[0][0]]
            d = (r0.alpha_bar if chain[0][1] == 0 else r0.beta_bar) % math.pi
            tracks.append(TrainTrack(tuple(c[0] for c in chain), d))
    return tracks


def _excluded_set(ig, p, level):
    """Sorted excluded values of a level: a fresh list of a per-(p, level) tuple memo."""
    if (p, level) in ig._excl:
        return list(ig._excl[(p, level)])
    from .elliptic import angle_transform

    big_k = p.bigK
    period = 4.0 * big_k
    excl = []
    for bp in ig.boundary_pairs:
        al = angle_transform(bp.alpha_l, p)
        bl = angle_transform(bp.beta_l, p)
        if level == "prime":
            excl.append((al + 2.0 * big_k) % period)
        elif level == "doubleprime":
            for x in (al, bl):
                excl.append(x % (2.0 * big_k))
                excl.append(x % (2.0 * big_k) + 2.0 * big_k)
        elif level != "base":
            raise DomainError(f"unknown admissibility level {level!r}")
    out = []
    for x in sorted(excl):
        if not out or min(abs(x - y) for y in out) > 1e-9:
            out.append(x)
    ig._excl[(p, level)] = tuple(out)
    return out


# candidates admissible_u tests per numpy pass; most targets settle in the first block
_SEARCH_BLOCK = 256


def admissible_u(ig, p, level="base", delta=None, count=4):
    """Deterministic admissible spectral values in [0, 4K).

    Points are chosen near the even grid j*4K/count, displaced to keep a
    circular distance >= delta from the excluded set of the given level and
    from each other.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    period = 4.0 * p.bigK
    if delta is None:
        delta = p.bigK / 16.0
    if delta <= 0:
        raise DomainError("delta must be positive")
    excl = _excluded_set(ig, p, level)

    n_grid = 8192
    step = period / n_grid
    # offsets from each target in search order: 0, +1, -1, +2, -2, ...
    offs = np.arange(1, n_grid // 2 + 1)
    signed = np.zeros(2 * len(offs) + 1, dtype=np.int64)
    signed[1::2], signed[2::2] = offs, -offs
    chosen = []
    for j in range(count):
        target = period * j / count
        avoid = np.array(excl + chosen)
        found = None
        for lo in range(0, len(signed), _SEARCH_BLOCK):
            x = (target + signed[lo:lo + _SEARCH_BLOCK] * step) % period
            d = np.abs(x[:, None] - avoid[None, :]) % period
            ok = (np.minimum(d, period - d) >= delta).all(axis=1)
            if ok.any():
                found = float(x[ok.argmax()])
                break
        if found is None:
            raise InfeasibleError(
                f"cannot place {count} admissible points at margin delta={delta}")
        chosen.append(found)
    return chosen


def build_square_lattice(n, m):
    """An n x m block of unit squares scaled so every face has circumradius 2."""
    if n < 1 or m < 1:
        raise DomainError("lattice dimensions must be >= 1")
    s = RADIUS * math.sqrt(2.0)
    coords = {}
    for j in range(m + 1):
        for i in range(n + 1):
            coords[j * (n + 1) + i] = complex(i * s, j * s)
    edges = []
    for j in range(m + 1):
        for i in range(n + 1):
            vid = j * (n + 1) + i
            if i < n:
                edges.append((vid, vid + 1))
            if j < m:
                edges.append((vid, vid + n + 1))
    return PlanarGraph(coords=coords, edges=edges)


def build_hex_triangles():
    """Six equilateral triangles around a central vertex (non-square instance)."""
    s = RADIUS * math.sqrt(3.0)
    coords = {0: 0j}
    edges = []
    for i in range(6):
        coords[1 + i] = s * cmath.exp(1j * (math.pi / 6 + i * math.pi / 3))
    for i in range(6):
        edges.append((0, 1 + i))
        edges.append((1 + i, 1 + (i + 1) % 6))
    return PlanarGraph(coords=coords, edges=edges)


def build_triangle_pair():
    """Two equilateral triangles sharing an edge."""
    s = RADIUS * math.sqrt(3.0)
    h = s * math.sqrt(3.0) / 2.0
    coords = {0: 0j, 1: complex(s, 0.0), 2: complex(s / 2, h), 3: complex(s / 2, -h)}
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    return PlanarGraph(coords=coords, edges=edges)


def build_irregular_pair():
    """A triangle and a quadrilateral sharing an edge, with uneven arcs.

    All rhombus half-angles are distinct within each face, which exercises
    the angle-lift machinery far harder than the regular builders.
    """
    c1 = 0j
    ang = [math.radians(a) for a in (15.0, 130.0, 255.0)]
    v = [RADIUS * cmath.exp(1j * a) for a in ang]
    a, b = v[0], v[1]
    d = (b - a) / abs(b - a)
    proj = a + d * ((c1 - a).real * d.real + (c1 - a).imag * d.imag)
    c2 = 2.0 * proj - c1
    base = cmath.phase(c2 - c1)
    coords = {0: v[0], 1: v[1], 2: v[2],
              3: c2 + RADIUS * cmath.exp(1j * (base + 0.55)),
              4: c2 + RADIUS * cmath.exp(1j * (base - 0.70))}
    pts = {i: coords[i] for i in (0, 1, 3, 4)}
    order = sorted(pts, key=lambda i: cmath.phase(pts[i] - c2))
    edges = [(0, 1), (1, 2), (2, 0)]
    for i in range(4):
        x, y = order[i], order[(i + 1) % 4]
        if {x, y} != {0, 1}:
            edges.append((min(x, y), max(x, y)))
    return PlanarGraph(coords=coords, edges=edges)


def builder_graph(spec):
    """Resolve a builder spec string like 'square:3x2', 'hex' or 'tripair'."""
    if spec.startswith("square:"):
        try:
            n, m = (int(t) for t in spec.split(":", 1)[1].split("x"))
        except ValueError:
            raise DomainError(f"builder spec {spec!r} is not square:<n>x<m>") from None
        return build_square_lattice(n, m)
    if spec == "hex":
        return build_hex_triangles()
    if spec == "tripair":
        return build_triangle_pair()
    if spec == "irregular":
        return build_irregular_pair()
    raise DomainError(f"unknown builder spec {spec!r}")
