"""Derived graphs: the double graph, Fisher graph, quadri-tiling graph,
Kasteleyn orientations and the combinatorial bijections between their
configurations.

Vertex keys used throughout:
  primal vertex        ("v", id)
  restricted-dual face ("f", face_id)
  double-graph white   ("w", edge_id)
  quadri vertex        ("q", edge_id, corner)   corner in {1,2,3,4}
  Fisher A-vertex      ("a", face_id, vertex_id)
  Fisher B-vertex      ("b", face_id, edge_id)
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BijectionError, IsoradialityError, OracleBudgetError, OrientationError
from .isoradial import PlanarGraph


def vkey(v):
    return ("v", v)


def fkey(f):
    return ("f", f)


def wkey(e):
    return ("w", e)


# ---------------------------------------------------------------------------
# double graph
# ---------------------------------------------------------------------------

@dataclass
class DoubleGraph:
    """The double graph of an isoradial graph, optionally rooted: a view of
    the Dirac-entry layout of the edge table of ``ig`` (``layout``).

    ``whites`` are the edge ids, ``blacks`` the typed keys, primal then dual;
    in the rooted variant the root vertex and its two incident edges are
    removed.  ``gd_edges``, built from the layout on first read, maps (white
    edge_id, black key) to a record with the lifted quarter-rhombus angles
    seen from the white vertex and the kind of the black ("v" primal, "f" dual).
    """

    ig: object
    rooted: bool = True

    def __post_init__(self):
        self.whites, self.blacks = self.layout.tab.eids, self.layout.blacks
        if self.rooted and len(self.blacks) != len(self.whites):
            raise BijectionError("rooted double graph is not balanced")

    @property
    def layout(self):
        from .operators import edge_table   # operators imports this module

        return edge_table(self.ig).layout(self.rooted)

    @cached_property
    def gd_edges(self):
        lay = self.layout
        eids, angles = lay.tab.eids, lay.tab.angles
        return {(eids[e], lay.blacks[j]): {"alpha": a, "beta": b, "kind": "v" if v else "f"}
                for e, j, a, b, v in zip(lay.gd_e.tolist(), lay.gd_j.tolist(),
                                         angles[lay.gd_a].tolist(), angles[lay.gd_b].tolist(),
                                         lay.gd_v.tolist())}

    def boundary_whites(self):
        return {w for bp in self.ig.boundary_pairs for w in (bp.wl, bp.wr)}


def build_double(ig, rooted=True):
    return DoubleGraph(ig=ig, rooted=rooted)


# ---------------------------------------------------------------------------
# quadri-tiling graph
# ---------------------------------------------------------------------------

@dataclass
class FisherQuadriMap:
    """Vertex correspondences between the quadri and Fisher graphs: the
    quadri vertex on side (v, f) of rhombus e is the black of B ("b", f, e)
    (corners 1, 3) or the white of A ("a", f, v) (corners 2, 4); a black
    also has the A of its side (D_{BQ,A})."""

    b_of_black: dict = field(default_factory=dict)   # GQ black -> B key
    black_of_b: dict = field(default_factory=dict)
    a_of_white: dict = field(default_factory=dict)   # GQ white -> A key (I_{W,A})
    a_of_black: dict = field(default_factory=dict)   # GQ black -> A key (D_{BQ,A})
    white_of_a: dict = field(default_factory=dict)


# G_Q by position (see QuadriGraph)
QuadriVertices = namedtuple("QuadriVertices", "edge corner side pair fisher_b fisher_a")
QuadriEdges = namedtuple("QuadriEdges", "black white kind phase")


# a quadri vertex sits at the midpoint of its side, pulled this far toward the
# centre of its rhombus
_QUADRI_PULL = 0.25


@dataclass
class QuadriGraph:
    """The quadri-tiling graph with fixed bipartite coloring.

    Corners of the quadrangle of edge e (rhombus v1,f1,v2,f2):
      1 = side (v1,f1)   black     2 = side (v2,f1)   white
      3 = side (v2,f2)   black     4 = side (v1,f2)   white
    Boundary rhombi carry corners 1,2 only; their quadrangles are single
    edges.  ``edges`` records for every GQ edge the black endpoint, white
    endpoint, its kind ("sn", "cn", "bq", "ext") and the lifted phase angle
    (half-sum convention) of the complex Kasteleyn matrix.  ``faces`` are the
    bounded faces of the straight-line embedding ``coords``, traced by
    ``PlanarGraph``; ``fisher`` holds the correspondence with the Fisher graph.

    The graph by position, recorded while it is built (a rhombus edited
    later is not seen): ``black_at`` and ``white_at`` hold for every black
    and white, in key order, its rhombus (``edge``, an edge id, which is also
    its position in the edge table), ``corner``, boundary-pair ``side`` ("l",
    "r", or "" off the pairs) and that pair's position in
    ``ig.boundary_pairs`` (``pair``, -1 off the pairs), and the positions in
    the Fisher graph's ``vertices()`` of the B ("b", f, e) and the A
    ("a", f, v) of its side (v, f) (``fisher_b``, ``fisher_a``: both graphs
    sort their keys from ``ig`` alone); the rows of ``lifts`` are the
    :meth:`black_lifts` of the blacks; ``edge_at`` holds the black and white
    positions, ``kind`` and ``phase`` of every entry of ``edges``.
    """

    ig: object
    vertices: list = field(default_factory=list)
    blacks: list = field(default_factory=list)
    whites: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    pair_role: dict = field(default_factory=dict)   # edge_id -> ("l"|"r", BoundaryPair)
    boundary_quads: list = field(default_factory=list)  # edge ids of boundary rhombi
    coords: dict = field(default_factory=dict)
    faces: list = field(default_factory=list)
    fisher: FisherQuadriMap = field(default_factory=FisherQuadriMap)

    def __post_init__(self):
        ig = self.ig
        xy, fmap, pair_at = ig.base.coords, self.fisher, {}
        for n, bp in enumerate(ig.boundary_pairs):
            self.pair_role[bp.wl] = ("l", bp)
            self.pair_role[bp.wr] = ("r", bp)
            pair_at[bp.wl] = pair_at[bp.wr] = n

        side_members, fisher_of = {}, {}
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            corners = (1, 2) if r.f2 is None else (1, 2, 3, 4)
            centre = 0.5 * (xy[r.v1] + xy[r.v2])
            for c in corners:
                q = ("q", eid, c)
                v, f = {1: (r.v1, r.f1), 2: (r.v2, r.f1), 3: (r.v2, r.f2), 4: (r.v1, r.f2)}[c]
                self.vertices.append(q)
                side_members.setdefault((v, f), []).append(q)
                b_key, a_key = fisher_of[q] = ("b", f, eid), ("a", f, v)
                mid = 0.5 * (xy[v] + ig.face_centers[f])
                self.coords[q] = mid + _QUADRI_PULL * (centre - mid)
                if c in (1, 3):
                    self.blacks.append(q)
                    fmap.b_of_black[q], fmap.black_of_b[b_key], fmap.a_of_black[q] = b_key, q, a_key
                else:
                    self.whites.append(q)
                    fmap.a_of_white[q], fmap.white_of_a[a_key] = a_key, q

            # quadrangle edges
            t = {c: ("q", eid, c) for c in corners}
            if r.f2 is None:
                self.boundary_quads.append(eid)
                role, bp = self.pair_role[eid]
                # swapped embedding on the left: the boundary quadrangle edge is flat
                phase = (bp.beta_l + math.pi / 2 if role == "l"
                         else 0.5 * (bp.alpha_r + bp.beta_r))
                self.edges.append((t[1], t[2], "bq", phase))
                continue
            a, b = r.alpha_bar, r.beta_bar
            self.edges.append((t[1], t[2], "sn", 0.5 * (a + b)))
            self.edges.append((t[3], t[4], "sn", 0.5 * (a + b) + math.pi))
            self.edges.append((t[1], t[4], "cn", 0.5 * (a + b + math.pi)))
            self.edges.append((t[3], t[2], "cn", 0.5 * (a + b - math.pi)))

        # external edges: one per side hosting two triangles
        for s, members in sorted(side_members.items(), key=lambda kv: str(kv[0])):
            if len(members) == 1:
                continue
            if len(members) != 2:
                raise IsoradialityError(f"side {s} hosts {len(members)} triangles")
            x, y = members
            if (x in fmap.b_of_black) == (y in fmap.b_of_black):
                raise OrientationError(f"external edge at side {s} not bicolored")
            blk, wht = (x, y) if x in fmap.b_of_black else (y, x)
            _q, eid, corner = blk
            r = self.ig.rhombi[eid]
            role = self.pair_role.get(eid)
            if role and role[0] == "l" and corner == 1:
                # swapped embedding: this external edge carries the half-sum phase
                bp = role[1]
                phase = 0.5 * (bp.alpha_l + bp.beta_l)
            else:
                delta = r.alpha_bar if corner == 1 else r.alpha_bar + math.pi
                phase = delta - math.pi / 2
            self.edges.append((blk, wht, "ext", phase))

        self.vertices.sort()
        self.blacks.sort()
        self.whites.sort()
        self.faces = PlanarGraph(self.coords, [(x, y) for x, y, _, _ in self.edges]).faces

        # the Fisher graph lists its B vertices, then its A vertices, each sorted
        b_keys, a_keys = (sorted(set(keys)) for keys in zip(*fisher_of.values()))
        fisher_pos = {x: n for n, x in enumerate(b_keys + a_keys)}

        def by_position(keys):
            eid = [q[1] for q in keys]
            b, a = zip(*(fisher_of[q] for q in keys))
            return QuadriVertices(np.array(eid, dtype=np.intp),
                                  np.array([q[2] for q in keys], dtype=np.intp),
                                  np.array([self.pair_role.get(e, ("",))[0] for e in eid]),
                                  np.array([pair_at.get(e, -1) for e in eid], dtype=np.intp),
                                  np.array([fisher_pos[x] for x in b], dtype=np.intp),
                                  np.array([fisher_pos[x] for x in a], dtype=np.intp))

        self.black_at, self.white_at = by_position(self.blacks), by_position(self.whites)
        self.lifts = np.array(list(map(self.black_lifts, self.blacks)), dtype=float)
        pos = {q: n for keys in (self.blacks, self.whites) for n, q in enumerate(keys)}
        b, w, kind, phase = zip(*self.edges)
        self.edge_at = QuadriEdges(np.array([pos[x] for x in b], dtype=np.intp),
                                   np.array([pos[x] for x in w], dtype=np.intp),
                                   np.array(kind), np.array(phase, dtype=float))

    def black_lifts(self, blk):
        """The lifts (a, b) of black ``blk``: alpha and beta of its rhombus
        at corner 1, both plus pi at corner 3, and the lifts of its side of
        the boundary pair on a pair rhombus."""
        _q, eid, corner = blk
        role = self.pair_role.get(eid)
        if role is not None:
            bp = role[1]
            return (bp.alpha_l, bp.beta_l) if role[0] == "l" else (bp.alpha_r, bp.beta_r)
        r = self.ig.rhombi[eid]
        if corner == 1:
            return r.alpha_bar, r.beta_bar
        return r.alpha_bar + math.pi, r.beta_bar + math.pi


def build_quadri(ig):
    return QuadriGraph(ig=ig)


# ---------------------------------------------------------------------------
# Fisher graph
# ---------------------------------------------------------------------------

# the Fisher graph by position (see FisherGraph)
FisherEdges = namedtuple("FisherEdges", "x y eps edge")
FisherTriangles = namedtuple("FisherTriangles", "prev next eps_prev eps_next edge opp")
FisherCycles = namedtuple("FisherCycles", "ptr a eps")


@dataclass
class FisherGraph:
    """Fisher decorations over the restricted dual.

    Each decoration (one per bounded face f) is a wheel: A-vertices
    ("a", f, v) on an inner cycle indexed by the corners of the face, and
    B-vertices ("b", f, e) attached outside, one per face edge.  Triangles
    are (a_j, a_{j+1}, b_j) in CCW face order.  External edges join the two
    B-vertices of an inner primal edge; boundary B-vertices (on face edges
    that lie on the outer boundary) have no external edge.

    The graph by position in ``vertices()``, recorded while it is built:
    ``internal_at`` and ``external_at`` hold the ends ``x``, ``y``, ``eps`` =
    eps(x, y) and primal ``edge`` (-1 if internal) of every listed edge;
    ``triangle_at`` each B's ``prev`` and ``next`` A, ``eps_prev`` = eps(b,
    a_prev), ``eps_next`` = eps(b, a_next), primal ``edge`` and the B across
    its external edge (``opp``, -1 at a boundary B); ``cycle_at`` the cycles
    of ``a_cycle`` at ``a[ptr[f]:ptr[f + 1]]``, with the ``eps`` of each step.
    """

    ig: object
    a_vertices: list = field(default_factory=list)
    b_vertices: list = field(default_factory=list)
    internal_edges: list = field(default_factory=list)
    external_edges: list = field(default_factory=list)  # (bkey, bkey, edge_id)
    ext_of_b: dict = field(default_factory=dict)         # bkey -> (other bkey, edge_id)
    a_cycle: dict = field(default_factory=dict)          # f -> list of A keys, CCW
    triangles: dict = field(default_factory=dict)        # bkey -> (a_prev, a_next)
    boundary_b: set = field(default_factory=set)
    coords: dict = field(default_factory=dict)
    orientation: dict = field(default_factory=dict)      # (x, y) -> +-1
    faces: list = field(default_factory=list)

    def __post_init__(self):
        ig = self.ig
        edge_ids = ig.edge_ids
        ext_ports = {}
        for fi, cyc in enumerate(ig.base.faces):
            n = len(cyc)
            c = ig.face_centers[fi]
            # ports sit at the rhombus centers; keep the decoration well inside
            rho = min(
                abs(0.5 * (ig.base.coords[cyc[i]] + ig.base.coords[cyc[(i + 1) % n]]) - c)
                for i in range(n))
            a_keys = self.a_cycle[fi] = [("a", fi, v) for v in cyc]
            self.a_vertices += a_keys
            for key, v in zip(a_keys, cyc):
                self.coords[key] = c + 0.30 * rho * (ig.base.coords[v] - c) / abs(
                    ig.base.coords[v] - c)
            for i in range(n):
                v_a, v_b = cyc[i], cyc[(i + 1) % n]
                eid = edge_ids[(min(v_a, v_b), max(v_a, v_b))]
                bkey = ("b", fi, eid)
                self.b_vertices.append(bkey)
                mid = 0.5 * (ig.base.coords[v_a] + ig.base.coords[v_b])
                self.coords[bkey] = c + 0.60 * rho * (mid - c) / abs(mid - c)
                a_prev, a_next = a_keys[i], a_keys[(i + 1) % n]
                self.triangles[bkey] = (a_prev, a_next)
                self.internal_edges += [(a_prev, a_next), (bkey, a_prev), (bkey, a_next)]
                r = ig.rhombi[eid]
                if r.f2 is None:
                    self.boundary_b.add(bkey)
                else:
                    ext_ports.setdefault(eid, []).append(bkey)
        for eid, ports in sorted(ext_ports.items()):
            if len(ports) != 2:
                raise IsoradialityError(f"inner edge {eid} has {len(ports)} Fisher ports")
            self.external_edges.append((ports[0], ports[1], eid))
            self.ext_of_b[ports[0]] = (ports[1], eid)
            self.ext_of_b[ports[1]] = (ports[0], eid)
        self.a_vertices.sort()
        self.b_vertices.sort()

        # the faces of the straight-line embedding, then a Kasteleyn orientation
        all_edges = [e[:2] for e in self.internal_edges + self.external_edges]
        self.faces = PlanarGraph(self.coords, all_edges).faces
        self.orientation = eps = kasteleyn_orient(
            sorted(self.coords), [tuple(sorted(e, key=str)) for e in all_edges],
            self.faces)

        pos = {x: n for n, x in enumerate(self.vertices())}

        def at(keys):
            return np.array([pos[x] for x in keys], dtype=np.intp)

        def edges_at(edges):
            return FisherEdges(at(e[0] for e in edges), at(e[1] for e in edges),
                               np.array([eps[e[:2]] for e in edges], dtype=int),
                               np.array([e[2] if len(e) == 3 else -1 for e in edges],
                                        dtype=np.intp))

        self.internal_at = edges_at(self.internal_edges)
        self.external_at = edges_at(self.external_edges)
        tri = [self.triangles[b] for b in self.b_vertices]
        self.triangle_at = FisherTriangles(
            at(a for a, _ in tri), at(a for _, a in tri),
            np.array([eps[b, a] for b, (a, _) in zip(self.b_vertices, tri)], dtype=int),
            np.array([eps[b, a] for b, (_, a) in zip(self.b_vertices, tri)], dtype=int),
            np.array([b[2] for b in self.b_vertices], dtype=np.intp),
            np.array([pos[self.ext_of_b[b][0]] if b in self.ext_of_b else -1
                      for b in self.b_vertices], dtype=np.intp))
        steps = [(c[i], c[(i + 1) % len(c)]) for c in self.a_cycle.values() for i in range(len(c))]
        self.cycle_at = FisherCycles(np.cumsum([0] + [len(c) for c in self.a_cycle.values()]),
                                     at(a for a, _ in steps),
                                     np.array([eps[s] for s in steps], dtype=int))

    def vertices(self):
        return self.b_vertices + self.a_vertices

    def eps(self, x, y):
        return self.orientation[(x, y)]

    def degree_check(self):
        """Internal degree 2 at every B vertex and 4 at every A vertex."""
        it, nb, na = self.internal_at, len(self.b_vertices), len(self.a_vertices)
        deg = np.bincount(np.concatenate((it.x, it.y)), minlength=nb + na)
        bad = np.flatnonzero(deg != np.repeat([2, 4], (nb, na)))
        if len(bad):
            raise IsoradialityError(f"vertex {self.vertices()[bad[0]]} internal degree "
                                    f"{deg[bad[0]]}")


def build_fisher(ig):
    for cyc in ig.base.faces:
        if len(cyc) < 3:
            raise IsoradialityError("face of length < 3")
    fg = FisherGraph(ig=ig)
    fg.degree_check()
    return fg


def kasteleyn_orient(vertices, edges, faces):
    """Edge orientation with every bounded face clockwise odd.

    Orients a BFS spanning tree from the str-smallest vertex away from it,
    then fixes the remaining edges face by face (each step a face with
    exactly one undecided edge is resolved).  Returns the antisymmetric sign
    map (x, y) -> +-1.
    """
    vs, es = list(vertices), [tuple(e) for e in edges]
    adj = {}
    for i, (x, y) in enumerate(es):
        adj.setdefault(x, []).append((y, i))
        adj.setdefault(y, []).append((x, i))
    root = min(vs, key=str)
    seen, queue, orient = {root}, [root], {}     # orient: edge index -> (tail, head)
    for x in queue:
        for y, i in sorted(adj.get(x, []), key=lambda t: (str(t[0]), t[1])):
            if y not in seen:
                seen.add(y)
                orient[i] = es[i]
                queue.append(y)
    if len(seen) != len(vs):
        raise IsoradialityError("graph is not connected")
    eindex = {p: i for i, (x, y) in enumerate(es) for p in ((x, y), (y, x))}
    done, progress = set(), True
    while progress:
        progress = False
        for fi, f in enumerate(faces):
            if fi in done:
                continue
            cw = [(f[(j + 1) % len(f)], f[j]) for j in range(len(f))]   # the CCW cycle reversed
            missing = [p for p in cw if eindex[p] not in orient]
            if len(missing) != 1:
                continue
            # the missing edge runs clockwise iff an even count of the others does
            n_co = sum(orient.get(eindex[p]) == p for p in cw)
            orient[eindex[missing[0]]] = missing[0] if n_co % 2 == 0 else missing[0][::-1]
            done.add(fi)
            progress = True
    if len(orient) != len(es):
        raise OrientationError(f"{len(es) - len(orient)} edges left unoriented")
    eps = {}
    for i, (x, y) in enumerate(es):
        sign = 1 if orient[i] == (x, y) else -1
        eps[(x, y)], eps[(y, x)] = sign, -sign
    check_clockwise_odd(eps, faces)
    return eps


def check_clockwise_odd(eps, faces):
    for f in faces:
        # clockwise traversal
        if sum(eps[f[(j + 1) % len(f)], f[j]] == 1 for j in range(len(f))) % 2 != 1:
            raise OrientationError(f"face {f} is not clockwise odd")


# ---------------------------------------------------------------------------
# Fisher <-> quadri correspondence and induced orientation
# ---------------------------------------------------------------------------

def fisher_quadri_map(qg):
    """The Fisher correspondence of ``qg``, filled while ``qg`` was built."""
    return qg.fisher


def induce_orientation_GQ(fg, qg):
    """Induced Kasteleyn orientation of the quadri graph from the Fisher one.

    For a black b with Fisher data (b, a, a') and opposite record (b', a''):
    eps(b_hat, w_ext) = eps(b, a); eps(b_hat, w_sn) = eps(b, a');
    eps(b_hat, w_cn) = eps(b, b') eps(b', a'').  Verified clockwise odd.
    """
    fqm = fisher_quadri_map(qg)
    eps_f = fg.eps
    eps_q = {}
    for blk, wht, kind, _ in qg.edges:
        b = fqm.b_of_black[blk]
        a_ext = fqm.a_of_black[blk]           # A at the external side of blk
        a_prev, a_next = fg.triangles[b]
        a_other = a_next if a_ext == a_prev else a_prev
        if a_ext not in (a_prev, a_next):
            raise OrientationError(f"black {blk}: external A not in its triangle")
        if kind == "ext":
            val = eps_f(b, a_ext)
        elif kind in ("sn", "bq"):
            val = eps_f(b, a_other)
        elif kind == "cn":
            # b' = the B across the external Fisher edge; a'' = A of the
            # opposite white's external side
            b_op = fg.ext_of_b[b][0]
            a_opp = fqm.a_of_white[wht]
            val = eps_f(b, b_op) * eps_f(b_op, a_opp)
        else:
            raise OrientationError(f"unknown edge kind {kind}")
        eps_q[(blk, wht)] = val
        eps_q[(wht, blk)] = -val
    check_clockwise_odd(eps_q, qg.faces)
    return eps_q


# ---------------------------------------------------------------------------
# Temperley / KPW bijection
# ---------------------------------------------------------------------------

class TemperleyMap:
    """Edge- and configuration-level Temperley bijection on a rooted double graph."""

    def __init__(self, dg):
        if not dg.rooted:
            raise BijectionError("Temperley map needs the rooted double graph")
        self.dg = dg
        self.ig = dg.ig

    def edge_image(self, w, black):
        """Directed primal/dual edge corresponding to the double-graph edge."""
        ig = self.ig
        r = ig.rhombi[w]
        if black[0] == "v":
            v = black[1]
            other = r.v2 if v == r.v1 else r.v1
            return ("v", v, other)
        f = black[1]
        if r.f2 is None:
            if f != r.f1:
                raise BijectionError("dual edge image mismatch")
            return ("f", f, "outer")
        other = r.f2 if f == r.f1 else r.f1
        return ("f", f, other)

    def matching_to_trees(self, matching):
        """Matching -> (primal r-directed tree, dual outer-directed tree)."""
        ig = self.ig
        prim_out, dual_out = {}, {}
        for (w, black) in matching:
            img = self.edge_image(w, black)
            if img[0] == "v":
                prim_out[img[1]] = (img[2], w)
            else:
                dual_out[img[1]] = (img[2], w)
        self._check_tree(prim_out, ig.root, set(ig.base.coords), "primal")
        self._check_tree(dual_out, "outer",
                         set(range(len(ig.face_centers))) | {"outer"}, "dual")
        return prim_out, dual_out

    @staticmethod
    def _check_tree(out_map, root, vertices, name):
        for v in vertices:
            if v == root:
                if v in out_map:
                    raise BijectionError(f"{name} root has an out-edge")
                continue
            if v not in out_map:
                raise BijectionError(f"{name} vertex {v} has no out-edge")
        for v in vertices:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen:
                    raise BijectionError(f"{name} image contains a cycle through {v}")
                seen.add(cur)
                cur = out_map[cur][0]

    def trees_to_matching(self, prim_out, dual_out):
        """(tree, dual tree) -> matching of the rooted double graph."""
        ig = self.ig
        matching = set()
        for v, (v2, _w) in prim_out.items():
            eid = ig.edge_ids[(min(v, v2), max(v, v2))]
            matching.add((eid, vkey(v)))
        for f, (f2, w) in dual_out.items():
            matching.add((w, fkey(f)))
        covered = [w for (w, _b) in matching]
        if sorted(covered) != sorted(self.dg.whites):
            raise BijectionError("tree pair does not cover every white vertex")
        return matching


def temperley_map(dg):
    return TemperleyMap(dg)


def reference_matching_M1(dg):
    """The reference matching built from a BFS dual spanning tree rooted at
    the face next to the root, plus the induced black/white partition of the
    quadri graph.

    Returns (matching, partition) where partition maps "B1","B2","W1","W2"
    (and boundary sub-lists "B1d","W1d") to lists of quadri vertex keys.
    """
    ig = dg.ig
    tm = temperley_map(dg)
    root_pair = ig.root_pair()
    fc_root = root_pair.fc

    # BFS tree of the restricted dual from fc_root
    dual_adj = {}
    for (fa, fb), eid in ig.dual_edges:
        dual_adj.setdefault(fa, []).append((fb, eid))
        dual_adj.setdefault(fb, []).append((fa, eid))
    parent = {fc_root: None}
    order = [fc_root]
    for f in order:
        for g, eid in sorted(dual_adj.get(f, [])):
            if g not in parent:
                parent[g] = (f, eid)
                order.append(g)
    if len(parent) != len(ig.face_centers):
        raise BijectionError("restricted dual is not connected")

    dual_out = {f: ("outer", root_pair.wl) if par is None else par
                for f, par in parent.items()}
    crossed = {w for (_f, w) in dual_out.values()}
    # primal complement tree, directed toward the root
    prim_edges = [eid for eid in ig.edge_list() if eid not in crossed]
    adj = {}
    for eid in prim_edges:
        r = ig.rhombi[eid]
        adj.setdefault(r.v1, []).append((r.v2, eid))
        adj.setdefault(r.v2, []).append((r.v1, eid))
    parent_v = {ig.root: None}
    stack = [ig.root]
    while stack:
        v = stack.pop()
        for w, eid in sorted(adj.get(v, [])):
            if w not in parent_v:
                parent_v[w] = (v, eid)
                stack.append(w)
    if len(parent_v) != len(ig.base.coords):
        raise BijectionError("primal complement is not spanning")
    prim_out = {v: (pw[0], pw[1]) for v, pw in parent_v.items() if pw is not None}

    # fixed iteration order: summation order must not depend on hash seeds
    matching = tuple(sorted(tm.trees_to_matching(prim_out, dual_out)))

    # partition of quadri vertices: the G_Q edge crossing the matched double-graph
    # edge of each inner white, as (black corner, white corner); one entry per
    # edge in edge order keeps each list sorted
    part = {"B1": [], "B2": [], "W1": [], "W2": [], "B1d": [], "W1d": []}
    match_by_white = {w: black for (w, black) in matching}
    for eid in ig.edge_list():
        r = ig.rhombi[eid]
        if r.f2 is None:
            part["B1"].append(("q", eid, 1))
            part["W1"].append(("q", eid, 2))
            part["B1d"].append(("q", eid, 1))
            part["W1d"].append(("q", eid, 2))
            continue
        c_b, c_w = {fkey(r.f1): (1, 2), fkey(r.f2): (3, 4),
                    vkey(r.v1): (1, 4), vkey(r.v2): (3, 2)}[match_by_white[eid]]
        part["B1"].append(("q", eid, c_b))
        part["W1"].append(("q", eid, c_w))
        part["B2"].append(("q", eid, 4 - c_b))
        part["W2"].append(("q", eid, 6 - c_w))
    return matching, part


def fisher_polygon_map(fg, matching):
    """External edges of a Fisher matching as a polygon configuration of the dual."""
    ext_lookup = {tuple(sorted((x, y), key=str)): eid for x, y, eid in fg.external_edges}
    ext = {ext_lookup[key] for key in (tuple(sorted(e, key=str)) for e in matching)
           if key in ext_lookup}
    # polygon configurations have even degree at every dual vertex
    dual_deg = {}
    for (fa, fb), eid in fg.ig.dual_edges:
        if eid in ext:
            dual_deg[fa] = dual_deg.get(fa, 0) + 1
            dual_deg[fb] = dual_deg.get(fb, 0) + 1
    for f, d in dual_deg.items():
        if d % 2 != 0:
            raise BijectionError(f"odd polygon degree at dual vertex {f}")
    return ext


# ---------------------------------------------------------------------------
# frontier (transfer-matrix) sums: the matching, polygon, spin and forest oracles
# ---------------------------------------------------------------------------

def _edge_order(vertices, ends, start=None):
    """The str-sorted vertices, their positions and the BFS order of the edges.

    ``ends`` holds each edge's ends as a tuple.  Vertices are visited in BFS
    order from ``start``, then from the str-smallest unvisited one,
    neighbours in str order, and an edge is taken when the BFS reaches the
    last of its ends.
    """
    vs = sorted(vertices, key=str)
    pos = {v: i for i, v in enumerate(vs)}
    ends = [[pos[x] for x in e] for e in ends]
    nbr = [[] for _ in vs]
    for idx, e in enumerate(ends):
        for i, x in enumerate(e):
            nbr[x] += [(y, idx) for j, y in enumerate(e) if j != i]
    order, seen, reached = {}, [False] * len(vs), [False] * len(vs)   # order: an ordered set
    for root in ([] if start is None else [pos[start]]) + list(range(len(vs))):
        queue = [] if seen[root] else [root]
        seen[root] = True
        for x in queue:
            reached[x] = True
            for y, idx in sorted(nbr[x]):
                if all(reached[z] for z in ends[idx]) and idx not in order:
                    order[idx] = None
                elif not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return vs, pos, list(order)


def _frontier_sum(vertices, edges, weights, rule, budget, marginals=False):
    """Exact sum over the edge subsets that meet a degree rule at every vertex.

    A transfer-matrix sum (Baxter, *Exactly Solved Models*, 1982) over the
    edges in the order of ``_edge_order``: a table maps a frontier bitmask to
    the exact count and the weight behind it.  A vertex leaves after its last edge and must then meet ``rule``:
    ``"matching"`` takes an edge only between free ends and asks degree 1;
    ``"even"`` flips the parity of both ends and asks even degree.
    ``weights`` holds one weight per edge (1 when ``None``).  Returns (count,
    weighted_sum, per-edge weighted sums or None); these come from the
    forward tables and one backward pass.  Raises ``OracleBudgetError`` once
    the states created over all steps exceed ``budget``.
    """
    vs, pos, order = _edge_order(vertices, edges)
    matching = rule == "matching"
    if matching and len({x for e in edges for x in e}) < len(vs):
        return 0, 0.0, [0.0] * len(edges) if marginals else None
    # per step: both ends, the ends leaving (no later edge), the bits they must carry, weight
    steps, later = [], 0
    for idx in reversed(order):
        both = 1 << pos[edges[idx][0]] | 1 << pos[edges[idx][1]]
        out = both & ~later
        steps.append((both, out, out if matching else 0,
                      1.0 if weights is None else weights[idx]))
        later |= both
    steps.reverse()

    def moves(mask, both, out, need):
        """(next state, edge taken) for skipping and taking the edge, where the rule allows."""
        nxt = [(mask, False)] + ([] if matching and mask & both else [(mask ^ both, True)])
        return [(m ^ need, taken) for m, taken in nxt if m & out == need]

    count, weight, history, created = {0: 1}, {0: 1.0}, [], 0
    for both, out, need, w in steps:
        if marginals:
            history.append(weight)
        count2, weight2 = {}, {}
        for mask, c in count.items():
            for nxt, taken in moves(mask, both, out, need):
                count2[nxt] = count2.get(nxt, 0) + c
                weight2[nxt] = weight2.get(nxt, 0.0) + (weight[mask] * w if taken else weight[mask])
        created += len(count2)
        if created > budget:
            raise OracleBudgetError(f"frontier sum exceeded {budget} states")
        count, weight = count2, weight2
    if not marginals:
        return count.get(0, 0), weight.get(0, 0.0), None
    marg, back = [0.0] * len(edges), {0: 1.0}
    for t in reversed(range(len(steps))):
        both, out, need, w = steps[t]
        prev = {}
        for mask, s in history[t].items():
            prev[mask] = 0.0
            for nxt, taken in moves(mask, both, out, need):
                tail = back.get(nxt, 0.0) * (w if taken else 1.0)
                if taken:
                    marg[order[t]] += s * tail
                prev[mask] += tail
        back = prev
    return count.get(0, 0), weight.get(0, 0.0), marg


def enumerate_matchings(vertices, edges, weights=None, budget=10 ** 6,
                        marginals=False):
    """Weighted perfect-matching sum by the frontier sum.

    ``budget`` bounds the frontier states.  Returns (count,
    weighted_sum[, per-edge weighted sums]).
    """
    count, total, marg = _frontier_sum(vertices, edges, weights, "matching",
                                       budget, marginals)
    return (count, total, marg) if marginals else (count, total)


def _forest_sum(vertices, groups, roots, budget, start=None):
    """Exact (count, weighted sum) of the rooted spanning forests of a directed
    graph whose arcs (x, y, weight) come in ``groups``, a list of arc lists.

    A forest takes at most one arc per group and one out-arc from every
    vertex that does not root, closes no cycle, and roots v with weight
    ``roots[v]``; a vertex that is no key of ``roots`` cannot root.  The
    transfer-matrix scheme of ``_frontier_sum``, over the groups in the order
    of ``_edge_order`` from ``start``, on connectivity states (Kawahara et
    al., *IEICE Trans.* 2017): each frontier vertex has a component label and
    a head flag, the head being the component's one vertex without an
    out-arc yet.  An arc x -> y needs x a head and y in another component; a
    head that leaves the frontier roots.  Raises ``OracleBudgetError`` once
    the states created over all steps exceed ``budget``.
    """
    ends = [tuple(dict.fromkeys(v for x, y, _w in g for v in (x, y))) for g in groups]
    order = _edge_order(vertices, ends, start)[2]
    last = {v: t for t, idx in enumerate(order) for v in ends[idx]}
    isolated = [v for v in vertices if v not in last]     # no arc: each roots
    if any(v not in roots for v in isolated):
        return 0, 0.0
    # a state holds 2 * label + head per frontier vertex, labels numbered in order
    front, created = [], 0
    table = {(): (1, math.prod((roots[v] for v in isolated), start=1.0))}
    for t, idx in enumerate(order):
        new = [v for v in ends[idx] if v not in front]
        front += new
        slot = {v: i for i, v in enumerate(front)}
        arcs = [(slot[x], slot[y], w) for x, y, w in groups[idx]]
        leave = [(slot[v], roots.get(v)) for v in ends[idx] if last[v] == t]
        keep = [i for i, v in enumerate(front) if last[v] != t]
        fresh = [2 * i + 1 for i in range(len(front) - len(new), len(front))]
        table2 = {}
        for state, (c, w) in table.items():
            lab = list(state) + fresh
            nexts = [(lab, w)]
            for x, y, rho in arcs:
                if lab[x] & 1 and lab[x] >> 1 != lab[y] >> 1:
                    old, to = lab[x] >> 1, lab[y] >> 1
                    nexts.append(([2 * to if e >> 1 == old else e for e in lab], w * rho))
            for lab2, w2 in nexts:
                for i, mass in leave:
                    if lab2[i] & 1:
                        if mass is None:
                            break
                        w2 *= mass
                else:
                    names = {}
                    key = tuple([2 * names.setdefault(lab2[i] >> 1, len(names)) + (lab2[i] & 1)
                                 for i in keep])
                    c0, w0 = table2.get(key, (0, 0.0))
                    table2[key] = (c0 + c, w0 + w2)
        created += len(table2)
        if created > budget:
            raise OracleBudgetError(f"frontier sum exceeded {budget} states")
        front = [front[i] for i in keep]
        table = table2
    return table.get((), (0, 0.0))
