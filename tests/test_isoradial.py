"""Planar graph machinery, isoradiality validation and angle lifts."""

import json
import math
import re

import numpy as np
import pytest

from isodimer import isoradial as iso
from isodimer.elliptic import complete_integrals
from isodimer.errors import (
    DomainError,
    EmbeddingError,
    InfeasibleError,
    IsoradialityError,
    ParseError,
)


def square_json():
    s = 2.0 * math.sqrt(2.0)
    return json.dumps({
        "radius": 2.0,
        "vertices": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": s, "y": 0.0},
                     {"id": 2, "x": s, "y": s}, {"id": 3, "x": 0.0, "y": s}],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    })


def test_load_graph_square():
    g = iso.load_graph(square_json())
    assert len(g.coords) == 4
    assert len(g.faces) == 1
    assert len(g.outer_face) == 4


def test_load_graph_two_triangles():
    g = iso.build_triangle_pair()
    assert len(g.faces) == 2
    assert len(g.outer_face) == 4
    # round-trip through the JSON interface
    g2 = iso.load_graph(iso.dump_graph(g))
    assert g2.edges == g.edges


def test_load_graph_crossing_edges():
    data = json.loads(square_json())
    data["vertices"].append({"id": 4, "x": 1.0, "y": -1.0})
    data["vertices"].append({"id": 5, "x": 1.0, "y": 4.0})
    data["edges"].append([4, 5])
    with pytest.raises(EmbeddingError):
        iso.load_graph(json.dumps(data))


def test_load_graph_parse_errors():
    with pytest.raises(ParseError):
        iso.load_graph(b"{not json")
    with pytest.raises(ParseError):
        iso.load_graph(json.dumps({"radius": 1.0, "vertices": [], "edges": []}))


def test_load_graph_rejects_nan_radius_and_bad_ids():
    def bad(edit):
        data = json.loads(square_json())
        edit(data)
        with pytest.raises(ParseError):
            iso.load_graph(json.dumps(data))

    bad(lambda d: d.update(radius=float("nan")))
    # a repeated id must not let the later entry silently win
    bad(lambda d: d["vertices"].insert(0, {"id": 3, "x": 99.0, "y": -7.0}))
    bad(lambda d: d["vertices"][1].update(id=1.7))
    bad(lambda d: d["vertices"][1].update(id=float("inf")))
    bad(lambda d: d["edges"].append([0, 2.5]))
    # an integral float id is still an id
    data = json.loads(square_json())
    data["vertices"][1]["id"] = 1.0
    assert sorted(iso.load_graph(json.dumps(data)).coords) == [0, 1, 2, 3]


def test_build_square_lattice_counts():
    g = iso.build_square_lattice(1, 1)
    assert (len(g.coords), len(g.edges), len(g.faces)) == (4, 4, 1)
    g = iso.build_square_lattice(2, 2)
    assert (len(g.coords), len(g.edges), len(g.faces)) == (9, 12, 4)
    with pytest.raises(DomainError):
        iso.build_square_lattice(0, 1)


def test_make_isoradial_basics(ig_2x2):
    ig = ig_2x2
    assert len(ig.base.coords) == 17
    assert len(ig.base.edges) == 20
    assert len(ig.face_centers) == 4
    # Euler |E| = |V| + |V*| - 1
    assert len(ig.base.edges) == len(ig.base.coords) + len(ig.face_centers) - 1
    inner = [r for r in ig.rhombi.values() if not r.boundary]
    assert all(abs(r.theta_bar - math.pi / 4) < 1e-12 for r in inner)
    # boundary pairs have equal half-angles; the arc-midpoint construction
    # gives 3 pi/8 on square lattices
    for bp in ig.boundary_pairs:
        assert abs(bp.theta_bar - 3.0 * math.pi / 8) < 1e-12
        assert abs(bp.beta_l - bp.alpha_r - 2.0 * math.pi) < 1e-12
        gap = 0.5 * (bp.alpha_l - bp.beta_r)
        assert 2 * ig.epsilon < gap < math.pi - 2 * ig.epsilon


def test_make_isoradial_root_rule():
    g = iso.build_square_lattice(2, 2)
    ig = iso.make_isoradial(g)
    # default root = midpoint of the lexicographically smallest boundary edge
    first_boundary = min(g.boundary_edges())
    mids = [bp.vc for bp in ig.boundary_pairs
            if {bp.vl, bp.vr} == set(first_boundary)]
    assert ig.root == mids[0]
    other = [bp.vc for bp in ig.boundary_pairs if bp.vc != ig.root][0]
    ig2 = iso.make_isoradial(g, root_hint=other)
    assert ig2.root == other
    with pytest.raises(DomainError):
        iso.make_isoradial(g, root_hint=0)


def test_make_isoradial_rejects_thin_angle():
    # two faces sharing a near-diameter chord: the shared inner edge has
    # theta = 0.01 < epsilon (boundary edges are immune: the arc midpoint
    # halves their central angle)
    theta = 0.01
    psi = math.pi / 2 - theta
    a, h = 2.0 * math.sin(psi), 2.0 * math.cos(psi)
    g = iso.PlanarGraph(
        coords={0: complex(-a, h), 1: complex(a, h), 2: complex(0.0, -2.0),
                3: complex(0.0, 2.0 * h + 2.0)},
        edges=[(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)])
    with pytest.raises(IsoradialityError):
        iso.make_isoradial(g)


def test_make_isoradial_rejects_non_isoradial():
    g = iso.PlanarGraph(coords={0: 0j, 1: 1 + 0j, 2: 1 + 1j, 3: 0 + 1j},
                        edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(IsoradialityError):
        iso.make_isoradial(g)


def test_dual_is_isoradial(ig_hex):
    # every interior primal vertex is the circumcenter of its dual face
    ig = ig_hex
    boundary = ig.base.boundary_vertices()
    for v in ig.base.coords:
        if v in boundary:
            continue
        for w in ig.base.adj[v]:
            eid = ig.edge_ids[(min(v, w), max(v, w))]
            r = ig.rhombi[eid]
            for f in (r.f1, r.f2):
                if f is not None:
                    assert abs(abs(ig.face_centers[f] - ig.base.coords[v]) - 2.0) < 1e-9


def test_train_tracks_invariants(ig_2x2, ig_hex):
    for ig in (ig_2x2, ig_hex):
        tracks = iso.train_tracks(ig)
        counts = {}
        for t in tracks:
            for e in t.rhombi:
                counts[e] = counts.get(e, 0) + 1
        # each rhombus belongs to exactly two tracks
        assert set(counts.values()) == {2}
        for t in tracks:
            # all crossed sides of a chain are parallel
            assert 0.0 <= t.direction < math.pi


def test_train_track_counts_square():
    # split n x m lattices carry 2(n+m) boundary mini-chains plus 2(n+m)
    # diagonal chains; the idealized unsplit count n+m differs by this
    # boundary convention
    for n, m in ((1, 1), (2, 2), (3, 2)):
        ig = iso.make_isoradial(iso.build_square_lattice(n, m))
        assert len(iso.train_tracks(ig)) == 4 * (n + m)


def test_admissible_u_levels(ig_2x2):
    p = complete_integrals(0.5)
    us = iso.admissible_u(ig_2x2, p, "base", count=4)
    K = p.bigK
    assert np.allclose(us, [0.0, K, 2 * K, 3 * K])
    excl = iso._excluded_set(ig_2x2, p, "doubleprime")
    us = iso.admissible_u(ig_2x2, p, "doubleprime", delta=K / 16, count=4)
    for u in us:
        for e in excl:
            d = abs((u - e) % (4 * K))
            assert min(d, 4 * K - d) >= K / 16 - 1e-12
    with pytest.raises(InfeasibleError):
        iso.admissible_u(ig_2x2, p, "doubleprime", delta=2.0 * K, count=4)


def _admissible_u_reference(ig, p, level, delta, count):
    # the scalar grid search admissible_u evaluates in numpy blocks
    period = 4.0 * p.bigK
    excl = iso._excluded_set(ig, p, level)

    def circ_dist(a, b):
        d = abs(a - b) % period
        return min(d, period - d)

    n_grid = 8192
    step = period / n_grid
    chosen = []
    for j in range(count):
        target = period * j / count
        found = None
        for off in range(n_grid // 2 + 1):
            for sgn in (1, -1) if off else (1,):
                x = (target + sgn * off * step) % period
                if all(circ_dist(x, e) >= delta for e in excl + chosen):
                    found = x
                    break
            if found is not None:
                break
        if found is None:
            raise InfeasibleError("no admissible point")
        chosen.append(found)
    return chosen


def test_admissible_u_matches_scalar_search():
    from conftest import get_graph

    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex"):
        ig = get_graph(spec)
        for k in (0.0, 0.3, 0.6, 0.9):
            p = complete_integrals(k)
            for level in ("base", "prime", "doubleprime"):
                for delta, count in ((p.bigK / 16, 4), (p.bigK / 4, 3)):
                    try:
                        want = _admissible_u_reference(ig, p, level, delta, count)
                    except InfeasibleError:
                        with pytest.raises(InfeasibleError):
                            iso.admissible_u(ig, p, level, delta=delta, count=count)
                        continue
                    got = iso.admissible_u(ig, p, level, delta=delta, count=count)
                    assert all(type(x) is float for x in got)
                    assert [x.hex() for x in got] == [x.hex() for x in want], (
                        spec, k, level, delta)
            with pytest.raises(InfeasibleError):
                _admissible_u_reference(ig, p, "doubleprime", 2.0 * p.bigK, 4)
            with pytest.raises(InfeasibleError):
                iso.admissible_u(ig, p, "doubleprime", delta=2.0 * p.bigK, count=4)


def test_admissible_excluded_set_square(ig_2x2):
    # boundary half-rhombi of the square lattice exclude all multiples of K/2
    p = complete_integrals(0.5)
    excl = iso._excluded_set(ig_2x2, p, "doubleprime")
    expected = {round(j * p.bigK / 2, 9) % round(4 * p.bigK, 9) for j in range(8)}
    assert {round(e, 9) for e in excl} <= {round(j * p.bigK / 2, 9) for j in range(9)}
    assert len(excl) >= 8


def test_excluded_set_memo_is_not_aliased():
    # computed once per (p, level) on the graph; callers get their own list
    ig = iso.make_isoradial(iso.builder_graph("hex"))
    p = complete_integrals(0.6)
    first = iso._excluded_set(ig, p, "prime")
    assert list(ig._excl) == [(p, "prime")]
    first.append(-1.0)
    assert iso._excluded_set(ig, p, "prime") == first[:-1]
    assert iso._excluded_set(ig, p, "doubleprime") != first[:-1]
    assert len(ig._excl) == 2
    assert iso.admissible_u(ig, p, "prime", count=3) == iso.admissible_u(ig, p, "prime", count=3)


def _first_crossing_all_pairs(coords, edges):
    es = sorted((min(a, b), max(a, b)) for a, b in edges)
    for i, (a, b) in enumerate(es):
        for c, d in es[i + 1:]:
            if len({a, b, c, d}) == 4 and iso._seg_intersect(
                    coords[a], coords[b], coords[c], coords[d]):
                return f"edges {(a, b)} and {(c, d)} cross"
    return None


def test_grid_planarity_matches_all_pairs_scan():
    # A comb of 40 short teeth and one long edge, listed last, that sets the
    # grid's cell size and crosses the teeth from x = 25 on, far from its
    # own endpoints: the check names the first crossing pair in edge order.
    coords, edges = {}, []
    for i in range(40):
        coords[2 * i], coords[2 * i + 1] = complex(i, -0.2), complex(i, 0.2)
        edges.append((2 * i, 2 * i + 1))
    coords[80], coords[81] = complex(24.5, 0.1), complex(90.0, 0.1)
    edges.append((80, 81))
    with pytest.raises(EmbeddingError, match=r"edges \(50, 51\) and \(80, 81\) cross"):
        iso.PlanarGraph(coords=coords, edges=edges)
    assert _first_crossing_all_pairs(coords, edges) == "edges (50, 51) and (80, 81) cross"
    # random segments of mixed lengths, many crossing pairs each
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 40
        pts = rng.uniform(0.0, 30.0, size=(n, 2))
        ends = pts + rng.normal(size=(n, 2)) * rng.choice([0.3, 2.0, 12.0], size=(n, 1))
        coords = {}
        for i in range(n):
            coords[2 * i] = complex(*pts[i])
            coords[2 * i + 1] = complex(*ends[i])
        edges = [(2 * i, 2 * i + 1) for i in range(n)]
        expected = _first_crossing_all_pairs(coords, edges)
        assert expected is not None
        with pytest.raises(EmbeddingError) as err:
            iso.PlanarGraph(coords=coords, edges=edges)
        assert str(err.value) == expected
    ig = iso.make_isoradial(iso.builder_graph("square:2x2"))
    assert ig.graph_hash() == "ac6628466058"


def test_planarity_rejects_non_finite_coordinates():
    for bad in (float("nan"), float("inf")):
        coords = {0: 0j, 1: complex(1.0, 0.0), 2: complex(bad, 1.0)}
        with pytest.raises(EmbeddingError, match="non-finite"):
            iso.PlanarGraph(coords=coords, edges=[(0, 1), (1, 2), (0, 2)])


# sha1 of the rhombus records, boundary pairs, face centres and dual edges,
# as the split graph derived from scratch gave them
_RECORD_DIGESTS = {"square:1x1": "149af1fe2902", "square:2x2": "e7608cd7af13",
                   "square:4x3": "fa1562bdf2a1", "square:16x16": "f632102537ec",
                   "hex": "186e4e6df662", "tripair": "9d50011de817",
                   "irregular": "c419290e27e6"}


def _flipped_pair():
    """Two triangles on the edge (0, 2) whose bounded faces start at 0; the
    first starts on the boundary edge (0, 1), so the split reorders them."""
    s = iso.RADIUS * math.sqrt(3.0)
    h = s * math.sqrt(3.0) / 2.0
    coords = {0: 0j, 1: complex(s / 2, -h), 2: complex(s, 0.0), 3: complex(s / 2, h)}
    return iso.PlanarGraph(coords=coords, edges=[(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])


def test_split_graph_matches_a_full_derivation():
    import hashlib

    g = _flipped_pair()
    assert [f[:2] for f in g.faces] == [(0, 1), (0, 2)]
    for spec, digest in [*_RECORD_DIGESTS.items(), (g, None)]:
        ig = iso.make_isoradial(spec if digest is None else iso.builder_graph(spec))
        base = ig.base
        ref = iso.PlanarGraph(dict(base.coords), list(base.edges))
        assert base.edges == ref.edges, spec
        assert list(base.adj.items()) == list(ref.adj.items()), spec
        assert base.faces == ref.faces and base.outer_face == ref.outer_face, spec
        centres = iso._validate_isoradial_faces(ref.faces, ref.coords)
        assert [(c.real, c.imag) for c in ig.face_centers] == [(c.real, c.imag) for c in centres]
        if digest is None:
            assert [f[:2] for f in base.faces] == [(0, 2), (0, 4)]
            continue
        blob = repr(([vars(ig.rhombi[e]) for e in ig.edge_list()],
                     [vars(bp) for bp in ig.boundary_pairs], ig.face_centers, ig.dual_edges))
        assert hashlib.sha1(blob.encode()).hexdigest()[:12] == digest, spec


def test_midpoint_edges_are_checked_for_crossings(monkeypatch):
    # the split graph tests its new edges only: a crossing reported there raises
    for spec in ("square:2x2", "hex"):
        g = iso.builder_graph(spec)
        monkeypatch.setattr(iso, "_seg_intersect", lambda p1, p2, q1, q2: np.ones(len(p1), bool))
        with pytest.raises(EmbeddingError, match="cross") as err:
            iso.make_isoradial(g)
        monkeypatch.undo()
        named = [int(x) for x in re.findall(r"\d+", str(err.value))]
        assert max(named) > max(g.coords), str(err.value)


def test_graph_hash_depends_on_root():
    g = iso.build_square_lattice(2, 2)
    ig1 = iso.make_isoradial(g)
    other = [bp.vc for bp in ig1.boundary_pairs if bp.vc != ig1.root][0]
    ig2 = iso.make_isoradial(g, root_hint=other)
    assert ig1.graph_hash() != ig2.graph_hash()


def test_graph_hash_values_stable():
    # the digest is cached per graph and keeps its published values
    for spec, digest in (("square:2x2", "ac6628466058"), ("square:4x3", "cbb221e5da05")):
        ig = iso.make_isoradial(iso.builder_graph(spec))
        assert ig.graph_hash() == digest
        assert ig.graph_hash() == digest


def test_boundary_vectors_parallel_pairs(ig_2x2, ig_hex):
    # each of the two boundary-vector families {alpha_l, beta_r} and
    # {alpha_r, beta_l} pairs up within itself (every track exits parallel to
    # how it entered), and their union carries all train-track directions
    from collections import Counter

    for ig in (ig_2x2, ig_hex):
        fam1 = Counter(round(x % math.pi, 9) % round(math.pi, 9)
                       for bp in ig.boundary_pairs
                       for x in (bp.alpha_l, bp.beta_r))
        fam2 = Counter(round(x % math.pi, 9) % round(math.pi, 9)
                       for bp in ig.boundary_pairs
                       for x in (bp.alpha_r, bp.beta_l))
        for fam in (fam1, fam2):
            assert all(v % 2 == 0 for v in fam.values())
        track_dirs = {round(t.direction % math.pi, 9) % round(math.pi, 9)
                      for t in iso.train_tracks(ig)}
        assert set(fam1) | set(fam2) == track_dirs


def test_square_3x2_interior_angles():
    # interior edges of any square-lattice block keep theta = pi/4
    ig = iso.make_isoradial(iso.build_square_lattice(3, 2))
    inner = [r for r in ig.rhombi.values() if not r.boundary]
    assert inner
    assert all(abs(r.theta_bar - math.pi / 4) < 1e-12 for r in inner)
