"""Derived graphs, Kasteleyn orientations and the combinatorial bijections."""

import math

import numpy as np
import pytest
from conftest import _walked_double_graph, branching_matchings

from isodimer import derived as der
from isodimer import isoradial as iso


def gd_as_graph(dg):
    edges = sorted(dg.gd_edges)
    vs = sorted({("w", w) for w, _b in edges} | {b for _w, b in edges}, key=str)
    es = [tuple(sorted((("w", w), b), key=str)) for (w, b) in edges]
    return vs, es, edges


def test_double_counts(ig_1x1, ig_2x2):
    dg = der.build_double(ig_1x1)
    assert len(dg.whites) == 8
    assert len(dg.blacks) == 8
    dgu = der.build_double(ig_1x1, rooted=False)
    assert len(dgu.blacks) == len(dgu.whites) + 1
    dg2 = der.build_double(ig_2x2)
    assert len(dg2.whites) == 20
    # Euler on every built instance: |E| = |V| + |V*| - 1
    for ig in (ig_1x1, ig_2x2):
        assert len(ig.edge_list()) == len(ig.base.coords) + len(ig.face_centers) - 1


def _record_bits(records):
    return [(key, float.hex(rec["alpha"]), float.hex(rec["beta"]), rec["kind"])
            for key, rec in records.items()]


def test_double_graph_view_matches_the_walk():
    # the records read from the Dirac layout are the walked ones: keys,
    # order and the bits of every lift
    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex", "tripair",
                 "irregular"):
        ig = iso.make_isoradial(iso.builder_graph(spec))
        for rooted in (True, False):
            dg = der.build_double(ig, rooted)
            whites, blacks, records = _walked_double_graph(ig, rooted)
            assert list(dg.whites) == whites and list(dg.blacks) == blacks, (spec, rooted)
            assert _record_bits(dg.gd_edges) == _record_bits(records), (spec, rooted)


def test_quadri_structure(ig_1x1, ig_2x2):
    qg1 = der.build_quadri(ig_1x1)
    assert len(qg1.boundary_quads) == 8
    assert len(qg1.vertices) == 16 and len(qg1.edges) == 16
    qg2 = der.build_quadri(ig_2x2)
    # one quadrangle per primal edge
    assert len({q[1] for q in qg2.vertices}) == len(ig_2x2.edge_list())
    # every external edge joins opposite colors
    blacks = set(qg2.blacks)
    for x, y, kind, _ in qg2.edges:
        assert (x in blacks) and (y not in blacks)


def test_fisher_structure(ig_1x1, ig_2x2):
    fg = der.build_fisher(ig_1x1)
    # single decoration with d = 8 triangles: 8 A-vertices and 8 B-vertices
    assert len(fg.a_vertices) == 8 and len(fg.b_vertices) == 8
    assert len(fg.external_edges) == 0
    assert fg.boundary_b == set(fg.b_vertices)
    fg2 = der.build_fisher(ig_2x2)
    for f, cyc in fg2.a_cycle.items():
        d = len(ig_2x2.base.faces[f])
        assert len(cyc) == d
    # A-degree 4, boundary B-degree 2, inner B-degree 3 (with external)
    deg = {}
    for x, y in fg2.internal_edges:
        deg[x] = deg.get(x, 0) + 1
        deg[y] = deg.get(y, 0) + 1
    for a in fg2.a_vertices:
        assert deg[a] == 4
    for b in fg2.b_vertices:
        assert deg[b] == 2


def test_kasteleyn_orientation_clockwise_odd(ig_2x2):
    fg = der.build_fisher(ig_2x2)
    der.check_clockwise_odd(fg.orientation, fg.faces)
    # pfaffian magnitude must not depend on which valid orientation is used:
    # rebuild from a relabeled copy of the same graph
    from isodimer import operators as op
    from isodimer.inference import pfaffian

    J = {e: 0.3 for e in ig_2x2.edge_list()}
    kf = op.kasteleyn_KF(fg, J)
    pf1 = abs(pfaffian(kf))

    import copy

    fg2 = copy.deepcopy(fg)
    all_edges = ([tuple(sorted(e, key=str)) for e in fg2.internal_edges]
                 + [tuple(sorted((x, y), key=str)) for x, y, _ in fg2.external_edges])
    # different spanning tree: BFS from another start vertex
    verts = sorted(fg2.coords, key=str)
    fg2.orientation = der.kasteleyn_orient(list(reversed(verts)), all_edges, fg2.faces)
    kf2 = op.kasteleyn_KF(fg2, J)
    pf2 = abs(pfaffian(kf2))
    assert abs(pf1 - pf2) < 1e-9 * max(1.0, pf1)


def test_induced_orientation(ig_2x2, ig_hex):
    for ig in (ig_2x2, ig_hex):
        fg = der.build_fisher(ig)
        qg = der.build_quadri(ig)
        eps_q = der.induce_orientation_GQ(fg, qg)
        der.check_clockwise_odd(eps_q, qg.faces)
        # boundary quadrangle edges only use the two simple rules
        for b, w, kind, _ in qg.edges:
            if kind == "bq":
                fqm = der.fisher_quadri_map(qg)
                bb = fqm.b_of_black[b]
                assert bb in fg.boundary_b


def test_induced_orientation_on_every_builder():
    # the cn rule reads b' from FisherGraph.ext_of_b; it must pick the B that
    # a scan of the external edges finds
    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex",
                 "tripair", "irregular"):
        ig = iso.make_isoradial(iso.builder_graph(spec))
        fg, qg = der.build_fisher(ig), der.build_quadri(ig)
        assert len(fg.ext_of_b) == 2 * len(fg.external_edges)
        for bx, by, eid in fg.external_edges:
            assert fg.ext_of_b[bx] == (by, eid) and fg.ext_of_b[by] == (bx, eid)
        fqm = der.fisher_quadri_map(qg)
        eps_q = der.induce_orientation_GQ(fg, qg)
        for blk, wht, kind, _ in qg.edges:
            if kind == "cn":
                b = fqm.b_of_black[blk]
                bp = next(e for e in fg.external_edges if b in e[:2])
                b_op = bp[0] if bp[1] == b else bp[1]
                expect = fg.eps(b, b_op) * fg.eps(b_op, fqm.a_of_white[wht])
                assert eps_q[(blk, wht)] == expect == -eps_q[(wht, blk)], spec


def test_induced_orientation_flip_locality(ig_2x2):
    # flipping one Fisher triangle edge changes the induced orientation only
    # on the quadri edges whose rules reference that edge's triangle
    fg = der.build_fisher(ig_2x2)
    qg = der.build_quadri(ig_2x2)
    eps1 = dict(der.induce_orientation_GQ(fg, qg))
    b0 = next(b for b in fg.b_vertices if b not in fg.boundary_b)
    a_prev, a_next = fg.triangles[b0]
    fg.orientation[(b0, a_prev)] *= -1
    fg.orientation[(a_prev, b0)] *= -1
    try:
        eps2 = {}
        fqm = der.fisher_quadri_map(qg)
        for blk, wht, kind, _ in qg.edges:
            b = fqm.b_of_black[blk]
            a_ext = fqm.a_of_black[blk]
            ap, an = fg.triangles[b]
            a_other = an if a_ext == ap else ap
            if kind == "ext":
                eps2[(blk, wht)] = fg.eps(b, a_ext)
            elif kind in ("sn", "bq"):
                eps2[(blk, wht)] = fg.eps(b, a_other)
            else:
                bp = next(e for e in fg.external_edges if b in e[:2])
                b_op = bp[0] if bp[1] == b else bp[1]
                eps2[(blk, wht)] = fg.eps(b, b_op) * fg.eps(b_op, fqm.a_of_white[wht])
    finally:
        fg.orientation[(b0, a_prev)] *= -1
        fg.orientation[(a_prev, b0)] *= -1
    fqm = der.fisher_quadri_map(qg)
    blk0 = fqm.black_of_b[b0]
    changed = {k for k in eps2 if eps1[k] != eps2[k]}
    assert changed
    # the flip may also propagate to the opposite black through the cn rule
    b_op = next(e for e in fg.external_edges if b0 in e[:2])
    blk_op = fqm.black_of_b[b_op[0] if b_op[1] == b0 else b_op[1]]
    assert all(x in (blk0, blk_op) for (x, _y) in changed)


def test_temperley_roundtrip_and_counts(ig_1x1):
    dg = der.build_double(ig_1x1)
    tm = der.temperley_map(dg)
    m1, part = der.reference_matching_M1(dg)
    pt, dt = tm.matching_to_trees(m1)
    assert tm.trees_to_matching(pt, dt) == set(m1)
    # matchings of the rooted double graph = spanning trees (= 8 on the 8-cycle)
    vs, es, _ = gd_as_graph(dg)
    count, _ = der.enumerate_matchings(vs, es)
    assert count == 8
    # no directed primal edge exits the root
    assert all(v != ig_1x1.root for v in pt)


def test_temperley_weight_preservation(ig_1x1, ig_1x2):
    # arbitrary positive weights: weighted matching sum = weighted dST-pair sum
    from isodimer.inference import brute_force_dst_pairs

    rng = np.random.default_rng(7)
    for ig in (ig_1x1, ig_1x2):
        dg = der.build_double(ig)
        tm = der.temperley_map(dg)
        vs, es, edges = gd_as_graph(dg)
        weights = list(rng.uniform(0.5, 2.0, size=len(edges)))
        wp, wd = {}, {}
        for (w, black), wt in zip(edges, weights):
            img = tm.edge_image(w, black)
            if img[0] == "v":
                wp[(img[1], img[2])] = wt
            else:
                wd[(img[1], w)] = wt
        count, z_match = der.enumerate_matchings(vs, es, weights)
        oc = brute_force_dst_pairs(ig, weights_primal=wp, weights_dual=wd)
        assert count <= 200
        assert abs(z_match - oc.weighted_sum) < 1e-10 * abs(z_match)


def test_fisher_polygon_fiber(ig_1x2):
    # fiber over each polygon configuration has size 2^{|V*|}
    fg = der.build_fisher(ig_1x2)
    vs = fg.vertices()
    es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
          + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
    count, _, matchings = branching_matchings(vs, es, collect=True)
    epos = {e: i for i, e in enumerate(es)}
    fibers = {}
    for m in matchings:
        chosen = [es[i] for i in m]
        lookup = set(chosen)
        ext = frozenset(eid for x, y, eid in fg.external_edges
                        if tuple(sorted((x, y), key=str)) in lookup)
        fibers[ext] = fibers.get(ext, 0) + 1
    n_f = len(ig_1x2.face_centers)
    assert all(v == 2 ** n_f for v in fibers.values())
    # 1x2: no non-empty polygon configuration exists (single inner dual edge)
    assert set(fibers) == {frozenset()}
    assert count == 2 ** n_f


def test_fisher_polygon_map(ig_2x2):
    fg = der.build_fisher(ig_2x2)
    vs = fg.vertices()
    es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
          + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
    _, _, matchings = branching_matchings(vs, es, collect=True, budget=10 ** 7)
    for m in matchings[:50]:
        chosen = {es[i] for i in m}
        pairs = [(x, y) for x, y in
                 (tuple(sorted(e, key=str)) for e in chosen)]
        ext = der.fisher_polygon_map(fg, pairs)  # raises on odd degrees


def test_reference_matching_partition(ig_2x2):
    dg = der.build_double(ig_2x2)
    qg = der.build_quadri(ig_2x2)
    m1, part = der.reference_matching_M1(dg)
    assert len(part["B1"]) == len(ig_2x2.edge_list())
    assert len(part["B1"]) == len(part["W1"])
    assert len(part["B2"]) == len(part["W2"])
    bd = {("q", e, 1) for e in qg.boundary_quads}
    assert set(part["B1d"]) == bd
    # the dual tree restricted to the restricted dual is spanning
    tm = der.temperley_map(dg)
    _, dual_out = tm.matching_to_trees(m1)
    assert set(dual_out) == set(range(len(ig_2x2.face_centers)))


_QUADRI_SPECS = ("square:1x1", "square:1x2", "square:2x2", "square:3x3", "square:4x3",
                 "hex", "tripair", "irregular")


def _corner_side(r, c):
    return {1: (r.v1, r.f1), 2: (r.v2, r.f1), 3: (r.v2, r.f2), 4: (r.v1, r.f2)}[c]


def _walked_quadri_faces(ig):
    """Reference: the bounded faces of G_Q walked by hand, CCW: the inner
    quadrangles, then around every restricted-dual vertex, then around every
    interior primal vertex."""
    out = [tuple(("q", eid, c) for c in (1, 2, 3, 4))
           for eid in ig.edge_list() if ig.rhombi[eid].f2 is not None]

    def corner_at(eid, side):
        r = ig.rhombi[eid]
        corners = (1, 2) if r.f2 is None else (1, 2, 3, 4)
        return next(("q", eid, c) for c in corners if _corner_side(r, c) == side)

    def eid_of(a, b):
        return ig.edge_ids[(min(a, b), max(a, b))]

    for fi, cyc in enumerate(ig.base.faces):
        verts = []
        for v_a, v_b in zip(cyc, cyc[1:] + cyc[:1]):
            verts += [corner_at(eid_of(v_a, v_b), (v_a, fi)),
                      corner_at(eid_of(v_a, v_b), (v_b, fi))]
        out.append(tuple(verts))
    boundary = ig.base.boundary_vertices()
    for v in sorted(ig.base.coords):
        if v in boundary:
            continue
        nbrs, verts = ig.base.adj[v], []
        for w_a, w_b in zip(nbrs, nbrs[1:] + nbrs[:1]):
            # shared face between consecutive edges (CCW): right face of (v->w_b)
            r_b = ig.rhombi[eid_of(v, w_b)]
            f_shared = r_b.f1 if r_b.v1 == v else r_b.f2
            verts += [corner_at(eid_of(v, w_a), (v, f_shared)),
                      corner_at(eid_of(v, w_b), (v, f_shared))]
        out.append(tuple(verts))
    return out


def _rotated_to_min(face):
    i = face.index(min(face))
    return face[i:] + face[:i]


def test_quadri_faces_match_the_walk():
    # the traced faces of the embedding are the walked cycles, same orientation
    for spec in _QUADRI_SPECS:
        ig = iso.make_isoradial(iso.builder_graph(spec))
        qg = der.build_quadri(ig)
        walked = _walked_quadri_faces(ig)
        assert len(qg.faces) == len(walked), spec
        assert (sorted(map(_rotated_to_min, qg.faces))
                == sorted(map(_rotated_to_min, walked))), spec
        der.check_clockwise_odd(der.induce_orientation_GQ(der.build_fisher(ig), qg),
                                walked)


def _scanned_fisher_map(qg):
    """Reference: the Fisher correspondence by a pass over the quadri vertices."""
    ig = qg.ig
    side_of = {q: _corner_side(ig.rhombi[q[1]], q[2]) for q in qg.vertices}
    maps = {"b_of_black": {}, "black_of_b": {}, "a_of_black": {}, "a_of_white": {},
            "white_of_a": {}}
    for blk in qg.blacks:
        eid, (v, f) = blk[1], side_of[blk]
        maps["b_of_black"][blk] = ("b", f, eid)
        maps["black_of_b"][("b", f, eid)] = blk
        maps["a_of_black"][blk] = ("a", f, v)
    for wht in qg.whites:
        v, f = side_of[wht]
        maps["a_of_white"][wht] = ("a", f, v)
        maps["white_of_a"][("a", f, v)] = wht
    return maps


def test_fisher_quadri_map_filled_by_the_build():
    for spec in _QUADRI_SPECS:
        ig = iso.make_isoradial(iso.builder_graph(spec))
        qg = der.build_quadri(ig)
        fqm = der.fisher_quadri_map(qg)
        assert fqm is qg.fisher
        for name, ref in _scanned_fisher_map(qg).items():
            assert list(getattr(fqm, name).items()) == list(ref.items()), (spec, name)


def _crossing_partition(qg, matching):
    """Reference: the quadri partition from a scan of the G_Q edges for the one
    that crosses each matched double-graph edge."""
    ig = qg.ig
    crossing = {}
    for x, y, kind, _ in qg.edges:
        if kind in ("sn", "cn", "bq"):
            r = ig.rhombi[x[1]]
            pair = tuple(sorted((x[2], y[2])))
            black_gd = {(1, 2): der.fkey(r.f1), (3, 4): der.fkey(r.f2),
                        (1, 4): der.vkey(r.v1), (2, 3): der.vkey(r.v2)}[pair]
            crossing[(x[1], black_gd)] = (x, y)
    part = {"B1": [], "B2": [], "W1": [], "W2": [], "B1d": [], "W1d": []}
    for w, black in matching:
        b1, w1 = crossing[(w, black)]
        part["B1"].append(b1)
        part["W1"].append(w1)
        for q in qg.vertices:
            if q[1] == w and q not in (b1, w1):
                part["B2" if q[2] in (1, 3) else "W2"].append(q)
    for eid in qg.boundary_quads:
        part["B1"].append(("q", eid, 1))
        part["W1"].append(("q", eid, 2))
        part["B1d"].append(("q", eid, 1))
        part["W1d"].append(("q", eid, 2))
    return {key: sorted(val) for key, val in part.items()}


def test_reference_partition_from_corners(monkeypatch):
    for spec in _QUADRI_SPECS:
        ig = iso.make_isoradial(iso.builder_graph(spec))
        dg, qg = der.build_double(ig), der.build_quadri(ig)
        with monkeypatch.context() as m:
            m.setattr(der, "build_quadri", lambda _ig: pytest.fail("second G_Q"))
            matching, part = der.reference_matching_M1(dg)
        inner = [(w, b) for w, b in matching if ig.rhombi[w].f2 is not None]
        assert part == _crossing_partition(qg, inner), spec
        assert all(part[key] == sorted(part[key]) for key in part)
