"""Theorem checks as executable residual tests."""

import math

import numpy as np
import pytest

from isodimer import identities as idn
from isodimer import isoradial as iso
from isodimer.elliptic import complete_integrals


def test_dirac_laplacian_small(ig_1x1, ig_hex):
    for ig in (ig_1x1, ig_hex):
        for k in (0.0, 0.6):
            p = complete_integrals(k)
            ws = idn.Workspace(ig, p)
            for u in iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=2):
                rep = idn.check_dirac_laplacian(ws, u)
                assert rep.passed and rep.residual < 1e-10
                assert rep.detail["zero_block"] < 1e-12


def test_main_intertwiner_small(ig_2x2):
    for k in (0.0, 0.3, 0.8):
        p = complete_integrals(k)
        ws = idn.Workspace(ig_2x2, p)
        for u in iso.admissible_u(ig_2x2, p, "prime", delta=p.bigK / 16, count=4):
            rep = idn.check_main_intertwiner(ws, u)
            assert rep.passed and rep.residual < 1e-10


def test_det_tree_forest(ig_1x1, ig_2x2):
    for ig in (ig_1x1, ig_2x2):
        for k in (0.0, 0.5):
            p = complete_integrals(k)
            ws = idn.Workspace(ig, p)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
            rep = idn.check_det_tree_forest(ws, u)
            assert rep.passed, rep.detail


def test_det_tree_forest_critical_counts(ig_1x1):
    # at k = 0 the dual-forest determinant relation reduces to tree counting:
    # the single square (8-cycle) has 8 spanning trees
    from isodimer.inference import brute_force_dst_pairs, logabsdet, unit_dirac
    from isodimer.derived import build_double

    oc = brute_force_dst_pairs(ig_1x1)
    assert oc.count == 8
    dg = build_double(ig_1x1)
    assert abs(logabsdet(unit_dirac(dg).dense()) - math.log(8.0)) < 1e-12


def test_partition_function_check(ig_1x1, ig_2x2, ig_hex):
    for ig in (ig_1x1, ig_2x2, ig_hex):
        for k in (0.0, 0.5):
            p = complete_integrals(k)
            ws = idn.Workspace(ig, p)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[2]
            rep = idn.check_partition_function(ws, u)
            assert rep.passed, (ig.graph_hash(), k, rep.detail)
            assert rep.detail["ising_vs_forest"] is not None


def test_partition_function_u_and_root_independence(ig_2x2):
    # the closed form is independent of u and of the chosen root
    p = complete_integrals(0.6)
    ws = idn.Workspace(ig_2x2, p)
    us = iso.admissible_u(ig_2x2, p, "doubleprime", delta=p.bigK / 16, count=4)
    vals = [idn.log_z_plus_squared_formula(ws, u) for u in us]
    assert max(vals) - min(vals) < 1e-10
    g = iso.build_square_lattice(2, 2)
    ig_b = iso.make_isoradial(g)
    other = [bp.vc for bp in ig_b.boundary_pairs if bp.vc != ig_b.root][1]
    ig_c = iso.make_isoradial(g, root_hint=other)
    ws_c = idn.Workspace(ig_c, p)
    us_c = iso.admissible_u(ig_c, p, "doubleprime", delta=p.bigK / 16, count=4)
    assert abs(idn.log_z_plus_squared_formula(ws_c, us_c[0]) - vals[0]) < 1e-10


def _swap_partition(kind):
    """reference_matching_M1 with (B1, W1) and (B2, W2) exchanged at every
    inner rhombus whose white M1 matches to a black of ``kind`` ("f": the
    f1/f2 corner swap, "v": the v1/v2 swap)."""
    from isodimer.derived import reference_matching_M1

    def m1(dg):
        matching, part = reference_matching_M1(dg)
        hit = {e for e, black in matching if black[0] == kind}
        new = {name: list(keys) for name, keys in part.items()}
        b1d = set(part["B1d"])
        inner = [n for n, b in enumerate(part["B1"]) if b not in b1d]
        for i, n in enumerate(inner):
            if part["B1"][n][1] in hit:
                new["B1"][n], new["B2"][i] = part["B2"][i], part["B1"][n]
                new["W1"][n], new["W2"][i] = part["W2"][i], part["W1"][n]
        return matching, new

    return m1


def test_partition_function_needs_the_m1_partition(ig_2x2, ig_hex, monkeypatch):
    # the factorization holds for the swapped partitions too; the crossing
    # precondition is what ties the Lemma to M1's partition
    from isodimer.derived import reference_matching_M1
    from isodimer.errors import BijectionError

    p = complete_integrals(0.6)
    for ig in (ig_2x2, ig_hex):
        u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=2)[1]
        assert idn.check_partition_function(idn.Workspace(ig, p), u).passed
        for kind in "fv":
            monkeypatch.setattr(idn, "reference_matching_M1", _swap_partition(kind))
            rep = idn.check_partition_function(idn.Workspace(ig, p), u)
            assert rep.detail["factorization"] == math.inf and not rep.passed, kind

        # B2 and B1o must pair rhombus by rhombus
        def reversed_b2(dg):
            matching, part = reference_matching_M1(dg)
            return matching, {**part, "B2": part["B2"][::-1]}

        monkeypatch.setattr(idn, "reference_matching_M1", reversed_b2)
        with pytest.raises(BijectionError):
            idn.check_partition_function(idn.Workspace(ig, p), u)
        monkeypatch.undo()


def test_z_invariance_specific():
    # equilateral triple at several k and u
    for k in (0.0, 0.4, 0.8):
        p = complete_integrals(k)
        th = [2.0 * p.bigK / 3.0] * 3
        for u in (0.1, 1.1, 2.7):
            rep = idn.check_z_invariance(p, th, u, alpha1=0.3)
            assert rep.passed and rep.residual < 1e-12
    # k = 0 reduces to the tangent Y-Delta move
    p0 = complete_integrals(0.0)
    rep = idn.check_z_invariance(p0, [0.4 * p0.bigK, 0.9 * p0.bigK, 0.7 * p0.bigK],
                                 1.234, alpha1=0.0)
    assert rep.passed


def test_z_invariance_third_restriction_value():
    # Z(star|III) = k'^(5/2) sc sc sc nd^2(u_{a_{j+2}}) per the proof display
    import isodimer.elliptic as el

    p = complete_integrals(0.4)
    th = [0.55 * p.bigK, 0.65 * p.bigK, 0.8 * p.bigK]
    u, alpha1 = 1.3, 0.2
    a = [alpha1, alpha1 + 2 * th[0], alpha1 + 2 * th[0] + 2 * th[1]]
    ua = [0.5 * (u - x) for x in a]
    kp = p.kprime
    j = 0
    j1, j2 = 1, 2
    gy_out = [kp ** 1.5 * el.sc(th[i], p) * el.nd(ua[i], p)
              * el.nd(ua[(i + 1) % 3], p) for i in range(3)]
    gy_in = [kp ** -0.5 * el.sc(th[i], p) * el.dn(ua[i], p)
             * el.dn(ua[(i + 1) % 3], p) for i in range(3)]
    zs = gy_out[j1] * gy_out[j2] * gy_in[j]
    expect = (kp ** 2.5 * el.sc(th[0], p) * el.sc(th[1], p) * el.sc(th[2], p)
              * el.nd(ua[j2], p) ** 2)
    assert abs(zs - expect) < 1e-12 * abs(expect)


def test_dubedat_all_couplings(ig_2x2):
    p = complete_integrals(0.5)
    ws = idn.Workspace(ig_2x2, p)
    # Z-invariant, zero, and antiferromagnetic couplings all satisfy the identities
    couplings0 = {e: 0.0 for e in ig_2x2.edge_list()}
    couplings_neg = {e: -0.7 for e in ig_2x2.edge_list()}
    for c in (None, couplings0, couplings_neg):
        rep = idn.check_dubedat(ws, couplings=c)
        assert rep.passed, rep.detail


def test_dubedat_vs_enumeration(ig_1x1, params_half):
    # Z_dimer(GF)^2 = 2^{V*} prod(1+e^{-4J}) Z_dimer(GQ) on the single square
    import isodimer.operators as op
    from isodimer import derived as der
    from isodimer.inference import pfaffian

    ig = ig_1x1
    fg = der.build_fisher(ig)
    qg = der.build_quadri(ig)
    couplings = op.z_invariant_couplings(ig, params_half)
    kf = op.kasteleyn_KF(fg, couplings)
    z_f = abs(pfaffian(kf))
    es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
          + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
    _, z_enum = der.enumerate_matchings(fg.vertices(), es,
                                        [1.0] * len(fg.internal_edges)
                                        + [math.exp(-2 * couplings[eid])
                                           for *_xy, eid in fg.external_edges])
    assert abs(z_f - z_enum) < 1e-12 * z_enum
    eps_q = der.induce_orientation_GQ(fg, qg)
    kqt = op.kasteleyn_KQ_real(qg, ig, couplings, eps_q)
    z_q = abs(np.linalg.det(kqt.dense()))
    n_f = len(ig.face_centers)
    rhs = 2.0 ** n_f * z_q   # no inner dual edges on the single square
    assert abs(z_f ** 2 - rhs) < 1e-10 * rhs


def test_directed_laplacian_gauge(ig_1x1, ig_2x2):
    for ig in (ig_1x1, ig_2x2):
        p = complete_integrals(0.5)
        ws = idn.Workspace(ig, p)
        u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=3)[1]
        rep = idn.check_directed_laplacian_gauge(ws, u)
        assert rep.passed, rep.detail
        assert rep.detail["path_independence"] < 1e-11


def test_outer_tree_enumeration_single_square(ig_1x1, params_half):
    # the single dual vertex: Z^outer = sum of the eight directed conductances
    from conftest import ScalarOperators

    import isodimer.operators as op
    from isodimer.derived import build_double
    from isodimer.inference import brute_force_outer_trees, logabsdet

    ig, p = ig_1x1, params_half
    dg = build_double(ig)
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=3)[1]
    ref = ScalarOperators(ig, p)
    gamma = {(0, eid): ref.gamma_star(dg, u, eid, 0) for eid in ig.edge_list()}
    oc = brute_force_outer_trees(ig, gamma)
    assert oc.count == 8
    _, dstar = op.kd_gauge_and_directed_laplacian(dg, p, u)
    assert abs(math.log(oc.weighted_sum) - logabsdet(dstar.dense())) < 1e-12


def test_negative_controls(ig_2x2):
    p = complete_integrals(0.6)
    ws = idn.Workspace(ig_2x2, p)
    u_p = iso.admissible_u(ig_2x2, p, "prime", delta=p.bigK / 16, count=2)[1]
    u_d = iso.admissible_u(ig_2x2, p, "doubleprime", delta=p.bigK / 16, count=2)[1]
    assert not idn.check_dirac_laplacian(ws, u_p, negative_control=True).passed
    assert not idn.check_main_intertwiner(ws, u_p, negative_control=True).passed
    assert not idn.check_det_tree_forest(ws, u_d, negative_control=True).passed
    assert not idn.check_partition_function(ws, u_d, negative_control=True).passed
    assert not idn.check_dubedat(ws, negative_control=True).passed
    assert not idn.check_directed_laplacian_gauge(
        ws, u_d, negative_control=True).passed


def test_residual_monotonicity(ig_1x1):
    p = complete_integrals(0.3)
    ws = idn.Workspace(ig_1x1, p)
    u = iso.admissible_u(ig_1x1, p, "prime", delta=p.bigK / 16, count=2)[1]
    rep = idn.check_dirac_laplacian(ws, u, tol=1e-9)
    rep_loose = idn.check_dirac_laplacian(ws, u, tol=1e-6)
    assert rep.passed <= rep_loose.passed


def test_battery_irregular_instance():
    # triangle+quad with six distinct half-angles: the hardest lift exercise
    ig = iso.make_isoradial(iso.builder_graph("irregular"))
    thetas = {round(r.theta_bar, 9) for r in ig.rhombi.values()}
    assert len(thetas) >= 6
    reports = idn.run_battery(ig, ks=(0.0, 0.6, 0.9), u_count=3)
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-10


def test_battery_nondefault_root(ig_2x2):
    g = iso.build_square_lattice(2, 2)
    ig = iso.make_isoradial(g)
    other = sorted(bp.vc for bp in ig.boundary_pairs if bp.vc != ig.root)[-1]
    ig2 = iso.make_isoradial(g, root_hint=other)
    reports = idn.run_battery(ig2, ks=(0.5,), u_count=2)
    assert all(r.passed for r in reports)


def test_eta_product_lemma_balance():
    # the eta-product collapses to (k')^{|V*|/2} prod |sc sc|^(1/2) exactly
    # when the boundary track directions pair up mod 2 pi (all balanced
    # instances); on the 4x3 block the two boundary-direction families are
    # unbalanced and the displayed form breaks while the eta form stays exact
    from conftest import get_graph

    p = complete_integrals(0.6)
    for spec, balanced in (("square:2x2", True), ("square:3x3", True),
                           ("hex", True), ("square:4x3", False)):
        ig = get_graph(spec)
        ws = idn.Workspace(ig, p)
        u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
        m1, _ = ws.m1
        eta = idn._matching_log_product(ws, u, m1, "eta")
        displayed = (0.5 * len(ig.face_centers) * math.log(p.kprime)
                     + idn._matching_log_product(ws, u, m1, "abs_sc"))
        gap = abs(eta - displayed)
        if balanced:
            assert gap < 1e-10, (spec, gap)
        else:
            assert gap > 1e-2, (spec, gap)
        # the partition identity itself holds either way with the eta form
        rep = idn.check_partition_function(ws, u)
        assert rep.passed


def _fresh_check(ig, rep):
    """The check behind one battery report, run on a fresh workspace."""
    ws = idn.Workspace(ig, complete_integrals(rep.k))
    if rep.name == "dubedat":
        return idn.check_dubedat(ws)
    check = {"dirac_laplacian": idn.check_dirac_laplacian,
             "main_intertwiner": idn.check_main_intertwiner,
             "det_tree_forest": idn.check_det_tree_forest,
             "partition_function": idn.check_partition_function,
             "directed_laplacian_gauge": idn.check_directed_laplacian_gauge}
    return check[rep.name](ws, rep.u)


def test_battery_cache_matches_fresh_workspaces(ig_2x2, ig_hex):
    # the battery shares one evaluation per (graph, k, u) between its checks;
    # each check run alone on a fresh Workspace must give the same floats
    for ig in (ig_2x2, ig_hex):
        reports = idn.run_battery(ig, ks=(0.0, 0.6))
        seen = 0
        for rep in reports:
            if rep.name == "z_invariance":
                continue
            alone = _fresh_check(ig, rep)
            assert alone.name == rep.name
            if rep.name == "directed_laplacian_gauge":
                assert abs(alone.residual - rep.residual) <= 1e-13
            else:
                assert alone.residual == rep.residual, (rep.name, rep.k, rep.u)
                assert alone.detail == rep.detail, (rep.name, rep.k, rep.u)
            seen += 1
        assert seen == 2 * (2 * 4 + 3 * 4 + 1)


def test_battery_builds_each_operator_once(ig_2x2, monkeypatch):
    import isodimer.operators as op

    dirac_calls = {}
    graph_calls = {}
    real_dirac = op.dirac

    def counting_dirac(dg, p, u, variant="plain"):
        key = (p.k, repr(u))
        dirac_calls[key] = dirac_calls.get(key, 0) + 1
        return real_dirac(dg, p, u, variant)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            graph_calls[name] = graph_calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(op, "dirac", counting_dirac)
    for name in ("build_double", "build_quadri", "build_fisher",
                 "reference_matching_M1"):
        monkeypatch.setattr(idn, name, counting(name, getattr(idn, name)))
    reports = idn.run_battery(ig_2x2, ks=(0.0, 0.3, 0.6, 0.9))
    assert all(r.passed for r in reports)
    assert dirac_calls and max(dirac_calls.values()) <= 2
    assert graph_calls == {"build_double": 1, "build_quadri": 1,
                           "build_fisher": 1, "reference_matching_M1": 1}


def test_side_stage_is_kept(monkeypatch):
    # the partition check also reads u + 2K; the edge table keeps every stage
    # of its modulus, so the checks at one u build each stage once, and a
    # battery builds one stage per distinct (k, u)
    import isodimer.operators as op

    built = []
    init = op._Spectral.__init__

    def counting(self, mod, u):
        built.append((mod.p.k, repr(u)))
        init(self, mod, u)

    monkeypatch.setattr(op._Spectral, "__init__", counting)
    ig = iso.make_isoradial(iso.build_square_lattice(2, 2))
    p = complete_integrals(0.6)
    ws = idn.Workspace(ig, p)
    for u in iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3):
        built.clear()
        for check in (idn.check_det_tree_forest, idn.check_partition_function,
                      idn.check_directed_laplacian_gauge):
            assert check(ws, u).passed
        assert sorted(v for _k, v in built) == sorted(
            [repr(u), repr((u + 2.0 * p.bigK) % (4.0 * p.bigK))])
    for spec in ("hex", "square:2x2"):
        built.clear()
        assert all(r.passed for r in idn.run_battery(iso.make_isoradial(iso.builder_graph(spec))))
        assert built and len(built) == len(set(built)), spec


def test_spin_term_left_out_past_budget(ig_2x2, monkeypatch):
    # the spin frontier of 2x2 needs more than 2 states: the partition check
    # leaves its spin term out, and asks the oracle once per workspace
    import isodimer.inference as inf

    calls = []
    spins = inf.brute_force_spins

    def counting(*args):
        calls.append(args)
        return spins(*args)

    monkeypatch.setattr(inf, "brute_force_spins", counting)
    p = complete_integrals(0.6)
    ws = idn.Workspace(ig_2x2, p)
    us = iso.admissible_u(ig_2x2, p, "doubleprime", delta=p.bigK / 16, count=3)
    for u in us:
        rep = idn.check_partition_function(ws, u, oracle_budget=2)
        assert rep.passed and rep.detail["ising_vs_forest"] is None
    assert len(calls) == 1
    rep = idn.check_partition_function(idn.Workspace(ig_2x2, p), us[0])
    assert rep.detail["ising_vs_forest"] <= 1e-12


def test_workspace_at_keyed_by_float_value(ig_2x2):
    # a numpy scalar and the equal Python float share one set of operators;
    # the signed zeros stay two
    p = complete_integrals(0.6)
    ws = idn.Workspace(ig_2x2, p)
    u = 0.3 * p.bigK
    assert ws.at(u) is ws.at(np.float64(u))
    assert ws.at(0.0) is not ws.at(-0.0)
    assert ws.at(np.float64(-0.0)) is ws.at(-0.0)


def test_gauge_holonomy_exact():
    from conftest import get_graph

    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex"):
        ig = get_graph(spec)
        for k in (0.0, 0.3, 0.6, 0.9):
            p = complete_integrals(k)
            ws = idn.Workspace(ig, p)
            for u in iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=4):
                assert idn._gauge_holonomy(ws, u) <= 1e-13, (spec, k, u)
                rep = idn.check_directed_laplacian_gauge(ws, u)
                assert rep.detail["path_independence"] <= 1e-13, (spec, k, u)


def test_gauge_holonomy_catches_mutations(ig_2x2, monkeypatch):
    from isodimer import operators as op
    from isodimer.derived import fkey

    p = complete_integrals(0.6)
    u = iso.admissible_u(ig_2x2, p, "doubleprime", delta=p.bigK / 16, count=4)[1]
    (fa, fb), eid = ig_2x2.dual_edges[0]
    assert idn.check_directed_laplacian_gauge(idn.Workspace(ig_2x2, p), u).passed

    # one dual step off by a relative 1e-6, in either direction: one of the
    # two is a BFS tree step (caught around a cycle), the other is caught
    # only by the reciprocity of the reverse step
    real_step = idn._dual_step
    for bad in (fa, fb):
        def scaled_step(at, bad=bad):
            src, dst, steps = real_step(at)
            arc = np.flatnonzero((src == bad) & (dst == fa + fb - bad))
            assert len(arc) == 1
            steps[arc] *= 1.0 + 1e-6
            return src, dst, steps

        monkeypatch.setattr(idn, "_dual_step", scaled_step)
        rep = idn.check_directed_laplacian_gauge(idn.Workspace(ig_2x2, p), u)
        assert rep.detail["path_independence"] > 1e-8, bad
        assert not rep.passed and rep.tolerance == idn.DET_TOL
    monkeypatch.setattr(idn, "_dual_step", real_step)

    # one corrupted dual lift in the Dirac layout: alpha read at beta's
    # angle; on a fresh graph, since the cached test graphs share their tables
    ws = idn.Workspace(iso.make_isoradial(iso.builder_graph("square:2x2")), p)
    assert idn._gauge_holonomy(ws, u) < 1e-12
    lay = op.dirac_layout(ws.dg)
    slot = lay.gd_pos[(eid, fkey(fa))]
    assert slot in lay.gd_dual
    lay.gd_a[slot] = lay.gd_b[slot]
    assert idn._gauge_holonomy(ws, u) > 1e-8


def test_nan_part_fails_the_check(ig_2x2, monkeypatch):
    # Python's max drops a NaN that does not come first: a NaN holonomy once
    # gave passed=True with the NaN only in the detail
    p = complete_integrals(0.6)
    u = iso.admissible_u(ig_2x2, p, "doubleprime", delta=p.bigK / 16, count=4)[1]
    monkeypatch.setattr(idn, "_gauge_holonomy", lambda ws, u: math.nan)
    rep = idn.check_directed_laplacian_gauge(idn.Workspace(ig_2x2, p), u)
    assert math.isnan(rep.detail["path_independence"])
    assert math.isnan(rep.residual) and not rep.passed
    assert math.isnan(idn._worst(0.0, math.nan, 1.0))
    assert idn._worst(1e-15, 2e-15) == 2e-15


def test_wrong_directed_laplacian_fails_the_check(ig_2x2, monkeypatch, tmp_path):
    # a D* that no diagonal gauge carries to the dual massive Laplacian is a
    # failed theorem (exit 1), not an input error (exit 2)
    from isodimer import cli
    from isodimer import operators as op

    p = complete_integrals(0.6)
    u = iso.admissible_u(ig_2x2, p, "doubleprime", delta=p.bigK / 16, count=4)[1]
    real = op.kd_gauge_and_directed_laplacian

    def scaled(dg, p_, u_):
        kg, dstar = real(dg, p_, u_)
        vals = dstar.vals.copy()
        n = int(np.flatnonzero(dstar.i != dstar.j)[0])
        vals[n] *= 1.001
        return kg, op.TypedSparseMatrix(dstar.rows, dstar.cols, dstar.i, dstar.j, vals,
                                        dstar.name)

    monkeypatch.setattr(op, "kd_gauge_and_directed_laplacian", scaled)
    rep = idn.check_directed_laplacian_gauge(idn.Workspace(ig_2x2, p), u)
    assert rep.detail["path_independence"] == math.inf
    assert not rep.passed
    code = cli.main(["verify", "--builder", "square:2x2", "--k", "0.6", "--u", repr(u),
                     "--out", str(tmp_path / "verify.json")])
    assert code == cli.EXIT_CHECK_FAILED
