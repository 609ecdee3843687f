"""Operator assembly: Laplacians, Dirac operators, Kasteleyn matrices,
intertwiners, gauge machinery."""

import cmath
import copy
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import (
    ScalarOperators,
    _walked_double_graph,
    branching_matchings,
    matrix_of,
    positions,
)

from isodimer import derived as der
from isodimer import elliptic as el
from isodimer import isoradial as iso
from isodimer import operators as op
from isodimer.derived import fkey, vkey, wkey
from isodimer.elliptic import complete_integrals
from isodimer.errors import DomainError, NotGaugeEquivalentError


def test_delta_m_star_single_square(ig_1x1, params_half):
    m = op.delta_m_star(ig_1x1, params_half)
    assert m.rows == (fkey(0),)
    # the octagonal face has eight boundary half-angles pi/2 - 3pi/8 = pi/8
    th_star = el.theta_transform(math.pi / 8, params_half)
    expect = 8.0 * el.a_fun(th_star, params_half)
    assert abs(m.get(fkey(0), fkey(0)) - expect) < 1e-12


def test_delta_m_star_masses_nonnegative(ig_2x2, ig_hex):
    for ig in (ig_2x2, ig_hex):
        for k in (0.0, 0.4, 0.9):
            p = complete_integrals(k)
            m = op.delta_m_star(ig, p)
            a = m.dense().real
            row_sums = a.sum(axis=1)
            assert row_sums.min() > -1e-12
            # interior dual rows: mass = sum [A - sc] over incident edges
            for fi, cyc in enumerate(ig.base.faces):
                expect = 0.0
                interior = True
                for i in range(len(cyc)):
                    a_v, b_v = cyc[i], cyc[(i + 1) % len(cyc)]
                    eid = ig.edge_ids[(min(a_v, b_v), max(a_v, b_v))]
                    r = ig.rhombi[eid]
                    th = el.theta_transform(math.pi / 2 - r.theta_bar, p)
                    expect += el.a_fun(th, p)
                    if r.boundary:
                        interior = False
                    else:
                        expect -= el.sc(th, p)
                if interior:
                    assert abs(row_sums[positions(m.rows)[fkey(fi)]] - expect) < 1e-10


def test_interior_mass_identity(ig_2x2):
    # k' sum_j sc(theta_j) nd(u_aj) nd(u_aj+1) = sum_j A(theta_j) at interior v
    ig = ig_2x2
    boundary = ig.base.boundary_vertices()
    interior = [v for v in ig.base.coords if v not in boundary]
    assert interior
    for k in (0.3, 0.8):
        p = complete_integrals(k)
        ref = ScalarOperators(ig, p)
        for u in (0.25 * p.bigK, 1.7 * p.bigK):
            for v in interior:
                lhs = ref.boundary_diag(v, u)
                rhs = ref.interior_diag(v)
                assert abs(lhs - rhs) < 1e-11


def test_z2_interior_mass_value(ig_2x2):
    from isodimer.inference import z2_specialization

    for k in (0.2, 0.5, 0.9):
        p = complete_integrals(k)
        z = z2_specialization(p)
        assert abs(z["mass"] - z["mass_formula"]) < 1e-10
        assert abs(z["survival"] - z["survival_formula"]) < 1e-10
        assert abs(z["survival"] - z["survival_formula_alt"]) < 1e-10


def test_delta_m_partial_structure(ig_2x2, params_half):
    ig = ig_2x2
    p = params_half
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=3)[1]
    m = op.delta_m_partial(ig, p, u)
    m2 = op.delta_m_partial(ig, p, u + 0.3)
    boundary = ig.base.boundary_vertices()
    # u-dependence confined to boundary rows
    for v in ig.base.coords:
        if v == ig.root or v in boundary:
            continue
        i = positions(m.rows)[vkey(v)]
        assert np.allclose(m.dense()[i], m2.dense()[i])
    # root-pair rows keep the removed edge in their diagonal sums
    rp = ig.root_pair()
    assert abs(m.get(vkey(rp.vl), vkey(rp.vl))
               - ScalarOperators(ig, p).boundary_diag(rp.vl, u)) < 1e-13


def test_q_matrix_properties(ig_2x2, params_half):
    ig, p = ig_2x2, params_half
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=3)[1]
    q = op.q_matrix(ig, p, u)
    rp = ig.root_pair()
    # root pair row zero; one nonzero per non-root pair; purely imaginary
    assert all(r != vkey(rp.vc) for (r, c) in q.entries)
    assert len(q.entries) == len(ig.boundary_pairs) - 1
    for v in q.entries.values():
        assert abs(v.real) < 1e-14
    # vanishing at the symmetric spectral value of one pair
    bp = next(b for b in ig.boundary_pairs if not b.is_root)
    ref = ScalarOperators(ig, p)
    u0 = 0.5 * (ref.ell(bp.alpha_l) + ref.ell(bp.beta_r))
    try:
        q0 = op.q_matrix(ig, p, u0)
        assert abs(q0.get(vkey(bp.vc), fkey(bp.fc))) < 1e-10
    except Exception:
        pass  # u0 may hit the excluded set on symmetric lattices


def test_dirac_worked_coefficients(ig_2x2, params_half):
    # the four displayed entries around an inner white vertex
    ig, p = ig_2x2, params_half
    dg = der.build_double(ig)
    u = 0.37 * p.bigK
    kd = op.dirac(dg, p, u, "plain")
    ref = ScalarOperators(ig, p)
    inner = [eid for eid in ig.edge_list() if not ig.rhombi[eid].boundary]
    for eid in inner:
        r = ig.rhombi[eid]
        a_bar, b_bar = r.alpha_bar, r.beta_bar
        th = ref.ell(r.theta_bar)
        ua, ub = ref.u_arg(u, a_bar), ref.u_arg(u, b_bar)
        phase = cmath.exp(0.5j * (a_bar + b_bar))
        kp = p.kprime
        expect = {
            vkey(r.v2): phase * math.sqrt(el.sc(th, p) * el.dn(ua, p) * el.dn(ub, p)),
            vkey(r.v1): -phase * math.sqrt(
                el.sc(th, p) * el.dn(ua - p.bigK, p) * el.dn(ub - p.bigK, p)),
            fkey(r.f1): -1j * phase * math.sqrt(
                kp * el.cs(th, p) * el.nd(ub + p.bigK, p) * el.nd(ua, p)),
            fkey(r.f2): 1j * phase * math.sqrt(
                kp * el.cs(th, p) * el.nd(ub, p) * el.nd(ua - p.bigK, p)),
        }
        for black, val in expect.items():
            assert abs(kd.get(wkey(eid), black) - val) < 1e-13
        # |K_{w,v1}|^2 = sc(theta) dn(u_{a+2K}) dn(u_{b+2K})
        got = abs(kd.get(wkey(eid), vkey(r.v1))) ** 2
        want = el.sc(th, p) * el.dn(ua - p.bigK, p) * el.dn(ub - p.bigK, p)
        assert abs(got - want) < 1e-12


def test_dirac_boundary_variant(ig_2x2, params_half):
    ig, p = ig_2x2, params_half
    dg = der.build_double(ig)
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=3)[1]
    kd = op.dirac(dg, p, u, "plain")
    kdp = op.dirac(dg, p, u, "boundary")
    diff = {key for key in kd.entries
            if abs(kd.entries[key] - kdp.entries[key]) > 1e-14}
    expect = {(wkey(bp.wl), vkey(bp.vc)) for bp in ig.boundary_pairs
              if not bp.is_root}
    assert diff == expect


def test_dirac_holomorphy_critical(ig_1x1):
    # kernel of the unrooted operator at k = 0 satisfies the discrete
    # Cauchy-Riemann display tan^(1/2)(F_v2 - F_v1) + i cot^(1/2)(F_f2 - F_f1) = 0
    p = complete_integrals(0.0)
    ig = ig_1x1
    dg = der.build_double(ig, rooted=False)
    kd = op.dirac(dg, p, 0.8, "plain")
    a = kd.dense()
    _u, _s, vh = np.linalg.svd(a)
    null = vh[-1].conj()
    assert np.linalg.norm(a @ null) < 1e-12
    f_vec = {black: null[i] for i, black in enumerate(kd.cols)}
    for eid in ig.edge_list():
        r = ig.rhombi[eid]
        if r.f2 is None:
            continue
        t = math.tan(r.theta_bar)
        val = (math.sqrt(t) * (f_vec[vkey(r.v2)] - f_vec[vkey(r.v1)])
               + 1j * math.sqrt(1.0 / t) * (f_vec[fkey(r.f2)] - f_vec[fkey(r.f1)]))
        assert abs(val) < 1e-10


def test_relift_invariance(ig_2x2, params_half):
    # all matrices are invariant under (alpha, beta) -> (alpha+2pi, beta+2pi)
    # on a single inner edge, and on both edges of a boundary pair
    ig, p = ig_2x2, params_half
    u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]

    def snapshot(ig_x):
        dg = der.build_double(ig_x)
        qg = der.build_quadri(ig_x)
        mats = [op.dirac(dg, p, u, "boundary"), op.delta_m_partial(ig_x, p, u),
                op.q_matrix(ig_x, p, u), op.kasteleyn_KQ(qg, ig_x, p)]
        s_mat, t_mat = op.s_t_matrices(qg, dg, p, u)
        mats += [s_mat, t_mat]
        return [m.dense() for m in mats]

    base = snapshot(ig)

    ig2 = copy.deepcopy(ig)
    inner = next(e for e in ig2.edge_list() if not ig2.rhombi[e].boundary)
    ig2.rhombi[inner].alpha_bar += 2.0 * math.pi
    ig2.rhombi[inner].beta_bar += 2.0 * math.pi
    for a, b in zip(base, snapshot(ig2)):
        assert np.abs(a - b).max() < 1e-12

    ig3 = copy.deepcopy(ig)
    bp = next(b for b in ig3.boundary_pairs if not b.is_root)
    for eid in (bp.wl, bp.wr):
        ig3.rhombi[eid].alpha_bar += 2.0 * math.pi
        ig3.rhombi[eid].beta_bar += 2.0 * math.pi
    bp3 = ig3.pair_of_vc(bp.vc)
    bp3.alpha_l += 2.0 * math.pi
    bp3.beta_l += 2.0 * math.pi
    bp3.alpha_r += 2.0 * math.pi
    bp3.beta_r += 2.0 * math.pi
    for a, b in zip(base, snapshot(ig3)):
        assert np.abs(a - b).max() < 1e-12


def test_broken_boundary_lift_fails(ig_2x2, params_half):
    # negative control: violating beta_l = alpha_r + 2 pi breaks the
    # intertwiner identity
    from isodimer import identities as idn

    ig = copy.deepcopy(ig_2x2)
    p = params_half
    bp = next(b for b in ig.boundary_pairs if not b.is_root)
    ig.rhombi[bp.wl].alpha_bar -= 2.0 * math.pi
    ig.rhombi[bp.wl].beta_bar -= 2.0 * math.pi
    bp.alpha_l -= 2.0 * math.pi
    bp.beta_l -= 2.0 * math.pi
    ws = idn.Workspace(ig, p)
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=3)[1]
    rep = idn.check_main_intertwiner(ws, u)
    assert rep.residual > 1e-3


def test_kq_weights_and_gauge(ig_2x2):
    ig = ig_2x2
    for k in (0.0, 0.6):
        p = complete_integrals(k)
        qg = der.build_quadri(ig)
        kq = op.kasteleyn_KQ(qg, ig, p)
        # entry magnitudes in (0, 1]; sn/cn weights at k = 0 are sin/cos
        for (b, w), v in kq.entries.items():
            assert 0.0 < abs(v) <= 1.0 + 1e-14
        fg = der.build_fisher(ig)
        couplings = op.z_invariant_couplings(ig, p)
        eps_q = der.induce_orientation_GQ(fg, qg)
        kqt = op.kasteleyn_KQ_real(qg, ig, couplings, eps_q)
        # gauge equivalence: diagonal conjugation recovers one from the other
        d_b, d_w = op.gauge_q(kqt, kq, bipartite=True)
        lhs = kqt.dense()
        db = d_b.dense()
        dw = d_w.dense()
        rhs = db @ kq.dense() @ dw
        assert np.abs(lhs - rhs).max() < 1e-12
        # Lemma: (K~Q)^{-1}_{w,b} = q_{b,w} (KQ)^{-1}_{w,b}
        from isodimer.inference import invert

        kqt_inv = invert(kqt.dense())
        kq_inv = invert(kq.dense())
        for (b, w) in list(kq.entries)[:10]:
            qv = 1.0 / (d_b.get(b, b) * d_w.get(w, w))
            i, j = positions(kq.cols)[w], positions(kq.rows)[b]
            assert abs(kqt_inv[i, j] - qv * kq_inv[i, j]) < 1e-11


def test_gauge_negative_control(ig_2x2, params_half):
    qg = der.build_quadri(ig_2x2)
    fg = der.build_fisher(ig_2x2)
    couplings = op.z_invariant_couplings(ig_2x2, params_half)
    eps_q = der.induce_orientation_GQ(fg, qg)
    kqt = op.kasteleyn_KQ_real(qg, ig_2x2, couplings, eps_q)
    kq = op.kasteleyn_KQ(qg, ig_2x2, params_half)
    ent = dict(kq.entries)
    key = next(iter(ent))
    ent[key] *= 1.5
    bad = matrix_of(kq.rows, kq.cols, ent, "bad")
    with pytest.raises(NotGaugeEquivalentError):
        op.gauge_q(kqt, bad, bipartite=True)
    # a NaN entry is no gauge either
    ent[key] = complex("nan")
    nan = matrix_of(kq.rows, kq.cols, ent, "nan")
    with pytest.raises(NotGaugeEquivalentError):
        op.gauge_q(kqt, nan, bipartite=True)
    # identity gauge
    d = op.gauge_q(kqt, kqt, bipartite=True)
    assert all(abs(v - 1.0) < 1e-14 for v in d[0].entries.values())


def test_gauge_q_needs_shared_keys(ig_2x2, params_half):
    # gauge_q aligns the two matrices' entries by position, so the matrices
    # must share their row and column key tuples, and a directed gauge needs
    # rows = columns
    qg, fg = der.build_quadri(ig_2x2), der.build_fisher(ig_2x2)
    kqt = op.kasteleyn_KQ_real(qg, ig_2x2, op.z_invariant_couplings(ig_2x2, params_half),
                               der.induce_orientation_GQ(fg, qg))
    kq = op.kasteleyn_KQ(qg, ig_2x2, params_half)
    flipped = op.TypedSparseMatrix(kq.rows[::-1], kq.cols, len(kq.rows) - 1 - kq.i, kq.j,
                                   kq.vals, "flipped")
    assert flipped.entries == kq.entries
    for m, n, bipartite in ((kqt, flipped, True), (kqt, kq, False)):
        with pytest.raises(NotGaugeEquivalentError, match="sparsity patterns differ"):
            op.gauge_q(m, n, bipartite=bipartite)


def _dict_gauge_potential(steps, roots):
    """The dict BFS that ``gauge_potential`` replaced, kept as its reference:
    ``steps`` maps a node to its (y, s) in search order."""
    q = {}
    for root in roots:
        if root in q:
            continue
        q[root] = 1.0
        queue = [root]
        for x in queue:
            for y, s in steps.get(x, ()):
                if y not in q:
                    q[y] = q[x] * s
                    queue.append(y)
    worst, where = 0.0, None
    for x in q:
        for y, s in steps.get(x, ()):
            gap = abs(q[x] * s / q[y] - 1.0)
            if gap > worst or math.isnan(gap):
                worst, where = gap, (x, y)
    return q, worst, where


def _bits(values):
    return np.asarray(list(values), dtype=complex).view(np.uint64).tolist()


def _same_potential(n, steps, roots):
    """gauge_potential on the steps of the dict ``steps`` (node -> (y, s)
    in order) agrees with the dict BFS bit for bit; returns its result."""
    arcs = [(x, y, s) for x, out in steps.items() for y, s in out]
    src, dst, vals = zip(*arcs)
    q, order, worst, where = op.gauge_potential(n, src, dst, vals, roots)
    ref_q, ref_worst, ref_where = _dict_gauge_potential(steps, roots)
    assert order.tolist() == list(ref_q)
    assert _bits(q[order]) == _bits(ref_q.values())
    assert np.isnan(q[np.setdiff1d(np.arange(n), order)]).all()
    assert where == ref_where
    assert _bits([worst]) == _bits([ref_worst])
    return q, order, worst, where


def _unit_gauge_steps(m):
    """The steps the parent's ``unit_gauge`` built, by Python arithmetic."""
    n = len(m.rows)
    nz = np.flatnonzero(m.vals)
    steps = {}
    for r, c, s in zip(m.i[nz].tolist(), (m.j[nz] + n).tolist(),
                       (m.vals[nz] / np.abs(m.vals[nz])).tolist()):
        steps.setdefault(r, []).append((c, 1.0 / s))
        steps.setdefault(c, []).append((r, s))
    return steps


def _gauge_q_steps(m_mat, n_mat, bipartite):
    """The steps the parent's ``gauge_q`` built, on node positions."""
    nodes = m_mat.rows + m_mat.cols if bipartite else m_mat.rows
    at = {v: i for i, v in enumerate(nodes)}
    steps = {}
    for (r, c), m in m_mat.entries.items():
        if r == c and not bipartite:
            continue
        ratio = n_mat.get(r, c) / m
        steps.setdefault(at[r], []).append((at[c], ratio))
        if bipartite:
            steps.setdefault(at[c], []).append((at[r], 1.0 / ratio))
    for out in steps.values():
        out.sort(key=lambda ys: str(nodes[ys[0]]))
    return len(nodes), steps


def test_array_bfs_matches_the_dict_bfs():
    from conftest import get_graph

    from isodimer import identities as idn

    # the unit gauges of the Dirac layouts
    for spec in ("square:1x1", "square:2x2", "square:4x3", "hex", "tripair", "irregular",
                 "square:16x16"):
        ig = get_graph(spec)
        for rooted in (True, False):
            m = op.edge_table(ig).layout(rooted).unit()
            n = len(m.rows) + len(m.cols)
            q = _same_potential(n, _unit_gauge_steps(m), range(n))[0]
            assert _bits(op.unit_gauge(m)) == _bits(q[m.i] / q[len(m.rows) + m.j])

    # gauge_q: bipartite K~Q against KQ, and the directed dual Laplacians
    ig, p = get_graph("square:3x3"), complete_integrals(0.6)
    qg, fg = der.build_quadri(ig), der.build_fisher(ig)
    kqt = op.kasteleyn_KQ_real(qg, ig, op.z_invariant_couplings(ig, p),
                               der.induce_orientation_GQ(fg, qg))
    kq = op.kasteleyn_KQ(qg, ig, p)
    n, steps = _gauge_q_steps(kqt, kq, True)
    q = _same_potential(n, steps, [0])[0]
    d_b, d_w = op.gauge_q(kqt, kq, bipartite=True)
    assert _bits(d_b.vals) == _bits(q[:len(kqt.rows)])
    assert _bits(d_w.vals) == _bits(1.0 / x for x in q[len(kqt.rows):].tolist())
    ws = idn.Workspace(ig, p)
    u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=4)[1]
    dstar = ws.at(u).gauge[1]
    scaled = op.TypedSparseMatrix(dstar.rows, dstar.cols, dstar.i, dstar.j,
                                  dstar.vals / math.sqrt(p.kprime), "scaled")
    n, steps = _gauge_q_steps(ws.dms, scaled, False)
    q = _same_potential(n, steps, [0])[0]
    assert _bits(op.gauge_q(ws.dms, scaled, bipartite=False, tol=1e-8).vals) == _bits(q)

    # several components, roots out of order, cycles whose products are off;
    # nodes 6 and 20 are neither reached nor roots, 13 and 21 are lone roots
    rng = np.random.default_rng(5)
    steps = {}
    for lo, hi in ((0, 6), (7, 12), (14, 20)):
        for x in range(lo, hi):
            for y in (x + 1, lo + (x + 3 - lo) % (hi - lo)):
                s = complex(*rng.normal(size=2))
                steps.setdefault(x, []).append((min(y, hi - 1), s))
                steps.setdefault(min(y, hi - 1), []).append((x, 1.0 / s))
    _q, order, worst, _where = _same_potential(22, steps, [15, 3, 21, 9, 0, 13])
    assert 0.0 < worst and len(order) == 19
    real = {x: [(y, abs(s)) for y, s in out] for x, out in steps.items()}
    _same_potential(22, real, sorted(real))

    # a NaN step: the gap is NaN, and the last NaN step is named
    steps[8][1] = (steps[8][1][0], complex("nan"))
    _q, _order, worst, where = _same_potential(22, steps, [0, 7, 14])
    assert math.isnan(worst) and where is not None
    real[8][0] = (real[8][0][0], math.nan)
    assert math.isnan(_same_potential(22, real, [0, 7, 14])[2])


def test_storage_contract(monkeypatch):
    # every builder's coordinate arrays agree with its entry view, its dense
    # form and the CSC matrix that inverse_entry factors
    import scipy.sparse
    from conftest import get_graph

    from isodimer import inference as inf
    from isodimer.errors import SingularityError

    factored = []
    real_csc = scipy.sparse.csc_matrix

    def recording_csc(*args, **kwargs):
        factored.append(real_csc(*args, **kwargs))
        return factored[-1]

    # inverse_entry imports csc_matrix from scipy.sparse on each call
    monkeypatch.setattr(scipy.sparse, "csc_matrix", recording_csc)
    for spec in ("square:2x2", "irregular"):
        ig = get_graph(spec)
        dg, qg, fg = der.build_double(ig), der.build_quadri(ig), der.build_fisher(ig)
        eps_q = der.induce_orientation_GQ(fg, qg)
        for k in (0.0, 0.6):
            p = complete_integrals(k)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=4)[1]
            couplings = op.z_invariant_couplings(ig, p)
            kq, kqt = op.kasteleyn_KQ(qg, ig, p), op.kasteleyn_KQ_real(qg, ig, couplings, eps_q)
            kf = op.kasteleyn_KF(fg, couplings)
            mats = [op.dirac(dg, p, u, "plain"), op.dirac(dg, p, u, "boundary"),
                    op.delta_m_natural(ig, p, u), op.delta_m_partial(ig, p, u),
                    op.delta_m_star(ig, p), op.delta_m_bulk(ig, p), op.q_matrix(ig, p, u),
                    kq, op.kq_bar_partial(qg, ig, p), kqt, kf,
                    *op.fisher_aux(fg, qg, kf)[:6], *op.s_t_matrices(qg, dg, p, u),
                    *op.kd_gauge_and_directed_laplacian(dg, p, u),
                    *op.gauge_q(kqt, kq, bipartite=True), inf.unit_dirac(dg)]
            if k == 0.0:
                mats += [op.delta_m_partial_critical_limit(ig),
                         op.delta_m_partial_complex_u(ig, 0.3 - 2.0j)]
            for m in mats:
                what = (spec, k, m.name)
                fill = np.zeros((len(m.rows), len(m.cols)), dtype=complex)
                row_at, col_at = positions(m.rows), positions(m.cols)
                for (r, c), v in m.entries.items():
                    fill[row_at[r], col_at[c]] = v
                assert len(m.entries) == len(m.vals), what
                assert np.array_equal(m.dense(), fill), what
                again = matrix_of(m.rows, m.cols, m.entries, m.name)
                assert (again.rows, again.cols) == (m.rows, m.cols), what
                assert again.vals.dtype == m.vals.dtype, what
                for a, b in ((again.i, m.i), (again.j, m.j), (again.vals, m.vals)):
                    assert np.array_equal(a, b), what
                factored.clear()
                try:
                    inf.inverse_entry(m, 0, 0)
                except SingularityError:
                    pass
                assert np.array_equal(factored[0].toarray(), m.dense()), what


def test_zinv_coupling_identities(params_half):
    p = params_half
    for th_frac in (0.2, 0.5, 0.8):
        th = th_frac * p.bigK
        j = 0.5 * math.log((1.0 + el.sn(th, p)) / el.cn(th, p))
        assert abs(math.tanh(2.0 * j) - el.sn(th, p)) < 1e-13
        assert abs(1.0 / math.cosh(2.0 * j) - el.cn(th, p)) < 1e-13
        assert abs(math.exp(-2.0 * j)
                   - el.cn(th, p) / (1.0 + el.sn(th, p))) < 1e-13


def test_kasteleyn_kf_properties(ig_2x2, params_half):
    fg = der.build_fisher(ig_2x2)
    couplings = op.z_invariant_couplings(ig_2x2, params_half)
    kf = op.kasteleyn_KF(fg, couplings)
    kf.check_antisymmetric()
    # the B vertices, then the A vertices: Dubedat's blocks are slices
    assert kf.rows == kf.cols == tuple(fg.b_vertices) + tuple(fg.a_vertices)
    # J = 0: external weight 1
    kf0 = op.kasteleyn_KF(fg, {e: 0.0 for e in couplings})
    for x, y, eid in fg.external_edges:
        assert abs(abs(kf0.get(x, y)) - 1.0) < 1e-14
    # negative couplings are allowed
    kfn = op.kasteleyn_KF(fg, {e: -0.4 for e in couplings})
    kfn.check_antisymmetric()


def test_antisymmetry_gate_rejects_non_finite_entries():
    # nan > x is false, and an (inf, inf) pair has an infinite scale: the
    # gate once passed all three
    for vals in ([math.nan, math.nan], [1.0, math.nan], [math.inf, math.inf]):
        m = op.TypedSparseMatrix(("a", "b"), ("a", "b"), [0, 1], [1, 0], vals, "pair")
        with pytest.raises(DomainError):
            m.check_antisymmetric()


def test_kasteleyn_kf_overflowing_weight_is_a_domain_error(ig_2x2):
    # e^{-2J} past the doubles once escaped as OverflowError
    fg = der.build_fisher(ig_2x2)
    with pytest.raises(DomainError, match=r"edge 2, J = -400\.0"):
        op.kasteleyn_KF(fg, {e: -400.0 for e in ig_2x2.edge_list()})


def test_fisher_aux_fields(ig_2x2, params_half):
    fg, qg = der.build_fisher(ig_2x2), der.build_quadri(ig_2x2)
    kf = op.kasteleyn_KF(fg, op.z_invariant_couplings(ig_2x2, params_half))
    aux = op.fisher_aux(fg, qg, kf)
    assert aux._fields == ("x", "m", "m_prime", "kappa", "i_wa", "d_bqa", "blocks")
    assert tuple(aux[:6]) == (aux.x, aux.m, aux.m_prime, aux.kappa, aux.i_wa, aux.d_bqa)
    assert set(aux.blocks) == {"K_BB", "K_BA", "K_AB", "K_AA"}


@pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
def test_operators_are_8k_periodic_in_u(ig_2x2, k):
    # the reason the CLI asks for u reduced modulo 8K; S and T flip sign at 4K
    p = complete_integrals(k)
    dg, qg = der.build_double(ig_2x2), der.build_quadri(ig_2x2)
    u = 0.37 * p.bigK

    def ops(u):
        return [op.dirac(dg, p, u, "plain"), op.dirac(dg, p, u, "boundary"),
                op.delta_m_partial(ig_2x2, p, u), op.q_matrix(ig_2x2, p, u),
                *op.s_t_matrices(qg, dg, p, u)]

    for a, b in zip(ops(u), ops(u + 8.0 * p.bigK)):
        d_a = a.dense()
        assert np.abs(b.dense() - d_a).max() < 1e-12 * np.abs(d_a).max(), a.name
    for a, b in zip(ops(u)[-2:], ops(u + 4.0 * p.bigK)[-2:]):
        d_a = a.dense()
        assert np.abs(b.dense() + d_a).max() < 1e-12 * np.abs(d_a).max(), a.name


def test_fisher_aux_invariants(ig_2x2, params_half):
    fg = der.build_fisher(ig_2x2)
    qg = der.build_quadri(ig_2x2)
    couplings = op.z_invariant_couplings(ig_2x2, params_half)
    kf = op.kasteleyn_KF(fg, couplings)
    x_mat, m_mat, m_prime, kappa, i_wa, d_bqa, blocks = op.fisher_aux(fg, qg, kf)
    n_f = len(ig_2x2.face_centers)
    assert abs(abs(np.linalg.det(blocks["K_AB"])) - 2.0 ** n_f) < 1e-9
    # X blocks have det 1 + e^{-4J}
    from isodimer.derived import fisher_quadri_map

    fqm = fisher_quadri_map(qg)
    for bx, by, eid in fg.external_edges:
        bh_x, bh_y = fqm.black_of_b[bx], fqm.black_of_b[by]
        det = (x_mat.get(bx, bh_x) * x_mat.get(by, bh_y)
               - x_mat.get(bx, bh_y) * x_mat.get(by, bh_x))
        assert abs(det - (1.0 + math.exp(-4.0 * couplings[eid]))) < 1e-12
    for a in fg.a_vertices:
        assert kappa.get(a, a) == 0.25
    # kappa vanishes across decorations
    f0, f1 = fg.a_vertices[0][1], None
    for a in fg.a_vertices:
        if a[1] != f0:
            f1 = a[1]
            break
    a0 = next(a for a in fg.a_vertices if a[1] == f0)
    a1 = next(a for a in fg.a_vertices if a[1] == f1)
    assert kappa.get(a0, a1) == 0.0
    # kappa t Kasteleyn relation: kappa K^F_{A,B} = -D_{A,B}, where D_{A,B}
    # holds eps(b, a_prev) / 2 at (a_prev, b): the cw cycle (a_next, b, a_prev)
    # has b just before a_prev
    d_ab = matrix_of(tuple(fg.a_vertices), tuple(fg.b_vertices),
                     {(fg.triangles[b][0], b): 0.5 * fg.eps(b, fg.triangles[b][0])
                      for b in fg.b_vertices})
    prod = kappa.dense() @ blocks["K_AB"]
    assert np.abs(prod + d_ab.dense()).max() < 1e-13


_X_ORDER = """
from isodimer import derived as der, isoradial as iso, operators as op
from isodimer.elliptic import complete_integrals
ig = iso.make_isoradial(iso.builder_graph("square:2x2"))
fg, qg = der.build_fisher(ig), der.build_quadri(ig)
kf = op.kasteleyn_KF(fg, op.z_invariant_couplings(ig, complete_integrals(0.5)))
x_mat = op.fisher_aux(fg, qg, kf)[0]
print(x_mat.i.tolist(), x_mat.j.tolist())
"""


def test_fisher_x_order_independent_of_hash_seed():
    # the boundary B-vertices are a set: X must not store them in hash order
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", _X_ORDER], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_s_t_sparsity_and_shift(ig_2x2, params_half):
    ig, p = ig_2x2, params_half
    dg = der.build_double(ig)
    qg = der.build_quadri(ig)
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=3)[1]
    s_mat, t_mat = op.s_t_matrices(qg, dg, p, u)
    # S: one nonzero per black row
    per_row = {}
    for (b, w) in s_mat.entries:
        per_row[b] = per_row.get(b, 0) + 1
    assert set(per_row.values()) == {1} and len(per_row) == len(qg.blacks)
    # T: two nonzeros per white row, one for the root-pair center
    per_row = {}
    for (w, x) in t_mat.entries:
        per_row[w] = per_row.get(w, 0) + 1
    rp = ig.root_pair()
    root_wc = ("q", rp.wl, 2)
    for w in qg.whites:
        assert per_row[w] == (1 if w == root_wc else 2)
    # 4 pi shift of a pair's embedding angles leaves entries unchanged
    ig2 = copy.deepcopy(ig)
    bp = next(b for b in ig2.boundary_pairs if not b.is_root)
    for eid in (bp.wl, bp.wr):
        ig2.rhombi[eid].alpha_bar += 4.0 * math.pi
        ig2.rhombi[eid].beta_bar += 4.0 * math.pi
    bp2 = ig2.pair_of_vc(bp.vc)
    for attr in ("alpha_l", "beta_l", "alpha_r", "beta_r"):
        setattr(bp2, attr, getattr(bp2, attr) + 4.0 * math.pi)
    dg2 = der.build_double(ig2)
    qg2 = der.build_quadri(ig2)
    s2, t2 = op.s_t_matrices(qg2, dg2, p, u)
    assert np.abs(s_mat.dense() - s2.dense()).max() < 1e-12
    assert np.abs(t_mat.dense() - t2.dense()).max() < 1e-12


def test_kd_gauge_and_directed_laplacian(ig_2x2, params_half):
    ig, p = ig_2x2, params_half
    dg = der.build_double(ig)
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=3)[1]
    kg, dstar = op.kd_gauge_and_directed_laplacian(dg, p, u)
    for (w, black), v in kg.entries.items():
        if black[0] == "v":
            assert abs(abs(v) - 1.0) < 1e-13
    # row sums of the outer-removed Laplacian = total conductance to outer
    a = dstar.dense().real
    ref = ScalarOperators(ig, p)
    for fi in range(len(ig.face_centers)):
        expected = 0.0
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            if r.f1 == fi and r.f2 is None:
                expected += ref.gamma_star(dg, u, eid, fi)
        i = positions(dstar.rows)[fkey(fi)]
        assert abs(a[i].sum() - expected) < 1e-12


def test_delta_m_partial_critical_limit(ig_2x2):
    # closed form vs the numeric limit u -> -i inf at k = 0
    ig = ig_2x2
    closed = op.delta_m_partial_critical_limit(ig)
    numeric = op.delta_m_partial_complex_u(ig, -40.0j)
    a, b = closed.dense(), numeric.dense()
    assert np.abs(a - b).max() < 1e-8
    # vc rows have zero row sums (critical masses vanish)
    for bp in ig.boundary_pairs:
        if bp.is_root:
            continue
        i = positions(closed.rows)[vkey(bp.vc)]
        assert abs(a[i].sum()) < 1e-12


def test_matrix_dump_and_antisym_flag(ig_1x1, params_half):
    dg = der.build_double(ig_1x1)
    kd = op.dirac(dg, params_half, 0.3, "plain")
    text = kd.dump_text()
    assert text.startswith("# dirac_plain")
    assert len(text.splitlines()) == 2 + len(kd.entries)
    with pytest.raises(Exception):
        kd.check_antisymmetric()


def test_matching_independence_of_reference_products(ig_1x1, params_half):
    # prod over matched edges of [dn dn]^(1/2) and of |sc sc|^(1/2) do not
    # depend on the matching
    from isodimer import identities as idn

    ig, p = ig_1x1, params_half
    ws = idn.Workspace(ig, p)
    u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
    dg = ws.dg
    edges = sorted(dg.gd_edges)
    vs = sorted({wkey(w) for w, _b in edges} | {b for _w, b in edges}, key=str)
    es = [tuple(sorted((wkey(w), b), key=str)) for (w, b) in edges]
    _, _, matchings = branching_matchings(vs, es, collect=True)
    vals_dn, vals_sc, vals_eta = set(), set(), set()
    for m in matchings:
        matched = tuple(sorted(edges[i] for i in m))
        vals_dn.add(round(idn._matching_log_product(ws, u, matched, "dn"), 10))
        vals_sc.add(round(idn._matching_log_product(ws, u, matched, "abs_sc"), 10))
        vals_eta.add(round(idn._matching_log_product(ws, u, matched, "eta"), 10))
    assert len(vals_dn) == 1 and len(vals_sc) == 1 and len(vals_eta) == 1


def _laplacian_cases():
    from conftest import get_graph

    for spec in ("square:2x2", "hex", "irregular"):
        ig = get_graph(spec)
        for k in (0.0, 0.6):
            p = complete_integrals(k)
            for u in iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=2):
                yield ig, p, u


def test_delta_m_partial_is_natural_but_at_pairs():
    # bit for bit: the Ising boundary rule touches only the (v_c, v_l) and
    # (v_c, v_c) entries of the non-root boundary pairs
    for ig, p, u in _laplacian_cases():
        nat = op.delta_m_natural(ig, p, u)
        par = op.delta_m_partial(ig, p, u)
        assert par.rows == nat.rows and par.cols == nat.cols
        touched = set()
        for bp in ig.boundary_pairs:
            if not bp.is_root:
                touched |= {(vkey(bp.vc), vkey(bp.vl)), (vkey(bp.vc), vkey(bp.vc))}
        assert touched and touched <= set(par.entries)
        assert set(par.entries) == set(nat.entries)
        for key, val in nat.entries.items():
            if key not in touched:
                assert par.entries[key] == val and type(par.entries[key]) is type(val)
        assert any(par.entries[key] != nat.entries[key] for key in touched)


def test_delta_m_natural_interior_rows_are_bulk_rows():
    # an interior row of the rooted operator is the bulk row without the root column
    checked = set()
    for ig, p, u in _laplacian_cases():
        nat = op.delta_m_natural(ig, p, u)
        bulk = op.delta_m_bulk(ig, p)
        boundary = ig.base.boundary_vertices()
        root = vkey(ig.root)
        for v in sorted(ig.base.coords):
            if v in boundary or v == ig.root:
                continue
            checked.add(ig.graph_hash())
            want = {c: x for (r, c), x in bulk.entries.items() if r == vkey(v) and c != root}
            got = {c: x for (r, c), x in nat.entries.items() if r == vkey(v)}
            assert got == want
            assert all(x.hex() == want[c].hex() for c, x in got.items())
    assert len(checked) == 2    # the irregular pair has no interior vertex


# ---------------------------------------------------------------------------
# edge-table gathers against the per-edge scalar reference
# ---------------------------------------------------------------------------

def _table_cases():
    from conftest import get_graph

    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex",
                 "tripair", "irregular"):
        ig = get_graph(spec)
        for k in (0.0, 0.3, 0.6, 0.9, 0.99):
            p = complete_integrals(k)
            yield spec, ig, p, iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16,
                                                count=3)


def _assert_entries_close(got, want, what):
    assert set(got) == set(want), what
    for key, w in want.items():
        assert abs(got[key] - w) <= 1e-13 * abs(w), (what, key, got[key], w)


def test_table_gathers_match_scalar_reference():
    for spec, ig, p, us in _table_cases():
        ref = ScalarOperators(ig, p)
        dg, qg = der.build_double(ig), der.build_quadri(ig)
        dgu = der.build_double(ig, rooted=False)
        what = (spec, p.k)
        _assert_entries_close(op.delta_m_star(ig, p).entries, ref.delta_m_star(), what)
        _assert_entries_close(op.delta_m_bulk(ig, p).entries, ref.delta_m_bulk(), what)
        _assert_entries_close(op.kasteleyn_KQ(qg, ig, p).entries, ref.kasteleyn_kq(qg), what)
        _assert_entries_close(op.kq_bar_partial(qg, ig, p).entries, ref.kq_bar_partial(qg),
                              what)
        _assert_entries_close(op.z_invariant_couplings(ig, p), ref.couplings(), what)
        for u in us:
            what = (spec, p.k, u)
            for g in (dg, dgu):
                for variant in ("plain", "boundary"):
                    _assert_entries_close(op.dirac(g, p, u, variant).entries,
                                          ref.dirac(g, u, variant), what)
            for got, want in zip(op.kd_gauge_and_directed_laplacian(dg, p, u),
                                 ref.gauge(dg, u)):
                _assert_entries_close(got.entries, want, what)
            _assert_entries_close(op.delta_m_natural(ig, p, u).entries,
                                  ref.delta_m_natural(u), what)
            _assert_entries_close(op.delta_m_partial(ig, p, u).entries,
                                  ref.delta_m_partial(u), what)
            _assert_entries_close(op.q_matrix(ig, p, u).entries, ref.q_matrix(u), what)
            for got, want in zip(op.s_t_matrices(qg, dg, p, u), ref.s_t(qg, dg, u)):
                _assert_entries_close(got.entries, want, what)


def test_one_edge_table_per_isoradial_graph():
    ig = iso.make_isoradial(iso.builder_graph("square:2x2"))
    for rooted in (True, False):
        dg = der.build_double(ig, rooted=rooted)
        assert op.edge_table(dg) is op.edge_table(dg.ig)


def test_spectral_stage_keyed_by_float_value():
    # a numpy scalar and the equal Python float share one stage; the signed
    # zeros stay two
    ig = iso.make_isoradial(iso.builder_graph("square:2x2"))
    p = complete_integrals(0.6)
    tab = op.edge_table(ig)
    u = 0.3 * p.bigK
    stage = tab.at(p, np.float64(u))
    assert tab.at(p, u) is stage
    assert tab.at(p, np.float64(u)) is stage
    assert tab.at(p, 0.0) is not tab.at(p, -0.0)
    assert tab.at(p, np.float64(-0.0)) is tab.at(p, -0.0)


def test_laplacian_builders_build_no_double_graph(monkeypatch):
    ig = iso.make_isoradial(iso.builder_graph("square:2x2"))
    p = complete_integrals(0.6)
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=3)[1]
    built, real = [], der.DoubleGraph.__post_init__

    def counting(dg):
        built.append(dg)
        real(dg)

    monkeypatch.setattr(der.DoubleGraph, "__post_init__", counting)
    op.delta_m_partial(ig, p, u)
    op.q_matrix(ig, p, u)
    assert not built


def test_table_jacobi_matches_scipy():
    # a second oracle for the kernel values the table gathers
    from scipy.special import ellipj

    worst = 0.0
    for _spec, ig, p, us in _table_cases():
        tab = op.edge_table(ig)
        m = tab.at(p)
        sn, cn, _dn, _ph = ellipj(tab.theta * 2.0 * p.bigK / math.pi, p.k * p.k)
        worst = max(worst, np.abs(m.sn_t - sn).max(), np.abs(m.cn_t - cn).max())
        for u in us:
            t = tab.at(p, u)
            sn, cn, dn, _ph = ellipj(t.arg, p.k * p.k)
            worst = max(worst, np.abs(t.sn - sn).max(), np.abs(t.cn - cn).max(),
                        np.abs(t.dn - dn).max())
    assert worst <= 1.1e-14


def test_table_builders_raise_typed_errors(monkeypatch):
    from isodimer.errors import DomainError, NegativeRadicandError, PoleError

    p = complete_integrals(0.6)
    fresh = lambda: iso.make_isoradial(iso.builder_graph("square:2x2"))  # noqa: E731
    ig = fresh()
    dg, qg = der.build_double(ig), der.build_quadri(ig)
    e = iso._excluded_set(ig, p, "prime")[0]
    for build in (lambda u: op.delta_m_partial(ig, p, u), lambda u: op.q_matrix(ig, p, u),
                  lambda u: op.dirac(dg, p, u, "boundary"),
                  lambda u: op.s_t_matrices(qg, dg, p, u)):
        with pytest.raises(DomainError, match="too close to the excluded direction"):
            build(e + 5e-9)
        for u in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"must be finite, got {u}"):
                build(u)

    # forced kernel values; each case builds on a fresh graph, so no table
    # stage computed before the patch is reused
    real = el.jacobi
    u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=2)[1]
    monkeypatch.setattr(el, "jacobi", lambda x, p_: real(x, p_)[:2] + (0.0,))
    with pytest.raises(PoleError, match=r"cd\(.+\) evaluated at a pole"):
        op.delta_m_partial(fresh(), p, u)
    monkeypatch.setattr(el, "jacobi", lambda x, p_: (real(x, p_)[0], 0.0, real(x, p_)[2]))
    with pytest.raises(PoleError, match=r"sc\(.+\) evaluated at a pole"):
        op.dirac(fresh(), p, u)
    monkeypatch.setattr(el, "jacobi", lambda x, p_: (real(x, p_)[0], -real(x, p_)[1],
                                                     real(x, p_)[2]))
    with pytest.raises(NegativeRadicandError) as err:
        op.dirac(fresh(), p, u)
    assert float(str(err.value).rsplit(": ", 1)[1]) < -1e-12


# ---------------------------------------------------------------------------
# edge-table gathers against the graph walks they replaced, bit for bit
# ---------------------------------------------------------------------------

def _unit_dirac_walk(dg):
    """Reference: the phase e^{i(alpha+beta)/2} of every walked double-graph
    edge record."""
    whites, blacks, records = _walked_double_graph(dg.ig, dg.rooted)
    ent = {(wkey(w), black): cmath.exp(0.5j * (rec["alpha"] + rec["beta"]))
           for (w, black), rec in records.items()}
    return matrix_of(tuple(wkey(w) for w in whites), tuple(blacks), ent, "unit_dirac")


def _tan_laplacian_walk(ig, name, pair):
    """Reference: the k = 0 boundary Laplacian from the vertices, adjacency and
    rhombi of ``ig``."""
    root = ig.root
    verts = [v for v in sorted(ig.base.coords) if v != root]
    ent = {}
    for r in map(ig.rhombi.__getitem__, ig.edge_list()):
        if root not in (r.v1, r.v2):
            x, y, c = vkey(r.v1), vkey(r.v2), math.tan(r.theta_bar)
            ent[x, y] = ent.get((x, y), 0.0) - c
            ent[y, x] = ent.get((y, x), 0.0) - c
    for v in verts:
        ent[vkey(v), vkey(v)] = sum(
            math.tan(ig.rhombi[ig.edge_ids[(min(v, w), max(v, w))]].theta_bar)
            for w in ig.base.adj[v])
    for bp in ig.boundary_pairs:
        if not bp.is_root:
            ent[vkey(bp.vc), vkey(bp.vl)], ent[vkey(bp.vc), vkey(bp.vc)] = pair(bp)
    rows = tuple(map(vkey, verts))
    return matrix_of(rows, rows, ent, name)


def _directed_laplacian_walk(dg, p, u):
    """Reference: the outer-removed directed dual Laplacian, gamma*(u) read
    at each end of every inner dual edge."""
    t = op.edge_table(dg).at(p, u)
    lay = t.tab.layout(dg.rooted)
    f = lay.gd_dual
    gamma = np.zeros(len(lay.gd_e))
    gamma[f] = (math.sqrt(p.kprime) * t.mod.cs_t[lay.gd_e[f]]
                * t.nd[lay.gd_a[f]] * t.nd[lay.gd_b[f]])
    side_face, side_rec, inner = lay.sides
    fk = t.tab.dual.fkeys
    diag = np.bincount(side_face, gamma[side_rec], len(fk)).tolist()
    g = gamma.tolist()
    lap = {}
    for f1, f2, i1, i2 in zip(*(x.tolist() for x in inner)):
        lap[fk[f1], fk[f2]] = lap.get((fk[f1], fk[f2]), 0.0) - g[i1]
        lap[fk[f2], fk[f1]] = lap.get((fk[f2], fk[f1]), 0.0) - g[i2]
    for r, d in zip(fk, diag):
        lap[r, r] = d
    return matrix_of(fk, fk, lap, "delta_star_outer")


def _kq_real_walk(qg, couplings, orientation):
    """Reference: the real quadri Kasteleyn matrix, one weight per edge of ``qg``."""
    ent = {}
    for blk, wht, kind, _ in qg.edges:
        if kind in ("ext", "bq"):
            w = 1.0
        else:
            j = couplings[blk[1]]
            w = math.tanh(2.0 * j) if kind == "sn" else 1.0 / math.cosh(2.0 * j)
        ent[(blk, wht)] = orientation[(blk, wht)] * w
    return matrix_of(tuple(qg.blacks), tuple(qg.whites), ent, "kasteleyn_KQ_real")


def _assert_same_bits(got, want, what):
    assert (got.name, got.rows, got.cols) == (want.name, want.rows, want.cols), what
    assert got.vals.dtype == want.vals.dtype, what
    for a, b in ((got.i, want.i), (got.j, want.j), (got.vals, want.vals)):
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), what


def test_gathered_builders_match_graph_walks(monkeypatch):
    from conftest import get_graph

    from isodimer import inference as inf

    pairs, real_tan = [], op._tan_laplacian
    monkeypatch.setattr(op, "_tan_laplacian",
                        lambda ig, name, pair: pairs.append(pair) or real_tan(ig, name, pair))
    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex",
                 "tripair", "irregular"):
        ig = get_graph(spec)
        qg, fg = der.build_quadri(ig), der.build_fisher(ig)
        eps_q = der.induce_orientation_GQ(fg, qg)
        for k in (0.0, 0.3, 0.6, 0.9):
            what = (spec, k)
            p = complete_integrals(k)
            for rooted in (True, False):
                dg = der.build_double(ig, rooted=rooted)
                _assert_same_bits(inf.unit_dirac(dg), _unit_dirac_walk(dg), what)
            # a fresh matrix per call: writing to one leaves the next as it was
            inf.unit_dirac(dg).vals[:] = 0.0
            _assert_same_bits(inf.unit_dirac(dg), _unit_dirac_walk(dg), what)

            for build in (op.delta_m_partial_critical_limit,
                          lambda ig: op.delta_m_partial_complex_u(ig, k + 0.3 - 2.0j)):
                m = build(ig)
                _assert_same_bits(m, _tan_laplacian_walk(ig, m.name, pairs[-1]), what)

            dg = der.build_double(ig)
            for u in iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=3):
                _kg, dstar = op.kd_gauge_and_directed_laplacian(dg, p, u)
                _assert_same_bits(dstar, _directed_laplacian_walk(dg, p, u), (*what, u))

            couplings = op.z_invariant_couplings(ig, p)
            _assert_same_bits(op.kasteleyn_KQ_real(qg, ig, couplings, eps_q),
                              _kq_real_walk(qg, couplings, eps_q), what)


def _laplacian_dict(name, rows, edges, diag, pairs=()):
    """Reference: the {(row, col): value} assembly of a massive Laplacian.
    Each (x, y, c_xy, c_yx) of ``edges`` adds -c_xy at (x, y) and -c_yx at
    (y, x), ``diag`` sets the diagonal and each (v_c, v_l, off, dia) of
    ``pairs`` the (v_c, v_l) and (v_c, v_c) entries."""
    ent = {}
    for x, y, c_xy, c_yx in edges:
        ent[x, y] = ent.get((x, y), 0.0) - c_xy
        ent[y, x] = ent.get((y, x), 0.0) - c_yx
    for r, d in zip(rows, diag):
        ent[r, r] = d
    for vc, vl, off, dia in pairs:
        ent[vc, vl], ent[vc, vc] = off, dia
    return matrix_of(rows, rows, ent, name)


def _laplacians_by_key(ig, p, u):
    """Reference: Delta^m_*, Delta^m natural, Delta^{m,partial},
    Delta^m bulk and Q(u) assembled from key dicts, with the weights of the
    edge table's stages."""
    tab = op.edge_table(ig)
    m, t, pr, du = tab.at(p), tab.at(p, u), tab.primal, tab.dual
    rows = tuple(vkey(v) for v in tab.verts.tolist())
    fk = tuple(fkey(f) for f in range(len(ig.face_centers)))
    k1, k2 = [rows[v] for v in tab.v1.tolist()], [rows[v] for v in tab.v2.tolist()]
    root = vkey(ig.root)
    r_keys = tuple(r for r in rows if r != root)
    r_edges = [e for e, ends in enumerate(zip(k1, k2)) if root not in ends]
    r_k1, r_k2 = [k1[e] for e in r_edges], [k2[e] for e in r_edges]
    out = {}

    c = m.sc_s[du.dual_e].tolist()
    out["delta_m_star"] = _laplacian_dict(
        "delta_m_star", fk, zip([fk[fa] for (fa, _fb), _e in ig.dual_edges],
                                [fk[fb] for (_fa, fb), _e in ig.dual_edges], c, c),
        np.bincount(du.face_row, m.a_values[2], du.n_faces).tolist())

    c = m.sc_t.tolist()
    out["delta_m_bulk"] = _laplacian_dict(
        "delta_m_bulk", rows, zip(k1, k2, c, c),
        np.bincount(pr.inc_row, m.a_values[1], len(rows)).tolist())

    b, n = pr.inc_bnd, len(rows)
    term = m.sc_t[pr.inc_e[b]] * t.nd[pr.inc_a[b]] * t.nd[pr.inc_b[b]]
    diag = np.where(pr.vbound, p.kprime * np.bincount(pr.inc_row[b], term, n),
                    np.bincount(pr.inc_row[~b], m.a_values[0], n))[pr.r_rows].tolist()
    c = m.sc_t[r_edges].tolist()
    out["delta_m_natural"] = _laplacian_dict("delta_m_natural", r_keys,
                                             zip(r_k1, r_k2, c, c), diag)
    sc = m.sc_b[tab.nr]
    cn_al, cn_br = t.cn[tab.p_al], t.cn[tab.p_br]
    off = -sc * t.cd[tab.p_br] / t.cd[tab.p_al]
    dia = p.kprime * sc * t.nd[tab.p_bl] * t.nd[tab.p_br] * (cn_br + cn_al) / cn_al
    pairs = [(vkey(bp.vc), vkey(bp.vl), o, d)
             for bp, o, d in zip(tab.pairs, off.tolist(), dia.tolist())]
    out["delta_m_partial"] = _laplacian_dict("delta_m_partial", r_keys,
                                             zip(r_k1, r_k2, c, c), diag, pairs)

    ent = {(vkey(bp.vc), fkey(bp.fc)): -1j * nd_bl / cd_al * (cd_br - cd_al)
           for bp, nd_bl, cd_al, cd_br in zip(tab.pairs, t.nd[tab.p_bl].tolist(),
                                              t.cd[tab.p_al].tolist(), t.cd[tab.p_br].tolist())}
    out["q_matrix"] = matrix_of(r_keys, fk, ent, "q_matrix")
    return out


def test_laplacians_and_q_match_the_key_dict_assembly():
    from conftest import get_graph

    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex",
                 "tripair", "irregular"):
        ig = get_graph(spec)
        for k in (0.0, 0.3, 0.6, 0.9):
            p = complete_integrals(k)
            for u in iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3):
                got = {"delta_m_star": op.delta_m_star(ig, p),
                       "delta_m_bulk": op.delta_m_bulk(ig, p),
                       "delta_m_natural": op.delta_m_natural(ig, p, u),
                       "delta_m_partial": op.delta_m_partial(ig, p, u),
                       "q_matrix": op.q_matrix(ig, p, u)}
                for name, want in _laplacians_by_key(ig, p, u).items():
                    _assert_same_bits(got[name], want, (spec, k, u, name))


# ---------------------------------------------------------------------------
# the quadri graph by position against the pair-rule walks it replaced
# ---------------------------------------------------------------------------

def _kq_layout_walk(tab, qg):
    """Reference: entry positions (black, white), edges, kinds and phases
    e^{i phi} of the quadri Kasteleyn matrix, and the (entry, pair) of the
    entries its boundary-pair variant scales by sn(theta), walked over the
    edges of ``qg`` with the pair rule read from ``pair_role``."""
    bpos = {b: n for n, b in enumerate(qg.blacks)}
    wpos = {w: n for n, w in enumerate(qg.whites)}
    bp_index = {bp.vc: n for n, bp in enumerate(qg.ig.boundary_pairs)}
    i, j, e, kinds, phase, scaled = [], [], [], [], [], []
    for n, (blk, wht, kind, phase_bar) in enumerate(qg.edges):
        i.append(bpos[blk])
        j.append(wpos[wht])
        e.append(blk[1])
        kinds.append(kind)
        phase.append(2.0 * phase_bar)
        role = qg.pair_role.get(blk[1])
        if role and blk[2] == 1 and (role[0], kind) in (("l", "ext"), ("r", "bq")):
            scaled.append((n, bp_index[role[1].vc]))
    ints = op._ints
    return (ints(i), ints(j), ints(e), np.array(kinds),
            np.exp(0.5j * np.array(phase, dtype=float)),
            ints(s for s, _p in scaled), ints(p for _s, p in scaled))


def _st_layout_walk(lay, qg):
    """Reference: the S and T layout of ``_Layout.st_layout``, walked over
    the keys of ``qg`` with the pair rule read from ``pair_role`` and the
    blacks found by key."""
    tab, ig, s, t = lay.tab, qg.ig, [], []
    bpos = {b: n for n, b in enumerate(lay.blacks)}
    bp_index = {bp.vc: n for n, bp in enumerate(ig.boundary_pairs)}
    for blk in qg.blacks:
        a, b = qg.black_lifts(blk)
        role = qg.pair_role.get(blk[1])
        c = a if role is not None and role[0] == "l" else b
        s.append((a, b, c, blk[1]))
    for n, wht in enumerate(qg.whites):
        eid, corner = wht[1], wht[2]
        r, role = ig.rhombi[eid], qg.pair_role.get(eid)
        if role is not None and corner == 2 and role[0] == "l":
            bp = role[1]
            if not bp.is_root:
                t.append((n, bpos[vkey(bp.vc)], 2, bp.alpha_r, bp.beta_r, bp_index[bp.vc]))
            t.append((n, bpos[fkey(bp.fc)], 3, bp.beta_l, bp.beta_l, 0))
            continue
        v, f, b = (r.v2, r.f1, r.beta_bar) if corner == 2 else (r.v1, r.f2, r.beta_bar + math.pi)
        if not (lay.rooted and v == ig.root):
            t.append((n, bpos[vkey(v)], 0, b, b, 0))
        t.append((n, bpos[fkey(f)], 1, b, b, 0))
    sa, sb, sc, se = zip(*s)
    t_i, t_j, kind, tx, ty, pair = zip(*t)
    kind, tx, ty = op._ints(kind), np.array(tx, dtype=float), np.array(ty, dtype=float)
    groups = []
    for k in range(4):
        pos = np.flatnonzero(kind == k)
        x = tx[pos]
        groups.append((pos, tab.ix(x), tab.ix(ty[pos]), op._ints(pair)[pos],
                       np.exp(-0.5j * (x + math.pi if k == 1 else x))))
    s_lay = (tab.ix(sa), tab.ix(sb), tab.ix(sc), op._ints(se),
             np.exp(-0.5j * np.array(sc, dtype=float)))
    return s_lay, (op._ints(t_i), op._ints(t_j), groups)


def test_quadri_arrays_match_the_pair_rule_walks(monkeypatch):
    from conftest import get_graph

    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex",
                 "tripair", "irregular"):
        ig = get_graph(spec)
        qg, dg, tab = der.build_quadri(ig), der.build_double(ig), op.edge_table(ig)
        # the arrays state pair_role, the keys, black_lifts and edges by position
        assert tab.eids == list(range(len(tab.eids))), spec
        for keys, at in ((qg.blacks, qg.black_at), (qg.whites, qg.white_at)):
            roles = [qg.pair_role.get(q[1]) for q in keys]
            assert at.edge.tolist() == [q[1] for q in keys], spec
            assert at.corner.tolist() == [q[2] for q in keys], spec
            assert at.side.tolist() == ["" if r is None else r[0] for r in roles], spec
            assert at.pair.tolist() == [-1 if r is None else ig.boundary_pairs.index(r[1])
                                        for r in roles], spec
        lifts = np.array([qg.black_lifts(b) for b in qg.blacks], dtype=float)
        assert qg.lifts.tobytes() == lifts.tobytes(), spec
        at = qg.edge_at
        assert list(zip(map(qg.blacks.__getitem__, at.black.tolist()),
                        map(qg.whites.__getitem__, at.white.tolist()),
                        at.kind.tolist(), at.phase.tolist())) == qg.edges, spec

        for k in (0.3, 0.6, 0.9):
            what = (spec, k)
            p = complete_integrals(k)
            m = tab.at(p)
            i, j, e, kinds, phase, pos, pair = _kq_layout_walk(tab, qg)
            weight = np.where(kinds == "sn", m.sn_t[e], np.where(kinds == "cn", m.cn_t[e], 1.0))
            kq = op.TypedSparseMatrix(qg.blacks, qg.whites, i, j, phase * weight, "kasteleyn_KQ")
            _assert_same_bits(op.kasteleyn_KQ(qg, ig, p), kq, what)
            vals = kq.vals.copy()
            vals[pos] = vals[pos] * m.sn_b[pair]
            _assert_same_bits(op.kq_bar_partial(qg, ig, p),
                              op.TypedSparseMatrix(qg.blacks, qg.whites, i, j, vals,
                                                   "kq_bar_partial"), what)
            for level in ("prime", "doubleprime"):
                for u in iso.admissible_u(ig, p, level, delta=p.bigK / 16, count=2):
                    got = op.s_t_matrices(qg, dg, p, u)
                    with monkeypatch.context() as mp:
                        mp.setattr(op._Layout, "st_layout", _st_layout_walk)
                        want = op.s_t_matrices(qg, dg, p, u)
                    for g, w in zip(got, want):
                        _assert_same_bits(g, w, (*what, level, u))


# ---------------------------------------------------------------------------
# the Fisher graph by position against the key-dict builders it replaced
# ---------------------------------------------------------------------------

def _kf_dict(fg, couplings):
    """Reference: K_F from the edge lists and ``eps`` of ``fg``."""
    ent = {}
    for x, y in fg.internal_edges:
        ent[(x, y)] = float(fg.eps(x, y))
        ent[(y, x)] = float(fg.eps(y, x))
    for x, y, eid in fg.external_edges:
        w = math.exp(-2.0 * couplings[eid])
        ent[(x, y)] = fg.eps(x, y) * w
        ent[(y, x)] = fg.eps(y, x) * w
    verts = tuple(fg.vertices())
    return matrix_of(verts, verts, ent, "kasteleyn_KF")


def _fisher_aux_dicts(fg, qg, kf):
    """Reference: X, M, kappa, I_{W,A} and D_{BQ,A} from the key dicts of
    ``fg`` and the Fisher correspondence of ``qg``, K^F read by key."""
    fqm = der.fisher_quadri_map(qg)
    b_list, a_list, bq_list = tuple(fg.b_vertices), tuple(fg.a_vertices), tuple(qg.blacks)
    kf_d, pos = kf.dense(), positions(kf.rows)
    x, m, kappa, d_bqa = {}, {}, {}, {}
    for bx, by, _eid in fg.external_edges:
        hat_x, hat_y = fqm.black_of_b[bx], fqm.black_of_b[by]
        x[(bx, hat_x)] = 1.0
        x[(bx, hat_y)] = kf_d[pos[by], pos[bx]].real
        x[(by, hat_y)] = 1.0
        x[(by, hat_x)] = kf_d[pos[bx], pos[by]].real
    for b in sorted(fg.boundary_b):
        x[(b, fqm.black_of_b[b])] = 1.0
    for b in b_list:
        a_prev, a_next = fg.triangles[b]
        m[(b, a_next)] = -fg.eps(b, a_next)
        m[(b, a_prev)] = fg.eps(b, a_prev)
    for cycle in fg.a_cycle.values():
        d = len(cycle)
        for i, a in enumerate(cycle):
            kappa[(a, a)] = 0.25
            sign = 1
            for step in range(1, d):
                prev, cur = cycle[(i + step - 1) % d], cycle[(i + step) % d]
                if fg.eps(prev, cur) == -1:
                    sign = -sign
                kappa[(a, cur)] = -0.25 * sign
    for blk in bq_list:
        a = fqm.a_of_black[blk]
        d_bqa[(blk, a)] = float(fg.eps(fqm.b_of_black[blk], a))
    i_wa = {(w, fqm.a_of_white[w]): 1.0 for w in qg.whites}
    of = matrix_of
    return {"x": of(b_list, bq_list, x, "fisher_X"), "m": of(b_list, a_list, m, "fisher_M"),
            "kappa": of(a_list, a_list, kappa, "fisher_kappa"),
            "i_wa": of(tuple(qg.whites), a_list, i_wa, "fisher_I_WA"),
            "d_bqa": of(bq_list, a_list, d_bqa, "fisher_D_BQA")}


def test_fisher_arrays_match_the_key_dict_builders():
    from conftest import get_graph

    for spec in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex",
                 "tripair", "irregular"):
        ig = get_graph(spec)
        fg, qg = der.build_fisher(ig), der.build_quadri(ig)
        fqm, verts = der.fisher_quadri_map(qg), fg.vertices()

        def keys(at):
            return [verts[n] for n in at.tolist()]

        # the arrays state the edge lists, eps, triangles, ext_of_b, a_cycle
        # and the correspondence with G_Q by position
        for at, edges in ((fg.internal_at, fg.internal_edges), (fg.external_at, fg.external_edges)):
            assert list(zip(keys(at.x), keys(at.y))) == [e[:2] for e in edges], spec
            assert at.eps.tolist() == [fg.eps(*e[:2]) for e in edges], spec
            assert at.edge.tolist() == [e[2] if len(e) == 3 else -1 for e in edges], spec
        tri, bs = fg.triangle_at, fg.b_vertices
        assert list(zip(keys(tri.prev), keys(tri.next))) == [fg.triangles[b] for b in bs], spec
        assert tri.eps_prev.tolist() == [fg.eps(b, fg.triangles[b][0]) for b in bs], spec
        assert tri.eps_next.tolist() == [fg.eps(b, fg.triangles[b][1]) for b in bs], spec
        assert tri.edge.tolist() == [b[2] for b in bs], spec
        assert [verts[n] if n >= 0 else None for n in tri.opp.tolist()] == [
            fg.ext_of_b[b][0] if b in fg.ext_of_b else None for b in bs], spec
        assert [n < 0 for n in tri.opp.tolist()] == [b in fg.boundary_b for b in bs], spec
        cyc, cycles = fg.cycle_at, list(fg.a_cycle.values())
        assert [keys(cyc.a[lo:hi]) for lo, hi in zip(cyc.ptr[:-1], cyc.ptr[1:])] == cycles, spec
        assert cyc.eps.tolist() == [fg.eps(c[i], c[(i + 1) % len(c)])
                                    for c in cycles for i in range(len(c))], spec
        assert keys(qg.black_at.fisher_b) == [fqm.b_of_black[q] for q in qg.blacks], spec
        assert keys(qg.black_at.fisher_a) == [fqm.a_of_black[q] for q in qg.blacks], spec
        assert keys(qg.white_at.fisher_a) == [fqm.a_of_white[q] for q in qg.whites], spec
        assert keys(qg.white_at.fisher_b) == [("b", fqm.a_of_white[q][1], q[1])
                                              for q in qg.whites], spec

        # the Z-invariant couplings at three moduli, and J = -0.3 throughout
        for n, couplings in enumerate([op.z_invariant_couplings(ig, complete_integrals(k))
                                       for k in (0.3, 0.6, 0.9)]
                                      + [{e: -0.3 for e in ig.edge_list()}]):
            what = (spec, n)
            kf = op.kasteleyn_KF(fg, couplings)
            _assert_same_bits(kf, _kf_dict(fg, couplings), what)
            aux, want = op.fisher_aux(fg, qg, kf), _fisher_aux_dicts(fg, qg, kf)
            for name, m in want.items():
                _assert_same_bits(getattr(aux, name), m, (*what, name))
            _assert_same_bits(op.fisher_i_wa(fg, qg), want["i_wa"], what)
