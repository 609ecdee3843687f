"""Inverses, Pfaffians, inverse-operator formulas, probabilities, oracles."""

import cmath
import itertools
import math

import numpy as np
import pytest
from conftest import get_graph, matrix_of, positions

from isodimer import derived as der
from isodimer import inference as inf
from isodimer import isoradial as iso
from isodimer import operators as op
from isodimer.derived import vkey, wkey
from isodimer.elliptic import complete_integrals
from isodimer.errors import (
    BijectionError,
    DomainError,
    LUPatternError,
    NotGaugeEquivalentError,
    OracleBudgetError,
    SingularityError,
)


def test_pfaffian_random():
    rng = np.random.default_rng(0)
    for n in (2, 4, 8, 12):
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = b - b.T
        pf = inf.pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf * pf - det) < 1e-9 * abs(det)
    assert inf.pfaffian(np.zeros((3, 3))) == 0
    with pytest.raises(DomainError):
        inf.pfaffian(rng.normal(size=(4, 4)))


def test_invert_and_logabsdet():
    assert inf.logabsdet(np.eye(5)) == 0.0
    with pytest.raises(SingularityError):
        inf.invert(np.zeros((3, 3)))
    a = np.diag([1.0, 1e-16])
    with pytest.raises(SingularityError):
        inf.invert(a)


def test_sparse_bulk_entries_match_dense_invert():
    ig = iso.make_isoradial(iso.build_square_lattice(16, 16))
    p = complete_integrals(0.5)
    g, v = inf.green_center_diagonal(ig, p)
    dm = op.delta_m_bulk(ig, p)
    i = positions(dm.rows)[vkey(v)]
    assert abs(g - inf.invert(dm)[i, i].real) <= 1e-12
    for k in (0.0, 0.3):
        pk = complete_integrals(k)
        u = iso.admissible_u(ig, pk, "base", delta=pk.bigK / 16, count=4)[1]
        p_ken, _p_form, eid = inf.center_edge_probability_gd(ig, pk, u)
        kd = op.dirac(der.build_double(ig), pk, u, "plain")
        w, b = wkey(eid), vkey(ig.rhombi[eid].v2)
        dense = kd.get(w, b) * inf.invert(kd)[positions(kd.cols)[b], positions(kd.rows)[w]]
        assert abs(p_ken - dense.real) <= 1e-12


def test_bulk_path_does_not_hash_the_graph():
    # the digest is the JSON encoding of the whole graph: only a report pays for it
    from isodimer import identities as idn

    ig = iso.make_isoradial(iso.builder_graph("square:8x8"))
    p = complete_integrals(0.6)
    u = iso.admissible_u(ig, p, "prime", delta=p.bigK / 16, count=4)[1]
    inf.green_center_diagonal(ig, p)
    inf.center_edge_probability_gd(ig, p, u)
    inf.edge_probabilities_gd(der.build_double(ig), p, u)
    assert ig._hash is None
    rep = idn.check_dirac_laplacian(idn.Workspace(ig, p), u)
    assert rep.graph == ig.graph_hash()


def test_sparse_gate_leaves_global_rng_alone():
    # the conditioning gate's norm estimate draws no random numbers: it
    # neither depends on nor moves numpy's global stream
    ig = iso.make_isoradial(iso.build_square_lattice(4, 4))
    p = complete_integrals(0.5)
    saved = np.random.get_state()
    try:
        np.random.seed(0)
        want = np.random.random()
        np.random.seed(0)
        g = inf.green_center_diagonal(ig, p)[0]
        assert np.random.random() == want
        np.random.seed(1)
        assert inf.green_center_diagonal(ig, p)[0] == g
    finally:
        np.random.set_state(saved)


def test_sparse_gate_threshold():
    # the bidiagonal matrix with 1 on the diagonal and -c above it has
    # ||A||_1 ||A^-1||_1 = 0.990e13 at c = 146.2 and 1.010e13 at c = 146.7;
    # the gate, estimating ||A^-1||_1 from the first column's lower bound,
    # passes the first and rejects the second
    keys = tuple("abcdef")
    for c, cond, ok in ((146.2, 0.990e13, True), (146.7, 1.010e13, False)):
        ent = {(x, x): 1.0 for x in keys}
        ent.update({(x, y): -c for x, y in zip(keys, keys[1:])})
        m = matrix_of(keys, keys, ent)
        d = m.dense()
        exact = np.abs(d).sum(axis=0).max() * np.abs(np.linalg.inv(d)).sum(axis=0).max()
        assert abs(exact / cond - 1.0) < 1e-3
        if ok:
            assert inf.inverse_entry(m, 0, 0) == 1.0
        else:
            with pytest.raises(SingularityError, match="conditioning gate"):
                inf.inverse_entry(m, 0, 0)


def test_sparse_inverse_entry_singular():
    # the k = 0 bulk Laplacian is massless: constants span its kernel
    ig = iso.make_isoradial(iso.build_square_lattice(4, 4))
    with pytest.raises(SingularityError, match="conditioning gate"):
        inf.green_center_diagonal(ig, complete_integrals(0.0))
    keys = ("a", "b")
    exact = matrix_of(keys, keys, {("a", "a"): 1.0, ("a", "b"): 2.0,
                                   ("b", "a"): 1.0, ("b", "b"): 2.0})
    with pytest.raises(SingularityError, match="exactly singular"):
        inf.inverse_entry(exact, 0, 0)
    tiny = matrix_of(keys, keys, {("a", "a"): 1.0, ("b", "b"): 1e-16})
    with pytest.raises(SingularityError, match="conditioning gate"):
        inf.inverse_entry(tiny, 0, 0)
    wide = matrix_of(("a",), keys, {("a", "a"): 1.0, ("a", "b"): 1.0})
    with pytest.raises(SingularityError, match="not square"):
        inf.inverse_entry(wide, 0, 0)


def dense_kenyon(m, edges):
    """Re K[r, c] K^-1[c, r] per (r, c) from a dense ``invert`` reference."""
    inv = inf.invert(m.dense())
    row_at, col_at = positions(m.rows), positions(m.cols)
    return [(m.get(r, c) * inv[col_at[c], row_at[r]]).real for r, c in edges]


def test_sparse_tables_match_dense_invert():
    ig = iso.make_isoradial(iso.build_square_lattice(16, 16))
    dg = der.build_double(ig)
    for k in (0.0, 0.6):
        p = complete_integrals(k)
        u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
        tab = inf.edge_probabilities_gd(dg, p, u)
        edges = [(wkey(w), b) for w, b in (row.edge_id for row in tab.rows)]
        ref = dense_kenyon(op.dirac(dg, p, u, "plain"), edges)
        assert len(tab.rows) == len(dg.gd_edges)
        assert max(abs(row.probability - r) for row, r in zip(tab.rows, ref)) <= 1e-12
    p = complete_integrals(0.6)
    for spec in ("square:4x3", "hex"):
        ig = iso.make_isoradial(iso.builder_graph(spec))
        qg, fg = der.build_quadri(ig), der.build_fisher(ig)
        couplings = op.z_invariant_couplings(ig, p)
        for tab, m in ((inf.edge_probabilities_gq(qg, ig, p), op.kasteleyn_KQ(qg, ig, p)),
                       (inf.edge_probabilities_gf(fg, couplings),
                        op.kasteleyn_KF(fg, couplings))):
            ref = dense_kenyon(m, [row.edge_id for row in tab.rows])
            assert all(type(row.probability) is float for row in tab.rows)
            assert max(abs(row.probability - r) for row, r in zip(tab.rows, ref)) <= 1e-12


BUILDERS = ("square:1x1", "square:2x2", "square:3x2", "hex", "tripair", "irregular")
GATE_KS = (0.0, 0.3, 0.6, 0.9)


def test_real_gauge_gate_on_every_builder():
    # the Dirac phases e^{i(alpha+beta)/2} and the KQ phases are a diagonal
    # gauge of signs: the real form keeps every modulus and passes the gate,
    # with the Dirac layout's gauge and with the BFS gauge of the matrix
    for spec in BUILDERS:
        ig = get_graph(spec)
        dg, qg = der.build_double(ig), der.build_quadri(ig)
        for k in GATE_KS:
            p = complete_integrals(k)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=4)[1]
            kds = [op.dirac(dg, p, u, "plain"), op.dirac(dg, p, u, "boundary")]
            assert all(m.gauge is not None for m in kds)
            bfs = [op.TypedSparseMatrix(m.rows, m.cols, m.i, m.j, m.vals, m.name) for m in kds]
            for m in (*kds, *bfs, op.kasteleyn_KQ(qg, ig, p)):
                r = op.real_form(m)
                assert r.vals.dtype == np.float64, (spec, k, m.name)
                assert np.array_equal(np.abs(r.vals), np.abs(m.vals)), (spec, k, m.name)


def test_real_gauge_tables_match_dense_kenyon():
    # GD, GQ and GF tables against Re K o invert(K)^T on every builder
    for spec in BUILDERS:
        ig = get_graph(spec)
        dg, qg, fg = der.build_double(ig), der.build_quadri(ig), der.build_fisher(ig)
        for k in GATE_KS:
            p = complete_integrals(k)
            u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
            couplings = op.z_invariant_couplings(ig, p)
            gd = inf.edge_probabilities_gd(dg, p, u)
            tables = ((gd, op.dirac(dg, p, u, "plain"),
                       [(wkey(w), b) for w, b in (row.edge_id for row in gd.rows)]),
                      (inf.edge_probabilities_gq(qg, ig, p), op.kasteleyn_KQ(qg, ig, p), None),
                      (inf.edge_probabilities_gf(fg, couplings), op.kasteleyn_KF(fg, couplings),
                       None))
            for tab, m, edges in tables:
                ref = dense_kenyon(m, edges or [row.edge_id for row in tab.rows])
                gap = max(abs(row.probability - r) for row, r in zip(tab.rows, ref))
                assert gap <= 1e-12, (spec, k, tab.kind, gap)


def test_selected_inverse_matches_invert():
    # Takahashi's recurrences against the dense inverse on the whole pattern
    # of m^T.  K^F on 2x2 at k = 0.5 and the real 16x16 Dirac operator at
    # k = 0 have fill entries that cancel to 0.0 in SuperLU's factors, so
    # a pattern read from those factors misses entries the recurrences read
    cases = []
    for spec in BUILDERS:
        ig = get_graph(spec)
        dg, qg, fg = der.build_double(ig), der.build_quadri(ig), der.build_fisher(ig)
        for k in GATE_KS:
            p = complete_integrals(k)
            u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
            cases += [(spec, k, op.dirac(dg, p, u, "plain")), (spec, k, op.kasteleyn_KQ(qg, ig, p)),
                      (spec, k, op.kasteleyn_KF(fg, op.z_invariant_couplings(ig, p)))]
    ig, p = get_graph("square:2x2"), complete_integrals(0.5)
    cases.append(("square:2x2", 0.5,
                  op.kasteleyn_KF(der.build_fisher(ig), op.z_invariant_couplings(ig, p))))
    ig, p = iso.make_isoradial(iso.build_square_lattice(16, 16)), complete_integrals(0.0)
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    cases.append(("square:16x16", 0.0, op.real_form(op.dirac(der.build_double(ig), p, u, "plain"))))
    for spec, k, m in cases:
        inv = inf.invert(m.dense())
        got = inf.selected_inverse(m)
        assert got.dtype == np.result_type(m.vals.dtype, np.float64), (spec, k, m.name)
        gap = np.abs(got - inv[m.j, m.i]).max()
        assert gap <= 1e-12 * np.abs(inv).max(), (spec, k, m.name, gap)


def test_structural_pattern_is_the_symbolic_factorisation():
    # the M-matrix factorisation's nonzeros against boolean elimination
    ig, p = iso.make_isoradial(iso.build_square_lattice(16, 16)), complete_integrals(0.0)
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    gd = op.real_form(op.dirac(der.build_double(ig), p, u, "plain"))
    ig = get_graph("tripair")
    couplings = op.z_invariant_couplings(ig, complete_integrals(0.5))
    for m in (gd, op.kasteleyn_KF(der.build_fisher(ig), couplings)):
        n = len(m.rows)
        lu = inf._sparse_lu(m)[1]
        bi, bj = lu.perm_r[m.i], lu.perm_c[m.j]
        filled = np.zeros((n, n), dtype=bool)
        filled[bi, bj] = True
        for k in range(n):
            after = np.arange(n) > k
            filled[np.ix_(filled[:, k] & after, filled[k] & after)] = True
        r, c = np.nonzero(filled)
        assert np.array_equal(inf._structural_keys(bi, bj, n), np.sort(c * n + r)), m.name


def test_selected_inverse_needs_the_structural_pattern(ig_2x2, params_half, monkeypatch):
    # the pattern of SuperLU's own factors lacks the fill that cancels to
    # 0.0 on K^F at k = 0.5, and a gathered key outside the pattern raises
    kf = op.kasteleyn_KF(der.build_fisher(ig_2x2), op.z_invariant_couplings(ig_2x2, params_half))
    real_lu, held = inf._sparse_lu, []

    def keep_lu(m):
        held.append(real_lu(m))
        return held[-1]

    monkeypatch.setattr(inf, "_sparse_lu", keep_lu)
    monkeypatch.setattr(inf, "_structural_keys",
                        lambda _bi, _bj, n: np.sort(inf._lu_keys(held[-1][1], n)[0]))
    with pytest.raises(LUPatternError):
        inf.selected_inverse(kf)


def _central_edge_loop(ig):
    """The scan the array argmin replaced: the first edge in edge order whose
    midpoint is nearest the mean of the vertices."""
    coords = ig.base.coords
    center = sum(coords.values()) / len(coords)
    best = None
    for eid in ig.edge_list():
        r = ig.rhombi[eid]
        d = abs(0.5 * (coords[r.v1] + coords[r.v2]) - center)
        if best is None or d < best[0]:
            best = (d, eid)
    return best[1]


def test_central_edge_matches_the_scan(params_half):
    # even sides tie four edges at the central vertex, odd ones two
    from conftest import get_graph

    for spec in ("square:2x2", "square:3x3", "square:4x3", "hex", "tripair", "irregular",
                 "square:16x16", "square:9x9"):
        ig, p = get_graph(spec), params_half
        u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
        assert inf.center_edge_probability_gd(ig, p, u)[2] == _central_edge_loop(ig), spec


def test_point_queries_stay_column_solves(ig_2x2, params_half, monkeypatch):
    def no_selected_inverse(m):
        raise AssertionError(f"{m.name}: selected inversion for a point query")

    monkeypatch.setattr(inf, "selected_inverse", no_selected_inverse)
    ig, p = ig_2x2, params_half
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    assert math.isfinite(inf.green_center_diagonal(ig, p)[0])
    assert 0.0 < inf.center_edge_probability_gd(ig, p, u)[0] < 1.0


def test_central_edge_at_the_root_reads_zero():
    # rooted at the v2 of its central edge, the 1x1 square has no Dirac entry
    # (w_e, v2): the edge's Kenyon probability in the rooted double graph is 0
    p = complete_integrals(0.5)
    ig = get_graph("square:1x1")
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    eid = inf.center_edge_probability_gd(ig, p, u)[2]
    rooted = iso.make_isoradial(iso.builder_graph("square:1x1"),
                                root_hint=ig.rhombi[eid].v2)
    u = iso.admissible_u(rooted, p, "base", delta=p.bigK / 16, count=4)[1]
    p_ken, _p_form, e = inf.center_edge_probability_gd(rooted, p, u)
    assert (p_ken, e) == (0.0, eid)


def test_real_form_rejects_a_matrix_that_is_not_gauge_real(ig_2x2, params_half, monkeypatch):
    keys = ("a", "b")
    twisted = matrix_of(keys, keys, {("a", "a"): 1.0 + 0j, ("a", "b"): 1.0,
                                     ("b", "a"): 1.0, ("b", "b"): cmath.exp(0.3j)})
    with pytest.raises(NotGaugeEquivalentError, match="not gauge-equivalent to a real"):
        op.real_form(twisted)
    # one Dirac entry turned by 0.3 rad: the table raises before any solve,
    # with the layout's gauge and with the BFS gauge of the matrix
    dg, p = der.build_double(ig_2x2), params_half
    kd = op.dirac(dg, p, 0.3, "plain")
    vals = kd.vals.copy()
    vals[5] *= cmath.exp(0.3j)
    for gauge in (kd.gauge, None):
        bad = op.TypedSparseMatrix(kd.rows, kd.cols, kd.i, kd.j, vals, "twisted", gauge=gauge)
        monkeypatch.setattr(op, "dirac", lambda *_args, m=bad: m)
        with pytest.raises(NotGaugeEquivalentError):
            inf.edge_probabilities_gd(dg, p, 0.3)


def test_sparse_tables_never_form_a_dense_matrix(ig_2x2, params_half, monkeypatch):
    def no_dense(self):
        raise AssertionError(f"{self.name}: dense() on a sparse path")

    monkeypatch.setattr(op.TypedSparseMatrix, "dense", no_dense)
    ig, p = ig_2x2, params_half
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    assert inf.edge_probabilities_gd(der.build_double(ig), p, u, closed_form=True).rows
    assert inf.edge_probabilities_gq(der.build_quadri(ig), ig, p).rows
    assert inf.edge_probabilities_gf(der.build_fisher(ig),
                                     op.z_invariant_couplings(ig, p)).rows
    inf.green_center_diagonal(ig, p)
    inf.center_edge_probability_gd(ig, p, u)


def test_sparse_table_singular(ig_2x2, params_half, monkeypatch):
    dg = der.build_double(ig_2x2)
    kd = op.dirac(dg, params_half, 0.3, "plain")
    w0 = kd.rows[0]
    # row w0 removed: the factor is exactly singular; row w0 scaled by 1e-16:
    # ||A||_1 ||A^-1||_1 is about 1e16, past the conditioning gate
    exact = {rc: v for rc, v in kd.entries.items() if rc[0] != w0}
    tiny = {rc: v * 1e-16 if rc[0] == w0 else v for rc, v in kd.entries.items()}
    for ent, msg in ((exact, "exactly singular"), (tiny, "conditioning gate")):
        m = matrix_of(kd.rows, kd.cols, ent, "singular")
        monkeypatch.setattr(op, "dirac", lambda *_args, m=m: m)
        with pytest.raises(SingularityError, match=msg):
            inf.edge_probabilities_gd(dg, params_half, 0.3)


def test_pf_equals_matching_sum(ig_1x1, ig_1x2, params_half):
    for ig in (ig_1x1, ig_1x2):
        fg = der.build_fisher(ig)
        couplings = op.z_invariant_couplings(ig, params_half)
        kf = op.kasteleyn_KF(fg, couplings)
        es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
              + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
        ws = ([1.0] * len(fg.internal_edges)
              + [math.exp(-2 * couplings[eid]) for *_xy, eid in fg.external_edges])
        _, z = der.enumerate_matchings(fg.vertices(), es, ws)
        assert abs(abs(inf.pfaffian(kf)) - z) < 1e-12 * z


def test_kd_inverse_formula_battery(ig_1x1, ig_2x2, ig_hex):
    for ig in (ig_1x1, ig_2x2, ig_hex):
        dg = der.build_double(ig)
        for k in (0.3, 0.6):
            p = complete_integrals(k)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
            formula, direct, rows, cols = inf.kd_inverse_formula(dg, p, u)
            err = np.abs(formula - direct).max() / np.abs(direct).max()
            assert err < 1e-9


def test_kd_inverse_formula_jacobi_call_guard(monkeypatch):
    """Jacobi kernel calls of one kd_inverse_formula on square:3x3 at k = 0.6:
    the per-pair coefficients made 8,431 calls of ``elliptic.jacobi``; with
    each white's coefficients evaluated once there must be at most a tenth.
    Once the (p, u) stage exists, the formula reads every value from it."""
    from isodimer import elliptic as el

    ig = iso.make_isoradial(iso.builder_graph("square:3x3"))   # no table stage yet
    p = complete_integrals(0.6)
    u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
    real, calls = el.jacobi, []

    def counting(x, p_):
        calls.append(x)
        return real(x, p_)

    monkeypatch.setattr(el, "jacobi", counting)
    formula, direct, _rows, _cols = inf.kd_inverse_formula(der.build_double(ig), p, u)
    assert 0 < len(calls) <= 8431 // 10
    assert np.abs(formula - direct).max() < 1e-9 * np.abs(direct).max()
    calls.clear()
    inf.kd_inverse_formula(der.build_double(ig), p, u)
    assert calls == []


def test_kd_inverse_special_value_bracket(ig_2x2, params_half):
    # at u_hat = (alpha+beta)/2 + K the dn brackets collapse to sqrt(k')
    import isodimer.elliptic as el

    ig, p = ig_2x2, params_half
    eid = next(e for e in ig.edge_list() if not ig.rhombi[e].boundary)
    r = ig.rhombi[eid]
    a_e = el.angle_transform(r.alpha_bar, p)
    b_e = el.angle_transform(r.beta_bar, p)
    u_hat = 0.5 * (a_e + b_e) + p.bigK
    for uu in (u_hat, u_hat - 2 * p.bigK):
        ua, ub = 0.5 * (uu - a_e), 0.5 * (uu - b_e)
        val = math.sqrt(el.dn(ua, p) * el.dn(ub, p))
        assert abs(val - math.sqrt(p.kprime)) < 1e-13
        val2 = math.sqrt(el.dn(ua - p.bigK, p) * el.dn(ub - p.bigK, p))
        assert abs(val2 - math.sqrt(p.kprime)) < 1e-13


def test_kq_inverse_formula(ig_1x1, ig_2x2, ig_hex):
    for ig in (ig_1x1, ig_2x2, ig_hex):
        dg = der.build_double(ig)
        qg = der.build_quadri(ig)
        p = complete_integrals(0.5)
        ok_blacks = []
        for blk in qg.blacks:
            _a, _b, uh, vh = inf.kq_special_values(ig, p, blk, qg)
            needed = (uh,) if qg.pair_role.get(blk[1]) else (uh, vh)
            good = True
            for uu in needed:
                try:
                    inf.invert(op.dirac(dg, p, uu, "boundary").dense())
                except Exception:
                    good = False
            if good:
                ok_blacks.append(blk)
        assert ok_blacks, "no computable black vertices at this modulus"
        pairs = [(w, b) for b in ok_blacks for w in qg.whites]
        formula, direct, whites, blacks = inf.kq_inverse_formula(qg, dg, p,
                                                                 pairs=pairs)
        mask = ~np.isnan(formula.real)
        err = np.abs(formula[mask] - direct[mask]).max() / np.abs(direct).max()
        assert err < 1e-9


def test_kq_inverse_domain_error(ig_2x2):
    # a black whose special value hits an excluded direction raises DomainError
    dg = der.build_double(ig_2x2)
    qg = der.build_quadri(ig_2x2)
    p = complete_integrals(0.5)
    bad = None
    for blk in qg.blacks:
        _a, _b, uh, vh = inf.kq_special_values(ig_2x2, p, blk, qg)
        try:
            op.dirac(dg, p, uh, "boundary")
            inf.invert(op.dirac(dg, p, uh, "boundary").dense())
        except Exception:
            bad = blk
            break
    if bad is None:
        pytest.skip("no excluded special value on this instance")
    with pytest.raises((DomainError, SingularityError)):
        inf.kq_inverse_formula(qg, dg, p, pairs=[(qg.whites[0], bad)])


def test_kq_raw_inverse_relation(ig_2x2, params_half):
    ig, p = ig_2x2, params_half
    dg = der.build_double(ig)
    qg = der.build_quadri(ig)
    u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
    kqp = op.kq_bar_partial(qg, ig, p)
    kdp = op.dirac(dg, p, u, "boundary")
    s_mat, t_mat = op.s_t_matrices(qg, dg, p, u)
    lhs = inf.invert(kqp.dense()) @ s_mat.dense()
    rhs = t_mat.dense() @ inf.invert(kdp.dense())
    assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()


def test_kq_lambda_special_value(params_half):
    # Lambda(u_hat_alpha, u_hat_beta) = [k'^{-1} sn cn]^(1/2)
    import isodimer.elliptic as el

    p = params_half
    th = 0.4 * p.bigK
    ua, ub = 0.5 * (p.bigK + th), 0.5 * (p.bigK - th)
    lam = math.sqrt(el.sn(th, p) * el.cn(th, p) * el.nd(ua, p) * el.nd(ub, p))
    expect = math.sqrt(el.sn(th, p) * el.cn(th, p) / p.kprime)
    assert abs(lam - expect) < 1e-13


def test_kf_inverse_formula(ig_2x2, ig_hex):
    for ig in (ig_2x2, ig_hex):
        fg = der.build_fisher(ig)
        qg = der.build_quadri(ig)
        p = complete_integrals(0.5)
        couplings = op.z_invariant_couplings(ig, p)
        out = inf.kf_inverse_formula(fg, qg, couplings,
                                     pairs=set(fg.a_vertices[:4]
                                               + fg.b_vertices[:4]))
        assert out["case1"] and out["case2"] and out["case3"] and out["case4"]
        for case, rows in out.items():
            for (_a, _b, formula, direct) in rows:
                assert abs(formula - direct) < 1e-9
        # negative couplings still satisfy the identities
        neg = {e: -0.3 for e in couplings}
        out2 = inf.kf_inverse_formula(fg, qg, neg,
                                      pairs=set(fg.a_vertices[:2]
                                                + fg.b_vertices[:2]))
        for case, rows in out2.items():
            for (_a, _b, formula, direct) in rows:
                assert abs(formula - direct) < 1e-9
        break  # hex covered by the acceptance battery; keep unit test fast


def test_kf_case3_cross_decoration_kappa(ig_2x2, params_half):
    fg = der.build_fisher(ig_2x2)
    qg = der.build_quadri(ig_2x2)
    couplings = op.z_invariant_couplings(ig_2x2, params_half)
    out = inf.kf_inverse_formula(fg, qg, couplings,
                                 pairs={fg.a_vertices[0]})
    kf = op.kasteleyn_KF(fg, couplings)
    # for same-decoration pairs kappa is +-1/4 or 1/4 on the diagonal;
    # across decorations the formula has no kappa term and still matches
    for (a_bar, a, formula, direct) in out["case3"]:
        assert abs(formula - direct) < 1e-10


def test_kf_inverse_formula_needs_black_a_bijection(ig_2x2, params_half, monkeypatch):
    fg, qg = der.build_fisher(ig_2x2), der.build_quadri(ig_2x2)
    couplings = op.z_invariant_couplings(ig_2x2, params_half)
    fqm = der.fisher_quadri_map(qg)
    b0, b1 = list(fqm.a_of_black)[:2]
    fqm.a_of_black[b1] = fqm.a_of_black[b0]
    monkeypatch.setattr(inf, "fisher_quadri_map", lambda _qg: fqm)
    with pytest.raises(BijectionError):
        inf.kf_inverse_formula(fg, qg, couplings, pairs={fg.a_vertices[0]})


def test_kf_zinv_case1(ig_2x2):
    p = complete_integrals(0.5)
    fg = der.build_fisher(ig_2x2)
    qg = der.build_quadri(ig_2x2)
    rows = inf.kf_zinv_case1(fg, qg, p, pairs=set(fg.a_vertices[:6]))
    assert rows
    for (_a, _b, formula, direct) in rows:
        assert abs(formula - direct) < 1e-9


def test_inverse_formulas_evaluate_once_per_vertex(monkeypatch):
    # kq_inverse_formula reads its prefactors and cn weights from the modulus
    # stage and its special values from the spectral stages, so a second call
    # evaluates nothing; kf_zinv_case1 reads the modulus stage alone.
    # Evaluated per (white, black) or (A, B) pair they made 1,234
    # (irregular), 457 (1x1) and 576 (2x2) jacobi calls
    from isodimer import elliptic as el

    calls = []
    real = el.jacobi
    monkeypatch.setattr(el, "jacobi", lambda *args: calls.append(args) or real(*args))
    p = complete_integrals(0.3)
    for spec, bound in (("irregular", 720), ("square:1x1", 230)):
        ig = iso.make_isoradial(iso.builder_graph(spec))
        calls.clear()
        qg, dg = der.build_quadri(ig), der.build_double(ig)
        formula, direct, _w, _b = inf.kq_inverse_formula(qg, dg, p)
        assert len(calls) <= bound, spec
        assert np.abs(formula - direct).max() <= 1e-9 * np.abs(direct).max()
        calls.clear()
        again, _d, _w, _b = inf.kq_inverse_formula(qg, dg, p)
        assert calls == [], spec
        assert np.array_equal(again, formula)
    ig = iso.make_isoradial(iso.build_square_lattice(2, 2))
    fg = der.build_fisher(ig)
    op.z_invariant_couplings(ig, p)     # the modulus stage, built first
    calls.clear()
    rows = inf.kf_zinv_case1(fg, der.build_quadri(ig), p)
    assert calls == []
    assert max(abs(formula - direct) for _a, _b, formula, direct in rows) < 1e-9


def test_dotsenko(ig_2x2, ig_hex):
    p = complete_integrals(0.5)
    for ig in (ig_2x2, ig_hex):
        fg = der.build_fisher(ig)
        qg = der.build_quadri(ig)
        couplings = op.z_invariant_couplings(ig, p)
        res = inf.dotsenko_residuals(fg, qg, couplings, n_samples=50)
        assert res and max(res) < 1e-10


# ---------------------------------------------------------------------------
# the Fisher inverse formulas against their per-entry references
# ---------------------------------------------------------------------------

_FISHER_SPECS = ("square:1x1", "square:2x2", "square:3x3", "square:4x3",
                 "hex", "tripair", "irregular")


def _fisher_couplings(ig):
    """Z-invariant couplings at k in {0, 0.3, 0.6, 0.9}, and J = -0.3 throughout."""
    for k in (0.0, 0.3, 0.6, 0.9):
        yield op.z_invariant_couplings(ig, complete_integrals(k))
    yield {e: -0.3 for e in ig.edge_list()}


def _case_loops_kf_inverse(fg, qg, couplings, pairs=None):
    """Reference: K_F^-1 entry by entry from K~_Q^-1, one case per loop."""
    fqm = der.fisher_quadri_map(qg)
    kqt = op.kasteleyn_KQ_real(qg, fg.ig, couplings, der.induce_orientation_GQ(fg, qg))
    kf = op.kasteleyn_KF(fg, couplings)
    kf_inv, kq_inv = inf.invert(kf.dense()), inf.invert(kqt.dense())
    kq_w, kq_b, fpos = positions(kqt.cols), positions(kqt.rows), positions(kf.rows)
    kappa = op._kappa_matrix(fg).entries
    black_of_a = {a: blk for blk, a in fqm.a_of_black.items()}
    out = {"case1": [], "case2": [], "case3": [], "case4": []}

    def case1_value(a_bar, b):
        w_bar = fqm.white_of_a[a_bar]
        b_op, eid = fg.ext_of_b[b]
        e2 = math.exp(-2.0 * couplings[eid])
        val = (kq_inv[kq_w[w_bar], kq_b[fqm.black_of_b[b]]]
               + kq_inv[kq_w[w_bar], kq_b[fqm.black_of_b[b_op]]] * fg.eps(b_op, b) * e2)
        return val / (1.0 + e2 * e2)

    for a_bar in (a for a in fg.a_vertices if pairs is None or a in pairs):
        w_bar = fqm.white_of_a[a_bar]
        for b in fg.b_vertices:
            direct = kf_inv[fpos[a_bar], fpos[b]]
            if b in fg.boundary_b:
                form = kq_inv[kq_w[w_bar], kq_b[fqm.black_of_b[b]]]
                out["case2"].append((a_bar, b, form, direct))
            else:
                out["case1"].append((a_bar, b, case1_value(a_bar, b), direct))
        for a in fg.a_vertices:
            b_hat = black_of_a[a]
            form = (-0.5 * kq_inv[kq_w[w_bar], kq_b[b_hat]] * fg.eps(fqm.b_of_black[b_hat], a)
                    + kappa.get((a_bar, a), 0.0))
            out["case3"].append((a_bar, a, form, kf_inv[fpos[a_bar], fpos[a]]))
    for b_bar in (b for b in fg.b_vertices if pairs is None or b in pairs):
        # the ccw triangle cycle (a_prev, b, a_next) reads (b, a1, a2) from b
        a2, a1 = fg.triangles[b_bar]
        for b in fg.b_vertices:
            if b not in fg.boundary_b:
                form = (-fg.eps(b_bar, a1) * case1_value(a1, b)
                        + fg.eps(b_bar, a2) * case1_value(a2, b))
                out["case4"].append((b_bar, b, form, kf_inv[fpos[b_bar], fpos[b]]))
    return out


def _config_scan_dotsenko(fg, qg, couplings, n_samples=50, seed=7):
    """Reference: Dotsenko's relation term by term, with a3 found by a scan
    of the quadri edges for the cn-white of each inner B's black."""
    fqm = der.fisher_quadri_map(qg)
    kf = op.kasteleyn_KF(fg, couplings)
    kf_inv = inf.invert(kf.dense())
    fpos = positions(kf.rows)
    rng = np.random.default_rng(seed)
    configs = []
    for b_bar in fg.b_vertices:
        if b_bar in fg.boundary_b:
            continue
        a_prev, a_next = fg.triangles[b_bar]
        b_op, eid = fg.ext_of_b[b_bar]
        blk_bar = fqm.black_of_b[b_bar]
        a1 = fqm.a_of_black[blk_bar]
        a2 = a_next if a1 == a_prev else a_prev
        cn_white = next(w for b, w, kind, _ in qg.edges if kind == "cn" and b == blk_bar)
        configs.append((b_bar, a1, a2, fqm.a_of_white[cn_white], b_op, eid))
    if not configs:
        return []
    res = []
    scale = np.abs(kf_inv).max()
    for _ in range(n_samples):
        b_bar, a1, a2, a3, b_op, eid = configs[rng.integers(len(configs))]
        decos = {a1[1], a2[1], a3[1]}
        candidates = [a for a in fg.a_vertices if a[1] not in decos]
        if not candidates:
            continue
        a = candidates[rng.integers(len(candidates))]
        j = couplings[eid]
        val = (fg.eps(b_bar, a1) * kf_inv[fpos[a1], fpos[a]]
               + fg.eps(b_bar, a2) * math.tanh(2.0 * j) * kf_inv[fpos[a2], fpos[a]]
               + fg.eps(b_bar, b_op) * fg.eps(b_op, a3) / math.cosh(2.0 * j)
               * kf_inv[fpos[a3], fpos[a]])
        res.append(abs(val) / max(scale, 1e-30))
    return res


@pytest.mark.parametrize("spec", _FISHER_SPECS)
def test_kf_inverse_blocks_match_case_loops(spec):
    ig = get_graph(spec)
    fg, qg = der.build_fisher(ig), der.build_quadri(ig)
    for couplings in _fisher_couplings(ig):
        for pairs in (None, set(fg.a_vertices[:3] + fg.b_vertices[:3])):
            got = inf.kf_inverse_formula(fg, qg, couplings, pairs=pairs)
            ref = _case_loops_kf_inverse(fg, qg, couplings, pairs=pairs)
            assert list(got) == list(ref)
            for case in ref:
                assert [r[:2] for r in got[case]] == [r[:2] for r in ref[case]], case
                for (_r, _c, f, d), (_rr, _cc, f_ref, d_ref) in zip(got[case], ref[case]):
                    assert d == d_ref
                    assert abs(f - f_ref) <= 1e-13


@pytest.mark.parametrize("spec", _FISHER_SPECS)
def test_dotsenko_rows_match_config_scan(spec):
    ig = get_graph(spec)
    fg, qg = der.build_fisher(ig), der.build_quadri(ig)
    for couplings in _fisher_couplings(ig):
        for seed in (7, 1):
            got = inf.dotsenko_residuals(fg, qg, couplings, n_samples=50, seed=seed)
            ref = _config_scan_dotsenko(fg, qg, couplings, n_samples=50, seed=seed)
            assert len(got) == len(ref)
            assert all(abs(x - y) <= 1e-15 for x, y in zip(got, ref))
    if spec == "square:1x1":
        assert got == []        # no inner B


def gd_oracle_frequencies(dg, p, u):
    kd = op.dirac(dg, p, u, "plain")
    edges = sorted(dg.gd_edges)
    vs = sorted({wkey(w) for w, _b in edges} | {b for _w, b in edges}, key=str)
    es = [tuple(sorted((wkey(w), b), key=str)) for (w, b) in edges]
    weights = [abs(kd.get(wkey(w), b)) for (w, b) in edges]
    _, z, marg = der.enumerate_matchings(vs, es, weights, marginals=True)
    return {edges[i]: marg[i] / z for i in range(len(edges))}


def test_gd_probabilities_vs_oracle(ig_1x1, ig_1x2):
    for ig in (ig_1x1, ig_1x2):
        dg = der.build_double(ig)
        for k in (0.0, 0.5, 0.9):
            p = complete_integrals(k)
            for u in iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=2):
                tab = inf.edge_probabilities_gd(dg, p, u)
                freq = gd_oracle_frequencies(dg, p, u)
                for row in tab.rows:
                    assert abs(row.probability - freq[row.edge_id]) < 1e-9
                inc = {}
                for (w, b) in freq:
                    inc.setdefault(wkey(w), []).append((w, b))
                    inc.setdefault(b, []).append((w, b))
                assert tab.vertex_sum_defect(inc) < 1e-9


def test_vertex_sum_defect_keeps_a_nan(ig_2x2, params_half):
    # max(worst, nan) keeps worst, so a NaN probability once read as defect 0
    dg, p = der.build_double(ig_2x2), params_half
    u = iso.admissible_u(ig_2x2, p, "base", delta=p.bigK / 16, count=4)[1]
    tab = inf.edge_probabilities_gd(dg, p, u)
    inc = {}
    for (w, b) in dg.gd_edges:
        inc.setdefault(wkey(w), []).append((w, b))
        inc.setdefault(b, []).append((w, b))
    prob = {r.edge_id: r.probability for r in tab.rows}
    assert tab.vertex_sum_defect(inc) == max(abs(1.0 - sum(prob[e] for e in edges))
                                             for edges in inc.values())
    last = list(inc.values())[-1][-1]
    next(r for r in tab.rows if r.edge_id == last).probability = math.nan
    assert math.isnan(tab.vertex_sum_defect(inc))


def test_gq_probabilities_single_square(ig_1x1, params_half):
    qg = der.build_quadri(ig_1x1)
    tab = inf.edge_probabilities_gq(qg, ig_1x1, params_half)
    # 16-cycle: the two matchings have equal weight (all weights 1), so every
    # edge probability is 1/2
    for row in tab.rows:
        assert abs(row.probability - 0.5) < 1e-12


def test_gf_probabilities_and_example_relations(ig_2x2, params_half):
    ig, p = ig_2x2, params_half
    fg = der.build_fisher(ig)
    qg = der.build_quadri(ig)
    couplings = op.z_invariant_couplings(ig, p)
    tab = inf.edge_probabilities_gf(fg, couplings)
    p_by_edge = {}
    for row in tab.rows:
        p_by_edge[tuple(sorted(row.edge_id, key=str))] = row.probability
        # probabilities lie in [0, 1]
        assert -1e-12 < row.probability < 1 + 1e-12
    # example relations against the quadri probabilities
    tab_q = inf.edge_probabilities_gq(qg, ig, p)
    pq = {}
    for row in tab_q.rows:
        pq[row.edge_id] = row.probability
    fqm = der.fisher_quadri_map(qg)
    checked = 0
    for b, bw_list in [(bb, None) for bb in fg.b_vertices]:
        if b in fg.boundary_b:
            continue
        a_prev, a_next = fg.triangles[b]
        blk = fqm.black_of_b[b]
        th = ig.rhombi[blk[1]].theta_bar
        import isodimer.elliptic as el

        tanh2j = el.sn(el.theta_transform(th, p), p)
        sn_white = next(w for bb, w, kind, _ in qg.edges
                        if kind == "sn" and bb == blk)
        p_bw = pq[(blk, sn_white)]
        p_aa = p_by_edge[tuple(sorted((a_prev, a_next), key=str))]
        assert abs(p_aa - (0.25 - p_bw / (2 * tanh2j))) < 1e-10
        p_ab = p_by_edge[tuple(sorted((b, a_prev), key=str))]
        p_ab2 = p_by_edge[tuple(sorted((b, a_next), key=str))]
        assert abs(p_ab - (0.25 + p_bw / (2 * tanh2j))) < 1e-10
        assert abs(p_ab2 - p_ab) < 1e-10
        checked += 1
    assert checked > 0


def test_gf_probabilities_vs_oracle(ig_1x2, params_half):
    fg = der.build_fisher(ig_1x2)
    couplings = op.z_invariant_couplings(ig_1x2, params_half)
    tab = inf.edge_probabilities_gf(fg, couplings)
    es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
          + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
    weights = ([1.0] * len(fg.internal_edges)
               + [math.exp(-2 * couplings[eid])
                  for *_xy, eid in fg.external_edges])
    _, z, marg = der.enumerate_matchings(fg.vertices(), es, weights,
                                         marginals=True)
    freq = {es[i]: marg[i] / z for i in range(len(es))}
    for row in tab.rows:
        key = tuple(sorted(row.edge_id, key=str))
        assert abs(row.probability - freq[key]) < 1e-9


def test_partition_oracles(ig_1x1, ig_2x2, ig_3x3):
    # single square: only the empty polygon configuration survives, so
    # Z+ = prod e^{J_e} exactly
    p = complete_integrals(0.5)
    couplings = op.z_invariant_couplings(ig_1x1, p)
    z1 = inf.brute_force_spins(ig_1x1, couplings)
    assert abs(math.log(z1.weighted_sum) - sum(couplings.values())) < 1e-12
    # spins = LTE polygons = Fisher Pfaffian = quadri determinant
    for ig in (ig_1x1, ig_2x2, ig_3x3):
        p = complete_integrals(0.5)
        couplings = op.z_invariant_couplings(ig, p)
        zs = inf.brute_force_spins(ig, couplings)
        zp = inf.brute_force_polygons(ig, couplings)
        assert abs(math.log(zs.weighted_sum) - math.log(zp.weighted_sum)) < 1e-9
        fg = der.build_fisher(ig)
        kf = op.kasteleyn_KF(fg, couplings)
        n_f = len(ig.face_centers)
        log_z1 = (-n_f * math.log(2.0) + sum(couplings.values())
                  + math.log(abs(inf.pfaffian(kf))))
        assert abs(math.log(zs.weighted_sum) - log_z1) < 1e-9


def test_forest_oracle_matches_determinant(ig_1x1, params_half):
    import isodimer.elliptic as el

    oc = inf.brute_force_forests(["a", "b"], [("a", "b", 2.0), ("b", "a", 2.0)],
                                 {"a": 0.7, "b": 1.3})
    assert abs(oc.weighted_sum - (0.7 * 1.3 + 2.0 * (0.7 + 1.3))) < 1e-12
    # bulk massive Laplacian of the single square vs rdSF enumeration
    ig, p = ig_1x1, params_half
    dm = op.delta_m_bulk(ig, p)
    verts = sorted(ig.base.coords)
    edges, masses = [], {}
    for eid in ig.edge_list():
        r = ig.rhombi[eid]
        rho = float(dm.get(vkey(r.v1), vkey(r.v2)).real) * -1.0
        edges.append((r.v1, r.v2, rho))
        edges.append((r.v2, r.v1, rho))
    for v in verts:
        s = float(dm.get(vkey(v), vkey(v)).real)
        for w in ig.base.adj[v]:
            eid = ig.edge_ids[(min(v, w), max(v, w))]
            s += float(dm.get(vkey(v), vkey(w)).real)
        masses[v] = s
    oc2 = inf.brute_force_forests(verts, edges, masses, budget=10 ** 7)
    assert abs(math.log(oc2.weighted_sum) - inf.logabsdet(dm.dense())) < 1e-9


def test_dst_pairs_vs_unit_determinant(ig_1x1, ig_1x2, ig_3x3, ig_4x3):
    for ig, expect in ((ig_1x1, 8), (ig_1x2, None), (ig_3x3, 1_881_600),
                       (ig_4x3, 137_944_800)):
        dg = der.build_double(ig)
        oc = inf.brute_force_dst_pairs(ig)
        det = abs(np.linalg.det(inf.unit_dirac(dg).dense()))
        assert abs(det - oc.count) <= 1e-12 * det
        assert oc.weighted_sum == float(oc.count)
        if expect is not None:
            assert oc.count == expect
        # cross-check with the matrix-tree count of the primal graph
        verts = sorted(ig.base.coords)
        lap = np.zeros((len(verts), len(verts)))
        pos = {v: i for i, v in enumerate(verts)}
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            i, j = pos[r.v1], pos[r.v2]
            lap[i, i] += 1
            lap[j, j] += 1
            lap[i, j] -= 1
            lap[j, i] -= 1
        count = round(float(np.linalg.det(lap[1:, 1:])))
        assert count == oc.count


def test_oracle_budget(ig_3x3, params_half):
    couplings = op.z_invariant_couplings(ig_3x3, params_half)
    with pytest.raises(OracleBudgetError):
        inf.brute_force_polygons(ig_3x3, couplings, budget=4)
    # the spin budget counts frontier states: 43 on 3x3, for 16 configurations
    assert inf.brute_force_spins(ig_3x3, couplings, budget=43).count == 16
    with pytest.raises(OracleBudgetError):
        inf.brute_force_spins(ig_3x3, couplings, budget=42)


def test_probability_csv(ig_1x1, params_half):
    dg = der.build_double(ig_1x1)
    tab = inf.edge_probabilities_gd(dg, params_half, 0.3, closed_form=True)
    text = tab.to_csv()
    assert text.splitlines()[0] == "edge_id,role,p_kenyon,p_closed_form,gap"
    assert len(text.splitlines()) == 1 + len(tab.rows)


def test_gq_center_probability_trio():
    # center quadrangle of a truncation: the external edge carries probability
    # exactly 1/2; the quadrangle pair approaches (H(2 theta), 1/2 - H(2 theta))
    # at the massive convergence rate (see the criterion-6 analysis for why
    # 12x12 at k=0.5 reaches ~3e-3 while k=0 only ~2e-2)
    import isodimer.elliptic as el

    ig = iso.make_isoradial(iso.build_square_lattice(12, 12))
    for k, tol in ((0.0, 4e-2), (0.5, 5e-3)):
        p = complete_integrals(k)
        qg = der.build_quadri(ig)
        kq = op.kasteleyn_KQ(qg, ig, p)
        invq = inf.invert(kq.dense())
        wq = {w: i for i, w in enumerate(kq.cols)}
        bq = {b: i for i, b in enumerate(kq.rows)}
        coords = ig.base.coords
        center = sum(coords.values()) / len(coords)
        best = min((abs(0.5 * (coords[ig.rhombi[e].v1]
                               + coords[ig.rhombi[e].v2]) - center), e)
                   for e in ig.edge_list() if not ig.rhombi[e].boundary)[1]
        probs = {}
        for blk, wht, kind, _ in qg.edges:
            if blk == ("q", best, 1):
                probs[kind] = float((kq.get(blk, wht)
                                     * invq[wq[wht], bq[blk]]).real)
        th = el.theta_transform(ig.rhombi[best].theta_bar, p)
        h2t = el.h_fun(2.0 * th, p)
        assert abs(probs["ext"] - 0.5) < 1e-12
        assert abs(probs["sn"] - h2t) < tol
        assert abs(probs["cn"] - (0.5 - h2t)) < tol
        assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_kq_inverse_full_coverage_irregular():
    # on a generic (asymmetric) instance no special value collides with an
    # excluded direction: every black vertex is computable
    ig = iso.make_isoradial(iso.builder_graph("irregular"))
    dg = der.build_double(ig)
    qg = der.build_quadri(ig)
    p = complete_integrals(0.5)
    pairs = [(w, b) for b in qg.blacks for w in qg.whites]
    formula, direct, _w, _b = inf.kq_inverse_formula(qg, dg, p, pairs=pairs)
    assert not np.isnan(formula.real).any()
    err = np.abs(formula - direct).max() / np.abs(direct).max()
    assert err < 1e-9


# ---------------------------------------------------------------------------
# the rooted-forest engine against plain exhaustive references
# ---------------------------------------------------------------------------

_TREE_SPECS = ("square:1x1", "square:1x2", "square:2x2", "hex", "tripair", "irregular")


def _subset_scan_trees(ig):
    """Reference: every (|V| - 1)-edge subset of the primal graph that connects it."""
    verts = sorted(ig.base.coords)
    trees = []
    for keep in itertools.combinations(ig.edge_list(), len(verts) - 1):
        adj = {}
        for eid in keep:
            r = ig.rhombi[eid]
            adj.setdefault(r.v1, []).append(r.v2)
            adj.setdefault(r.v2, []).append(r.v1)
        seen, stack = {verts[0]}, [verts[0]]
        while stack:
            for y in adj.get(stack.pop(), []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == len(verts):
            trees.append(frozenset(keep))
    return trees


def _end_of_branch_forests(options):
    """Reference: every vertex takes every option; acyclicity is checked only
    once all have chosen.  Returns (count, weighted sum)."""
    vs = list(options)
    count, total = 0, 0.0
    for picks in itertools.product(*(options[v] for v in vs)):
        choice = {v: tgt for v, (tgt, _rho) in zip(vs, picks)}
        acyclic = True
        for v in vs:
            seen, cur = set(), v
            while cur in choice and acyclic:
                acyclic = cur not in seen
                seen.add(cur)
                cur = choice[cur]
        if acyclic:
            w = 1.0
            for _tgt, rho in picks:
                w *= rho
            count += 1
            total += w
    return count, total


def _dual_tree_out(ig, co_edges):
    """Reference: the crossed edge id of each face's arc in the dual tree on
    ``co_edges``, directed toward the outer vertex by a search from it."""
    adj = {}
    for eid in co_edges:
        r = ig.rhombi[eid]
        fb = r.f2 if r.f2 is not None else "outer"
        adj.setdefault(r.f1, []).append((fb, eid))
        adj.setdefault(fb, []).append((r.f1, eid))
    out, stack = {"outer": None}, ["outer"]
    while stack:
        x = stack.pop()
        for y, eid in adj.get(x, []):
            if y not in out:
                out[y] = eid
                stack.append(y)
    del out["outer"]
    assert len(out) == len(ig.face_centers)     # the complement is a dual spanning tree
    return out


def test_rooted_trees_match_subset_scan():
    from conftest import get_graph

    rng = np.random.default_rng(11)
    for spec in _TREE_SPECS:
        ig = get_graph(spec)
        ref = _subset_scan_trees(ig)
        unit = inf.brute_force_dst_pairs(ig)
        assert unit.count == len(ref) and unit.weighted_sum == float(len(ref))
        # weighted: primal tree directed to the root, dual tree its complement
        wp = {}
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            wp[(r.v1, r.v2)], wp[(r.v2, r.v1)] = rng.uniform(0.5, 2.0, size=2)
        wd = {(f, eid): float(rng.uniform(0.5, 2.0))
              for eid in ig.edge_list() for f in (ig.rhombi[eid].f1, ig.rhombi[eid].f2)
              if f is not None}
        want = 0.0
        for tree in ref:
            adj = {}
            for eid in tree:
                r = ig.rhombi[eid]
                adj.setdefault(r.v1, []).append(r.v2)
                adj.setdefault(r.v2, []).append(r.v1)
            w, parent, stack = 1.0, {ig.root: None}, [ig.root]
            while stack:
                x = stack.pop()
                for y in adj.get(x, []):
                    if y not in parent:
                        parent[y] = x
                        w *= wp[(y, x)]
                        stack.append(y)
            co = [e for e in ig.edge_list() if e not in tree]
            for f, eid in _dual_tree_out(ig, co).items():
                w *= wd[(f, eid)]
            want += w
        oc = inf.brute_force_dst_pairs(ig, weights_primal=wp, weights_dual=wd)
        assert oc.count == len(ref)
        assert abs(oc.weighted_sum - want) <= 1e-12 * want


def test_forests_and_outer_trees_match_end_of_branch_reference():
    from conftest import get_graph

    rng = np.random.default_rng(5)
    for spec in _TREE_SPECS:
        ig = get_graph(spec)
        # outer-rooted trees of the augmented dual
        gamma = {(f, eid): float(rng.uniform(0.5, 2.0))
                 for eid in ig.edge_list() for f in (ig.rhombi[eid].f1, ig.rhombi[eid].f2)
                 if f is not None}
        options = {f: [] for f in range(len(ig.face_centers))}
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            options[r.f1].append((r.f2 if r.f2 is not None else "outer", gamma[(r.f1, eid)]))
            if r.f2 is not None:
                options[r.f2].append((r.f1, gamma[(r.f2, eid)]))
        count, total = _end_of_branch_forests(options)
        oc = inf.brute_force_outer_trees(ig, gamma)
        assert oc.count == count and abs(oc.weighted_sum - total) <= 1e-12 * total
        unit = inf.brute_force_outer_trees(ig, dict.fromkeys(gamma, 1.0))
        assert unit.count == count and unit.weighted_sum == float(count)
        # rooted forests of the primal graph; the larger graphs overflow the reference
        if len(ig.base.coords) > 10:
            continue
        verts = sorted(ig.base.coords)
        edges = []
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            edges += [(r.v1, r.v2, float(rng.uniform(0.5, 2.0))),
                      (r.v2, r.v1, float(rng.uniform(0.5, 2.0)))]
        masses = {v: float(rng.uniform(0.1, 1.0)) for v in verts}
        options = {v: [(None, masses[v])] for v in verts}
        for x, y, rho in edges:
            options[x].append((y, rho))
        count, total = _end_of_branch_forests(options)
        oc = inf.brute_force_forests(verts, edges, masses)
        assert oc.count == count and abs(oc.weighted_sum - total) <= 1e-12 * total
        unit = inf.brute_force_forests(verts, [(x, y, 1.0) for x, y, _ in edges],
                                       dict.fromkeys(verts, 1.0))
        assert unit.count == count and unit.weighted_sum == float(count)


def test_outer_trees_match_directed_laplacian(ig_2x2, ig_hex):
    from conftest import ScalarOperators

    for ig in (ig_2x2, ig_hex):
        for k in (0.3, 0.8):
            p = complete_integrals(k)
            dg = der.build_double(ig)
            u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=3)[1]
            ref = ScalarOperators(ig, p)
            gamma = {}
            for eid in ig.edge_list():
                r = ig.rhombi[eid]
                for f in (r.f1, r.f2):
                    if f is not None:
                        gamma[(f, eid)] = ref.gamma_star(dg, u, eid, f)
            oc = inf.brute_force_outer_trees(ig, gamma)
            _, dstar = op.kd_gauge_and_directed_laplacian(dg, p, u)
            assert abs(math.log(oc.weighted_sum) - inf.logabsdet(dstar.dense())) < 1e-12


def test_dst_pairs_need_euler(ig_1x1, monkeypatch):
    # one face fewer breaks |V| - 1 + |F| = |E|, which makes the dual tree
    # the complement of the primal one: the weighted sum is refused
    monkeypatch.setattr(ig_1x1, "face_centers", ig_1x1.face_centers[:-1])
    with pytest.raises(BijectionError, match="complement"):
        inf.brute_force_dst_pairs(ig_1x1, weights_dual={})


def test_dst_pairs_budget(ig_3x3):
    # 1,881,600 spanning trees in 8,035 frontier states: the budget counts states
    assert inf.brute_force_dst_pairs(ig_3x3, budget=8035).count == 1_881_600
    with pytest.raises(OracleBudgetError):
        inf.brute_force_dst_pairs(ig_3x3, budget=8034)

