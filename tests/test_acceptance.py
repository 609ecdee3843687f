"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Two criteria check a displayed value of the
source through the quantity it stands for:

* criterion 6 holds its 5e-3 bulk tolerances on a 96 x 96 truncation.  At
  k = 0 the centre-edge gap falls only as 0.417/L (the Temperleyan root at
  criticality), so 5e-3 needs L >= 84; off criticality the gaps fall off
  exponentially with the correlation length, about 10 lattice units at
  k = 0.5.  An independent Fourier oracle confirms the infinite-volume Green
  target to 1e-14.
* criterion 7 reads the displayed interior-mass value 2 sqrt(k')/(1+k') as
  what it equals, the survival probability; the mass the operator carries is
  2 (k'^(-1/2) - 1)^2, the value the two survival displays pin, and it
  vanishes at criticality.
"""

import math

import numpy as np

from isodimer import derived as der
from isodimer import elliptic as el
from isodimer import identities as idn
from isodimer import inference as inf
from isodimer import isoradial as iso
from isodimer import operators as op
from isodimer.derived import wkey
from isodimer.elliptic import complete_integrals

BATTERY = ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex")
BATTERY_KS = (0.0, 0.3, 0.6, 0.9)


def _line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def battery_graphs():
    from conftest import get_graph

    return [(spec, get_graph(spec)) for spec in BATTERY]


def test_criterion_1_elliptic_battery():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        k = rng.uniform(0.0, 0.95)
        p = complete_integrals(k)
        u = rng.uniform(-2.0 * p.bigK, 6.0 * p.bigK)
        s, c, d = el.jacobi(u, p)
        worst = max(worst, abs(s * s + c * c - 1.0),
                    abs(d * d + k * k * s * s - 1.0))
        s2, c2, d2 = el.jacobi(u + 2.0 * p.bigK, p)
        worst = max(worst, abs(d2 - d), abs(c2 + c), abs(s2 + s))
        lhs = el.cn(u, p) ** 2 + el.cn(p.bigK - u, p) ** 2
        worst = max(worst, abs(lhs - 2.0 / (1.0 + el.nd(2.0 * u, p))))
        if k > 0:
            worst = max(worst, abs(p.bigE * p.bigKprime + p.bigEprime * p.bigK
                                   - p.bigK * p.bigKprime - math.pi / 2))
    h_worst = 0.0
    for k in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        p = complete_integrals(k)
        h_worst = max(h_worst, abs(el.h_fun(2.0 * p.bigK, p) - 0.5))
    p_small = complete_integrals(1e-4)
    lim_worst = max(abs(el.h_fun(u, p_small) - u / (2.0 * math.pi))
                    for u in np.linspace(0.0, 4.0 * p_small.bigK, 33))
    ok = worst <= 1e-12 and h_worst <= 1e-10 and lim_worst <= 1e-4
    _line("criterion 1 (elliptic battery)", ok,
          f"identities {worst:.2e} <= 1e-12, H(2K) {h_worst:.2e} <= 1e-10, "
          f"small-k {lim_worst:.2e} <= 1e-4")
    assert ok


def test_criterion_2_theorem_battery():
    worst = 0.0
    all_ok = True
    for spec, ig in battery_graphs():
        reports = idn.run_battery(ig, ks=BATTERY_KS, u_count=4, tol=1e-8)
        bad = [r for r in reports if not r.passed]
        worst = max(worst, max(r.residual for r in reports))
        all_ok &= not bad
    # negative controls must fail
    ig = battery_graphs()[1][1]
    neg = idn.run_battery(ig, ks=(0.6,), u_count=1, negative_control=True)
    neg_ok = all(not r.passed for r in neg if r.name != "z_invariance")
    ok = all_ok and neg_ok
    _line("criterion 2 (theorem battery)", ok,
          f"worst residual {worst:.2e} <= 1e-8 on {len(BATTERY)} graphs x "
          f"{len(BATTERY_KS)} moduli x 4 u; negative controls fail: {neg_ok}")
    assert ok


def test_criterion_3_star_triangle():
    rng = np.random.default_rng(23)
    worst = 0.0
    for k in (0.15, 0.5, 0.85):
        p = complete_integrals(k)
        triples = 0
        while triples < 20:
            x = rng.uniform(0.15, 0.85, size=3)
            th = 2.0 * p.bigK * x / x.sum()
            if th.max() > 0.95 * p.bigK:
                continue
            triples += 1
            for _ in range(5):
                u = float(rng.uniform(0.0, 4.0 * p.bigK))
                rep = idn.check_z_invariance(p, list(th), u,
                                             alpha1=float(rng.uniform(0, 4 * p.bigK)))
                worst = max(worst, rep.residual)
    ok = worst <= 1e-10
    _line("criterion 3 (star-triangle)", ok, f"worst ratio residual {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_4_oracle_equivalences():
    worst = 0.0
    for spec in ("square:1x1", "square:2x2", "square:3x3", "hex"):
        from conftest import get_graph

        ig = get_graph(spec)
        p = complete_integrals(0.5)
        couplings = op.z_invariant_couplings(ig, p)
        z_spin = inf.brute_force_spins(ig, couplings).weighted_sum
        z_poly = inf.brute_force_polygons(ig, couplings).weighted_sum
        worst = max(worst, abs(math.log(z_spin) - math.log(z_poly)))
        fg = der.build_fisher(ig)
        kf = op.kasteleyn_KF(fg, couplings)
        n_f = len(ig.face_centers)
        log_z1 = (-n_f * math.log(2.0) + sum(couplings.values())
                  + math.log(abs(inf.pfaffian(kf))))
        worst = max(worst, abs(math.log(z_spin) - log_z1))
        qg = der.build_quadri(ig)
        eps_q = der.induce_orientation_GQ(fg, qg)
        kqt = op.kasteleyn_KQ_real(qg, ig, couplings, eps_q)
        bnd = [e for e in ig.edge_list() if ig.rhombi[e].boundary]
        log_z2 = ((len(ig.base.coords) - 1) * math.log(2.0)
                  + sum(2.0 * couplings[e] - math.log(2.0) for e in bnd)
                  + sum(math.log(math.cosh(2.0 * couplings[eid]))
                        for (_f, eid) in ig.dual_edges)
                  + inf.logabsdet(kqt.dense()))
        worst = max(worst, abs(2.0 * math.log(z_spin) - log_z2))
        ws = idn.Workspace(ig, p)
        u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
        worst = max(worst, abs(2.0 * math.log(z_spin)
                               - idn.log_z_plus_squared_formula(ws, u)))
    # forests = det(massive Laplacian)
    oc = inf.brute_force_forests(["a", "b"], [("a", "b", 2.0), ("b", "a", 2.0)],
                                 {"a": 0.7, "b": 1.3})
    worst = max(worst, abs(oc.weighted_sum - (0.7 * 1.3 + 2.0 * 2.0)))
    from conftest import get_graph

    ig1 = get_graph("square:1x1")
    p = complete_integrals(0.5)
    dm = op.delta_m_bulk(ig1, p)
    verts = sorted(ig1.base.coords)
    edges, masses = [], {}
    for eid in ig1.edge_list():
        r = ig1.rhombi[eid]
        rho = -float(dm.get(("v", r.v1), ("v", r.v2)).real)
        edges.append((r.v1, r.v2, rho))
        edges.append((r.v2, r.v1, rho))
    for v in verts:
        s = float(dm.get(("v", v), ("v", v)).real)
        for w in ig1.base.adj[v]:
            s += float(dm.get(("v", v), ("v", w)).real)
        masses[v] = s
    ocf = inf.brute_force_forests(verts, edges, masses, budget=10 ** 7)
    worst = max(worst, abs(math.log(ocf.weighted_sum) - inf.logabsdet(dm.dense())))
    # dST pairs = |det| at unit weights; exact single-square counts
    dst = inf.brute_force_dst_pairs(ig1)
    det = abs(np.linalg.det(inf.unit_dirac(der.build_double(ig1)).dense()))
    counts_ok = dst.count == 8 and abs(det - 8.0) < 1e-9
    fisher_es = [tuple(sorted(e, key=str)) for e in der.build_fisher(ig1).internal_edges]
    n_fisher, _ = der.enumerate_matchings(der.build_fisher(ig1).vertices(), fisher_es)
    counts_ok &= n_fisher == 2      # = 2^{|V*|} x |P(Gs*)| = 2 x 1
    ok = worst <= 1e-9 and counts_ok
    _line("criterion 4 (oracle equivalences)", ok,
          f"worst log-gap {worst:.2e} <= 1e-9; single-square counts "
          f"(8 trees, 2 Fisher matchings): {counts_ok}")
    assert ok


def test_criterion_5_inverse_formulas():
    worst_kd = worst_kq = worst_kf = worst_dot = worst_ken = 0.0
    from conftest import get_graph

    for spec, ig in battery_graphs():
        dg = der.build_double(ig)
        for k in (0.3, 0.6):
            p = complete_integrals(k)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=3)[1]
            formula, direct, _r, _c = inf.kd_inverse_formula(dg, p, u)
            worst_kd = max(worst_kd, np.abs(formula - direct).max()
                           / np.abs(direct).max())
    # kq on admissible blacks of each battery instance
    p = complete_integrals(0.5)
    kq_entries = 0
    for spec, ig in battery_graphs():
        dg = der.build_double(ig)
        qg = der.build_quadri(ig)
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
        if not ok_blacks:
            continue
        pairs = [(w, b) for b in ok_blacks for w in qg.whites]
        formula, direct, _w, _b = inf.kq_inverse_formula(qg, dg, p, pairs=pairs)
        mask = ~np.isnan(formula.real)
        kq_entries += int(mask.sum())
        worst_kq = max(worst_kq, np.abs(formula[mask] - direct[mask]).max()
                       / np.abs(direct).max())
    # kf on two instances, all four cases + Dotsenko
    for spec in ("square:2x2", "hex"):
        ig = get_graph(spec)
        fg = der.build_fisher(ig)
        qg = der.build_quadri(ig)
        couplings = op.z_invariant_couplings(ig, p)
        out = inf.kf_inverse_formula(fg, qg, couplings)
        for case, rows in out.items():
            for (_a, _b, f_val, d_val) in rows:
                worst_kf = max(worst_kf, abs(f_val - d_val))
        res = inf.dotsenko_residuals(fg, qg, couplings, n_samples=50)
        worst_dot = max(worst_dot, max(res))
        rows = inf.kf_zinv_case1(fg, qg, p)
        for (_a, _b, f_val, d_val) in rows:
            worst_kf = max(worst_kf, abs(f_val - d_val))
    # Kenyon probabilities vs oracle frequencies, and per-vertex sums
    for spec in ("square:1x1", "square:1x2"):
        ig = get_graph(spec)
        dg = der.build_double(ig)
        u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=3)[1]
        tab = inf.edge_probabilities_gd(dg, p, u)
        kd = op.dirac(dg, p, u, "plain")
        edges = sorted(dg.gd_edges)
        vs = sorted({wkey(w) for w, _b in edges} | {b for _w, b in edges}, key=str)
        es = [tuple(sorted((wkey(w), b), key=str)) for (w, b) in edges]
        weights = [abs(kd.get(wkey(w), b)) for (w, b) in edges]
        _n, z, marg = der.enumerate_matchings(vs, es, weights, marginals=True)
        freq = {edges[i]: marg[i] / z for i in range(len(edges))}
        for row in tab.rows:
            worst_ken = idn._worst(worst_ken, abs(row.probability - freq[row.edge_id]))
        inc = {}
        for (w, b) in edges:
            inc.setdefault(wkey(w), []).append((w, b))
            inc.setdefault(b, []).append((w, b))
        worst_ken = idn._worst(worst_ken, tab.vertex_sum_defect(inc))
    ok = (worst_kd <= 1e-9 and worst_kq <= 1e-9 and worst_kf <= 1e-9
          and worst_dot <= 1e-10 and worst_ken <= 1e-9 and kq_entries > 0)
    _line("criterion 5 (inverse formulas)", ok,
          f"kd {worst_kd:.2e}, kq {worst_kq:.2e} ({kq_entries} entries), "
          f"kf {worst_kf:.2e} <= 1e-9; dotsenko {worst_dot:.2e} <= 1e-10; "
          f"kenyon-vs-oracle {worst_ken:.2e} <= 1e-9")
    assert ok


def test_criterion_6_bulk_attainable():
    """The attainable parts: monotone Green convergence toward k'K'/pi
    (target independently confirmed by a Fourier oracle) and the k=0.6
    center-edge closed form within 5e-3."""
    p = complete_integrals(0.5)
    target = p.kprime * p.bigKprime / math.pi
    # independent Fourier oracle for the infinite-volume diagonal
    rho = el.sc(0.5 * p.bigK, p)
    mass = 4.0 * (el.a_fun(0.5 * p.bigK, p) - rho)
    n_grid = 2048
    x = (np.arange(n_grid) + 0.5) * (2.0 * math.pi / n_grid)
    xx, yy = np.meshgrid(x, x, sparse=True)
    fourier = float((1.0 / (mass + 2 * rho * (2 - np.cos(xx) - np.cos(yy)))).mean())
    fourier_ok = abs(fourier - target) < 1e-9
    gaps = []
    for n in (8, 12, 16):
        ig = iso.make_isoradial(iso.build_square_lattice(n, n))
        g, _v = inf.green_center_diagonal(ig, p)
        gaps.append(abs(g - target))
    monotone = gaps[0] > gaps[1] > gaps[2]
    p6 = complete_integrals(0.6)
    ig16 = iso.make_isoradial(iso.build_square_lattice(16, 16))
    u = iso.admissible_u(ig16, p6, "base", delta=p6.bigK / 16, count=4)[1]
    pk, pf, _e = inf.center_edge_probability_gd(ig16, p6, u)
    edge_ok = abs(pk - pf) < 5e-3
    ok = fourier_ok and monotone and edge_ok
    _line("criterion 6 (bulk, attainable parts)", ok,
          f"fourier target gap {abs(fourier-target):.1e}; green gaps "
          f"{[f'{g:.3f}' for g in gaps]} monotone={monotone}; k=0.6 edge gap "
          f"{abs(pk-pf):.2e} <= 5e-3")
    assert ok


def test_criterion_6_bulk_as_stated():
    """The criterion-6 tolerances on one L = 96 truncation.

    The Green diagonal at k = 0.5 is compared with k'K'/pi and the centre
    edge probability with its bulk value at k = 0 (1/4) and k = 0.3 (the
    closed form).  The size follows from how the truncation gaps shrink:

    ====  ================  ==============  ==================  ==============
    L     green, k = 0.5    edge, k = 0     L * (edge, k = 0)   edge, k = 0.3
    ====  ================  ==============  ==================  ==============
    16    1.74e-1           2.60e-2         0.415               1.36e-2
    32    1.74e-2           1.24e-2         0.398               8.96e-3
    48    2.50e-3           8.65e-3         0.415               5.07e-3
    64    4.06e-4           6.50e-3         0.416               2.92e-3
    96    1.24e-5           4.34e-3         0.417               1.04e-3
    128   4.12e-7           3.26e-3         0.417               3.74e-4
    ====  ================  ==============  ==================  ==============

    At k = 0 the gap is 0.417/L, the O(1/L) effect of the Temperleyan root
    at criticality, so 5e-3 needs L >= 84; 96 is the first multiple of 16
    above.  Off criticality the gaps fall off exponentially with the
    correlation length, about 10 lattice units at k = 0.5, and are far
    inside the tolerance at L = 96.
    """
    n = 96
    p = complete_integrals(0.5)
    target = p.kprime * p.bigKprime / math.pi
    ig = iso.make_isoradial(iso.build_square_lattice(n, n))
    g, _v = inf.green_center_diagonal(ig, p)
    green_ok = abs(g - target) < 5e-3
    results = {"green@k=0.5": abs(g - target)}
    edge_ok = True
    for k in (0.0, 0.3):
        pk_params = complete_integrals(k)
        u = iso.admissible_u(ig, pk_params, "base",
                             delta=pk_params.bigK / 16, count=4)[1]
        p_ken, p_form, _e = inf.center_edge_probability_gd(ig, pk_params, u)
        ref = (math.pi / 4) / math.pi if k == 0.0 else p_form
        results[f"edge@k={k}"] = abs(p_ken - ref)
        edge_ok &= abs(p_ken - ref) < 5e-3
    ok = green_ok and edge_ok
    _line(f"criterion 6 (bulk, as stated, L={n})", ok,
          "; ".join(f"{k} gap {v:.2e} vs 5e-3" for k, v in results.items()))
    assert ok


def test_criterion_7_z2_survival():
    worst = 0.0
    for k in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        p = complete_integrals(k)
        z = inf.z2_specialization(p)
        worst = max(worst,
                    abs(z["survival"] - z["survival_formula"]),
                    abs(z["survival"] - z["survival_formula_alt"]),
                    abs(z["mass"] - z["mass_formula"]))
    ok = worst <= 1e-10
    _line("criterion 7 (Z^2 survival probability and consistent mass)", ok,
          f"worst gap {worst:.2e} <= 1e-10 "
          "(mass tested against 2(k'^-1/2 - 1)^2, the value consistent with "
          "the survival displays)")
    assert ok


def test_criterion_7_mass_as_displayed():
    """The displayed interior-mass value against the operator.

    The display puts 2 sqrt(k')/(1+k') where the interior mass belongs.
    That value is 1 at k = 0, yet the critical Laplacian is massless.  It is
    the survival probability: with survival = 4 rho / (4 rho + m^2) and
    rho = sc(K/2) = k'^(-1/2), the survival displays 2 sqrt(k')/(1+k') and
    2/(sinh 2J + 1/sinh 2J) pin the mass to m^2 = 2 (k'^(-1/2) - 1)^2.
    So the mass the operator carries, the row sum of delta_m_bulk at every
    interior vertex of a square block, is checked against that closed form
    (0 at k = 0), and the displayed value against the survival probability.
    """
    from conftest import get_graph

    ig = get_graph("square:3x3")
    interior = sorted(set(ig.base.coords) - ig.base.boundary_vertices())
    worst = critical = 0.0
    for k in (0.0, 0.2, 0.5, 0.9):
        p = complete_integrals(k)
        z = inf.z2_specialization(p)
        dm = op.delta_m_bulk(ig, p)
        mass_formula = 2.0 * (1.0 / math.sqrt(p.kprime) - 1.0) ** 2
        displayed = 2.0 * math.sqrt(p.kprime) / (1.0 + p.kprime)
        for v in interior:
            row_sum = sum(dm.get(("v", v), ("v", w)).real
                          for w in [v] + list(ig.base.adj[v]))
            worst = max(worst, abs(row_sum - mass_formula),
                        abs(row_sum - z["mass"]))
            if k == 0.0:
                critical = max(critical, abs(row_sum))
        worst = max(worst, abs(displayed - z["survival"]))
    ok = worst <= 1e-10 and critical <= 1e-10 and len(interior) == 4
    _line("criterion 7 (interior mass and displayed survival value)", ok,
          f"worst gap {worst:.2e} <= 1e-10 over {len(interior)} interior "
          f"vertices; critical mass {critical:.2e} <= 1e-10")
    assert ok
