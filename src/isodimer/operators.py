"""Assembly of the operator zoo: Dirac operators, massive Laplacians,
Kasteleyn matrices of the quadri and Fisher graphs, intertwiners and the
auxiliary block matrices.

Rows and columns are indexed by typed vertex keys (see ``derived``); entries
are complex.  Assembly is deterministic: indices are sorted, every entry is a
pure function of (graph, k, u) and the stored angle lifts.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import elliptic as el
from .derived import fkey, vkey, wkey, fisher_quadri_map
from .errors import (
    DomainError,
    NegativeRadicandError,
    NotGaugeEquivalentError,
    SingularityError,
)


@dataclass
class TypedSparseMatrix:
    rows: tuple
    cols: tuple
    entries: dict
    name: str = ""
    meta: dict = field(default_factory=dict)
    _dense: object = None

    def __post_init__(self):
        self.row_pos = {r: i for i, r in enumerate(self.rows)}
        self.col_pos = {c: j for j, c in enumerate(self.cols)}

    def dense(self):
        if self._dense is None:
            a = np.zeros((len(self.rows), len(self.cols)), dtype=complex)
            for (r, c), v in self.entries.items():
                a[self.row_pos[r], self.col_pos[c]] = v
            self._dense = a
        return self._dense

    def csc(self):
        """The same matrix as a complex ``scipy.sparse`` CSC matrix."""
        keys = list(self.entries)
        vals = np.array([self.entries[k] for k in keys], dtype=complex)
        ij = ([self.row_pos[r] for r, _c in keys], [self.col_pos[c] for _r, c in keys])
        return sparse.csc_matrix((vals, ij), shape=(len(self.rows), len(self.cols)))

    def get(self, r, c):
        return self.entries.get((r, c), 0.0)

    def check_antisymmetric(self, tol=1e-14):
        ent = self.entries
        scale = max([1.0] + [abs(v) for v in ent.values()])
        if any(abs(v + ent.get((c, r), 0.0)) > tol * scale for (r, c), v in ent.items()):
            raise DomainError(f"{self.name}: antisymmetry violated")

    def dump_text(self):
        lines = [f"# {self.name} rows={len(self.rows)} cols={len(self.cols)}"]
        lines.append("# row-id\tcol-id\tre\tim")
        for (r, c) in sorted(self.entries, key=str):
            v = complex(self.entries[(r, c)])
            lines.append(f"{r}\t{c}\t{v.real!r}\t{v.imag!r}")
        return "\n".join(lines) + "\n"


class EllCtx:
    """Per-(graph, k) context: transformed angles and cached special values."""

    def __init__(self, ig, p):
        self.ig = ig
        self.p = p
        self._a_cache = {}

    def ell(self, angle_bar):
        return el.angle_transform(angle_bar, self.p)

    def a_of(self, theta_bar):
        key = round(theta_bar, 14)
        if key not in self._a_cache:
            self._a_cache[key] = el.a_fun(self.ell(theta_bar), self.p)
        return self._a_cache[key]

    def jac(self, u):
        return el.jacobi(u, self.p)

    def u_arg(self, u, gamma_bar):
        return 0.5 * (u - self.ell(gamma_bar))


def _phase(half_angle_bar):
    return cmath.exp(0.5j * half_angle_bar)


def _sqrt_pos(x, what):
    if x < -1e-12:
        raise NegativeRadicandError(f"negative radicand in {what}: {x}")
    return math.sqrt(max(x, 0.0))


def _check_u_allowed(ig, p, u, level):
    from .isoradial import _excluded_set

    period = 4.0 * p.bigK
    for e in _excluded_set(ig, p, level):
        d = abs((u - e) % period)
        if min(d, period - d) < 1e-8:
            raise DomainError(
                f"u={u} too close to the excluded direction {e} (level {level})")


# ---------------------------------------------------------------------------
# massive Laplacians
# ---------------------------------------------------------------------------

def _massive_laplacian(ig, name, meta, verts, edges, diag, pair=None, key=vkey):
    """The one massive-Laplacian assembly, rows and columns ``key(x)``.

    Every weighted edge (x, y, c) adds -c at (x, y) and at (y, x), so
    parallel edges add up, and ``diag(x)`` fills the diagonal.  ``pair(bp)``,
    if given, returns the (v_c, v_l) and (v_c, v_c) entries that replace
    these at every non-root boundary pair.
    """
    rows = tuple(key(x) for x in verts)
    ent = {}
    for x, y, c in edges:
        for r, s in ((key(x), key(y)), (key(y), key(x))):
            ent[(r, s)] = ent.get((r, s), 0.0) - c
    for x in verts:
        ent[(key(x), key(x))] = diag(x)
    if pair is not None:
        for bp in ig.boundary_pairs:
            if not bp.is_root:
                ent[(key(bp.vc), key(bp.vl))], ent[(key(bp.vc), key(bp.vc))] = pair(bp)
    return TypedSparseMatrix(rows, rows, ent, name, meta)


def _primal(ig, weight, root=None):
    """The primal vertices other than ``root``, and the edges that avoid it
    as (v1, v2, weight(theta_bar))."""
    verts = [v for v in sorted(ig.base.coords) if v != root]
    edges = ((r.v1, r.v2, weight(r.theta_bar))
             for r in map(ig.rhombi.__getitem__, ig.edge_list())
             if root not in (r.v1, r.v2))
    return verts, edges


def delta_m_star(ig, p):
    """Finite dual massive Laplacian on the restricted dual (symmetric)."""
    ctx = EllCtx(ig, p)

    def face_diag(fi):
        total = 0.0
        cyc = ig.base.faces[fi]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            eid = ig.edge_ids[(min(a, b), max(a, b))]
            total += ctx.a_of(math.pi / 2 - ig.rhombi[eid].theta_bar)
        return total

    edges = ((fa, fb, el.sc(ctx.ell(math.pi / 2 - ig.rhombi[eid].theta_bar), p))
             for (fa, fb), eid in ig.dual_edges)
    return _massive_laplacian(ig, "delta_m_star", {"k": p.k, "graph": ig.graph_hash()},
                              range(len(ig.face_centers)), edges, face_diag, key=fkey)


def _boundary_diag(ig, ctx, v, u):
    """k' * sum over incident edges of sc(theta) nd(u_a) nd(u_b), from-v lifts."""
    p = ctx.p
    total = 0.0
    for w in ig.base.adj[v]:
        eid = ig.edge_ids[(min(v, w), max(v, w))]
        a_bar, b_bar = ig.rhombus_vectors_from(eid, v)
        th = ctx.ell(ig.rhombi[eid].theta_bar)
        total += el.sc(th, p) * el.nd(ctx.u_arg(u, a_bar), p) * el.nd(ctx.u_arg(u, b_bar), p)
    return p.kprime * total


def _interior_diag(ig, ctx, v):
    total = 0.0
    for w in ig.base.adj[v]:
        eid = ig.edge_ids[(min(v, w), max(v, w))]
        total += ctx.a_of(ig.rhombi[eid].theta_bar)
    return total


def _tan_diag(ig, v):
    """The k = 0 diagonal: sum of tan(theta) over the edges at v (nd = 1)."""
    total = 0.0
    for w in ig.base.adj[v]:
        total += math.tan(ig.rhombi[ig.edge_ids[(min(v, w), max(v, w))]].theta_bar)
    return total


def _delta_m_rooted(ig, p, u, name, pair=None):
    """Massive Laplacian on V^r with u-dependent boundary diagonals."""
    ctx = EllCtx(ig, p)
    boundary = ig.base.boundary_vertices()

    def diag(v):
        return _boundary_diag(ig, ctx, v, u) if v in boundary else _interior_diag(ig, ctx, v)

    return _massive_laplacian(ig, name, {"k": p.k, "u": u, "graph": ig.graph_hash()},
                              *_primal(ig, lambda th: el.sc(ctx.ell(th), p), ig.root),
                              diag, pair)


def delta_m_natural(ig, p, u):
    """Natural finite massive Laplacian on V^r with u-dependent boundary diagonals."""
    _check_u_allowed(ig, p, u, "base")
    return _delta_m_rooted(ig, p, u, "delta_m_natural")


def delta_m_partial(ig, p, u):
    """Massive Laplacian with the Ising boundary conditions (directed at pairs)."""
    _check_u_allowed(ig, p, u, "prime")
    ctx = EllCtx(ig, p)

    def pair(bp):
        th = ctx.ell(bp.theta_bar)
        u_al = ctx.u_arg(u, bp.alpha_l)
        u_bl = ctx.u_arg(u, bp.beta_l)
        u_br = ctx.u_arg(u, bp.beta_r)
        _, cn_al, _ = ctx.jac(u_al)
        _, cn_br, _ = ctx.jac(u_br)
        return (-el.sc(th, p) * el.cd(u_br, p) / el.cd(u_al, p),
                p.kprime * el.sc(th, p) * el.nd(u_bl, p) * el.nd(u_br, p)
                * (cn_br + cn_al) / cn_al)

    return _delta_m_rooted(ig, p, u, "delta_m_partial", pair)


def delta_m_bulk(ig, p):
    """u-free symmetric massive Laplacian on all of V (truncation operator).

    Diagonal sum of A(theta_j) at every vertex; used for Green-function
    truncation comparisons, not for the exact identities.
    """
    ctx = EllCtx(ig, p)
    return _massive_laplacian(ig, "delta_m_bulk", {"k": p.k, "graph": ig.graph_hash()},
                              *_primal(ig, lambda th: el.sc(ctx.ell(th), p)),
                              lambda v: _interior_diag(ig, ctx, v))


def delta_m_partial_critical_limit(ig):
    """Closed form of the k=0 boundary Laplacian at u -> -i*infinity.

    Off-diagonal (vc, vl) entries -e^{i(alpha_l-beta_r)/2} tan(theta);
    vc diagonal tan(theta)(e^{i(alpha_l-beta_r)/2} + 1), which keeps the row
    sums of vc rows at zero (the critical masses vanish) and matches the
    numeric limit of ``delta_m_partial_complex_u``; the source display's
    opposite sign in that diagonal breaks both.
    """
    def pair(bp):
        phase = cmath.exp(0.5j * (bp.alpha_l - bp.beta_r))
        t = math.tan(bp.theta_bar)
        return -phase * t, t * (phase + 1.0)

    return _massive_laplacian(ig, "delta_m_partial_crit_limit",
                              {"k": 0.0, "graph": ig.graph_hash()},
                              *_primal(ig, math.tan, ig.root),
                              lambda v: _tan_diag(ig, v), pair)


def delta_m_partial_complex_u(ig, u_complex):
    """k=0 boundary Laplacian at a complex spectral value (limit testing only)."""
    def pair(bp):
        t = math.tan(bp.theta_bar)
        ratio = (cmath.cos(0.5 * (u_complex - bp.beta_r))
                 / cmath.cos(0.5 * (u_complex - bp.alpha_l)))
        return -t * ratio, t * (ratio + 1.0)

    return _massive_laplacian(ig, "delta_m_partial_complex",
                              {"k": 0.0, "u": str(u_complex)},
                              *_primal(ig, math.tan, ig.root),
                              lambda v: _tan_diag(ig, v), pair)


def q_matrix(ig, p, u):
    """The boundary coupling block Q(u): rows V^r, columns V*."""
    _check_u_allowed(ig, p, u, "prime")
    ctx = EllCtx(ig, p)
    root = ig.root
    rows = tuple(vkey(v) for v in sorted(ig.base.coords) if v != root)
    cols = tuple(fkey(f) for f in range(len(ig.face_centers)))
    ent = {}
    for bp in ig.boundary_pairs:
        if bp.is_root:
            continue
        val = (-1j * el.nd(ctx.u_arg(u, bp.beta_l), p) / el.cd(ctx.u_arg(u, bp.alpha_l), p)
               * (el.cd(ctx.u_arg(u, bp.beta_r), p) - el.cd(ctx.u_arg(u, bp.alpha_l), p)))
        ent[(vkey(bp.vc), fkey(bp.fc))] = val
    return TypedSparseMatrix(rows, cols, ent, "q_matrix",
                             {"k": p.k, "u": u, "graph": ig.graph_hash()})


# ---------------------------------------------------------------------------
# Dirac operators
# ---------------------------------------------------------------------------

def _dirac_entry(ctx, rec, u):
    """Entry for one double-graph edge from its from-white lifted pair."""
    p = ctx.p
    ua = ctx.u_arg(u, rec["alpha"])
    ub = ctx.u_arg(u, rec["beta"])
    th = ctx.ell(rec["theta"])
    da, db = el.dn(ua, p), el.dn(ub, p)
    if rec["kind"] == "v":
        rad = el.sc(th, p) * da * db
    else:
        rad = p.kprime * p.kprime * el.sc(th, p) / (da * db)
    return _phase(rec["alpha"] + rec["beta"]) * _sqrt_pos(rad, "dirac entry")


def dirac(dg, p, u, variant="plain"):
    """The Z^u-Dirac operator on the double graph (rows = whites, cols = blacks).

    ``variant="boundary"`` multiplies the (w_l, v_c) entries of non-root
    boundary pairs by cd(u_{beta_r})/cd(u_{alpha_l}).
    """
    ig = dg.ig
    if variant not in ("plain", "boundary"):
        raise DomainError(f"unknown dirac variant {variant!r}")
    _check_u_allowed(ig, p, u, "base" if variant == "plain" else "prime")
    ctx = EllCtx(ig, p)
    rows = tuple(wkey(w) for w in dg.whites)
    cols = tuple(dg.blacks)
    ent = {}
    for (w, black), rec in dg.gd_edges.items():
        ent[(wkey(w), black)] = _dirac_entry(ctx, rec, u)
    if variant == "boundary":
        for bp in ig.boundary_pairs:
            if bp.is_root:
                continue
            factor = (el.cd(ctx.u_arg(u, bp.beta_r), p)
                      / el.cd(ctx.u_arg(u, bp.alpha_l), p))
            key = (wkey(bp.wl), vkey(bp.vc))
            ent[key] = ent[key] * factor
    name = "dirac_plain" if variant == "plain" else "dirac_boundary"
    return TypedSparseMatrix(rows, cols, ent, name,
                             {"k": p.k, "u": u, "graph": ig.graph_hash()})


def kd_gauge_and_directed_laplacian(dg, p, u):
    """The gauge-transformed Dirac operator K^g(u) and the directed dual
    Laplacian with outer row/column removed.

    K^g multiplies each double-graph edge weight by
    [cs(theta_w) nd(u_a) nd(u_b)]^(1/2); its primal entries are pure phases.
    The directed conductances toward/within the dual are
    gamma*(u)_{f,f'} = k'^(1/2) cs(theta_w) nd(u_a) nd(u_b) (from the f side).
    """
    ig = dg.ig
    _check_u_allowed(ig, p, u, "base")
    ctx = EllCtx(ig, p)
    rows = tuple(wkey(w) for w in dg.whites)
    cols = tuple(dg.blacks)
    ent = {}
    for (w, black), rec in dg.gd_edges.items():
        th_w = ctx.ell(dg.theta_w[w])
        ua = ctx.u_arg(u, rec["alpha"])
        ub = ctx.u_arg(u, rec["beta"])
        if rec["kind"] == "v":
            ent[(wkey(w), black)] = _phase(rec["alpha"] + rec["beta"])
        else:
            val = (math.sqrt(p.kprime) * el.cs(th_w, p)
                   * el.nd(ua, p) * el.nd(ub, p))
            ent[(wkey(w), black)] = _phase(rec["alpha"] + rec["beta"]) * val
    kg = TypedSparseMatrix(rows, cols, ent, "dirac_gauge",
                           {"k": p.k, "u": u, "graph": ig.graph_hash()})

    # directed Laplacian on bounded faces + outer, with gamma*(u) conductances
    n_f = len(ig.face_centers)
    fk = [fkey(f) for f in range(n_f)]
    lap = {}

    def gamma_star(w, f_from):
        rec = dg.gd_edges[(w, fkey(f_from))]
        th_w = ctx.ell(dg.theta_w[w])
        return (math.sqrt(p.kprime) * el.cs(th_w, p)
                * el.nd(ctx.u_arg(u, rec["alpha"]), p)
                * el.nd(ctx.u_arg(u, rec["beta"]), p))

    diag = {f: 0.0 for f in range(n_f)}
    for eid in ig.edge_list():
        r = ig.rhombi[eid]
        g1 = gamma_star(eid, r.f1)
        diag[r.f1] += g1
        if r.f2 is not None:
            g2 = gamma_star(eid, r.f2)
            diag[r.f2] += g2
            lap[(fkey(r.f1), fkey(r.f2))] = lap.get((fkey(r.f1), fkey(r.f2)), 0.0) - g1
            lap[(fkey(r.f2), fkey(r.f1))] = lap.get((fkey(r.f2), fkey(r.f1)), 0.0) - g2
        # else: edge toward outer contributes to the diagonal only
    for f in range(n_f):
        lap[(fkey(f), fkey(f))] = diag[f]
    dstar = TypedSparseMatrix(tuple(fk), tuple(fk), lap, "delta_star_outer",
                              {"k": p.k, "u": u, "graph": ig.graph_hash()})
    return kg, dstar


# ---------------------------------------------------------------------------
# quadri Kasteleyn matrices
# ---------------------------------------------------------------------------

def _nu_weight(ig, eid, kind, p):
    if kind in ("ext", "bq"):
        return 1.0
    th = el.theta_transform(ig.rhombi[eid].theta_bar, p)
    return el.sn(th, p) if kind == "sn" else el.cn(th, p)


def kasteleyn_KQ(qg, ig, p):
    """Complex bipartite Kasteleyn matrix of the quadri graph (rows black)."""
    rows = tuple(qg.blacks)
    cols = tuple(qg.whites)
    ent = {}
    for blk, wht, kind, phase_bar in qg.edges:
        ent[(blk, wht)] = _phase(2.0 * phase_bar) * _nu_weight(ig, qg.quad_of[blk], kind, p)
    return TypedSparseMatrix(rows, cols, ent, "kasteleyn_KQ",
                             {"k": p.k, "graph": ig.graph_hash()})


def kq_bar_partial(qg, ig, p):
    """Modified matrix: boundary-pair edges (b_l, w_l), (b_r, w_r) x sn(theta)."""
    kq = kasteleyn_KQ(qg, ig, p)
    ent = dict(kq.entries)
    for blk, wht, kind, _ in qg.edges:
        eid = qg.quad_of[blk]
        role = qg.pair_role.get(eid)
        if role is None:
            continue
        side, bp = role
        corner = qg.corner_of[blk]
        if corner != 1:
            continue
        scale = el.sn(el.theta_transform(bp.theta_bar, p), p)
        if side == "l" and kind == "ext":
            ent[(blk, wht)] = ent[(blk, wht)] * scale
        if side == "r" and kind == "bq":
            ent[(blk, wht)] = ent[(blk, wht)] * scale
    return TypedSparseMatrix(kq.rows, kq.cols, ent, "kq_bar_partial", dict(kq.meta))


def kasteleyn_KQ_real(qg, ig, couplings, orientation, p=None):
    """Real bipartite Kasteleyn matrix of the quadri graph for couplings J.

    ``couplings`` maps primal edge ids to J; quadrangle weights are tanh(2J)
    (primal-parallel) and 1/cosh(2J) (dual-parallel); external and boundary
    quadrangle edges have weight 1.
    """
    rows = tuple(qg.blacks)
    cols = tuple(qg.whites)
    ent = {}
    for blk, wht, kind, _ in qg.edges:
        eid = qg.quad_of[blk]
        if kind in ("ext", "bq"):
            w = 1.0
        else:
            j = couplings[eid]
            w = math.tanh(2.0 * j) if kind == "sn" else 1.0 / math.cosh(2.0 * j)
        ent[(blk, wht)] = orientation[(blk, wht)] * w
    return TypedSparseMatrix(rows, cols, ent, "kasteleyn_KQ_real",
                             {"graph": ig.graph_hash()})


def z_invariant_couplings(ig, p):
    """J_e = (1/2) log((1+sn theta)/cn theta) per edge."""
    out = {}
    for eid in ig.edge_list():
        th = el.theta_transform(ig.rhombi[eid].theta_bar, p)
        out[eid] = 0.5 * math.log((1.0 + el.sn(th, p)) / el.cn(th, p))
    return out


# ---------------------------------------------------------------------------
# Fisher Kasteleyn matrix and auxiliary blocks
# ---------------------------------------------------------------------------

def kasteleyn_KF(fg, couplings):
    """Skew-symmetric Kasteleyn matrix of the Fisher graph.

    Internal edges have weight 1, the external edge over primal edge e has
    weight e^{-2 J_e}.  Couplings may be any reals.
    """
    verts = tuple(fg.vertices())
    ent = {}
    for x, y in fg.internal_edges:
        ent[(x, y)] = float(fg.eps(x, y))
        ent[(y, x)] = float(fg.eps(y, x))
    for x, y, eid in fg.external_edges:
        w = math.exp(-2.0 * couplings[eid])
        ent[(x, y)] = fg.eps(x, y) * w
        ent[(y, x)] = fg.eps(y, x) * w
    m = TypedSparseMatrix(verts, verts, ent, "kasteleyn_KF",
                          {"graph": fg.ig.graph_hash()})
    m.check_antisymmetric()
    return m


def fisher_aux(fg, qg, kf):
    """The block matrices X, M, M', kappa, I_{W,A}, D_{BQ,A}, D_{A,B}."""
    fqm = fisher_quadri_map(fg, qg)
    b_list = tuple(fg.b_vertices)
    a_list = tuple(fg.a_vertices)
    bq_list = tuple(qg.blacks)
    wq_list = tuple(qg.whites)

    # X: rows B, cols GQ blacks
    x_ent = {}
    for bx, by, eid in fg.external_edges:
        hat_x, hat_y = fqm.black_of_b[bx], fqm.black_of_b[by]
        x_ent[(bx, hat_x)] = 1.0
        x_ent[(bx, hat_y)] = kf.get(by, bx)
        x_ent[(by, hat_y)] = 1.0
        x_ent[(by, hat_x)] = kf.get(bx, by)
    for b in fg.boundary_b:
        x_ent[(b, fqm.black_of_b[b])] = 1.0
    x_mat = TypedSparseMatrix(b_list, bq_list, x_ent, "fisher_X")

    # M: rows B, cols A.  With (a, a', b) in ccw order around the triangle,
    # (m_{b,a}, m_{b,a'}) = (-eps_{b,a}, eps_{b,a'}); in storage order the ccw
    # triangle cycle is (a_prev, b, a_next), so a = a_next and a' = a_prev.
    m_ent = {}
    for b in b_list:
        a_prev, a_next = fg.triangles[b]
        m_ent[(b, a_next)] = -fg.eps(b, a_next)
        m_ent[(b, a_prev)] = fg.eps(b, a_prev)
    m_mat = TypedSparseMatrix(b_list, a_list, m_ent, "fisher_M")

    # blocks of K^F
    kf_d = kf.dense()
    bi = [kf.row_pos[b] for b in b_list]
    ai = [kf.row_pos[a] for a in a_list]
    k_bb = kf_d[np.ix_(bi, bi)]
    k_ba = kf_d[np.ix_(bi, ai)]
    k_ab = kf_d[np.ix_(ai, bi)]
    k_aa = kf_d[np.ix_(ai, ai)]
    try:
        m_prime_d = -np.linalg.solve(k_ba, k_bb)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("K^F_{B,A} block is singular") from exc
    m_prime = TypedSparseMatrix(
        a_list, b_list,
        {(a_list[i], b_list[j]): m_prime_d[i, j]
         for i in range(len(a_list)) for j in range(len(b_list))
         if abs(m_prime_d[i, j]) > 1e-15},
        "fisher_Mprime")

    # kappa: block diagonal over decorations
    k_ent = {}
    for f, cycle in fg.a_cycle.items():
        d = len(cycle)
        for i, a in enumerate(cycle):
            k_ent[(a, a)] = 0.25
            sign = 1
            for step in range(1, d):
                j = (i + step) % d
                prev = cycle[(i + step - 1) % d]
                cur = cycle[j]
                if fg.eps(prev, cur) == -1:
                    sign = -sign
                k_ent[(a, cur)] = -0.25 * sign
    kappa = TypedSparseMatrix(a_list, a_list, k_ent, "fisher_kappa")

    # I_{W,A} and the diagonal couplers
    i_ent = {(w, fqm.a_of_white[w]): 1.0 for w in wq_list}
    i_wa = TypedSparseMatrix(wq_list, a_list, i_ent, "fisher_I_WA")

    d_bqa_ent = {}
    for blk in bq_list:
        a = fqm.a_of_black[blk]
        b = fqm.b_of_black[blk]
        d_bqa_ent[(blk, a)] = float(fg.eps(b, a))
    d_bqa = TypedSparseMatrix(bq_list, a_list, d_bqa_ent, "fisher_D_BQA")

    d_ab_ent = {}
    for b in b_list:
        a_prev, a_next = fg.triangles[b]
        # cw cycle is (a_next, b, a_prev): b comes just before a_prev
        d_ab_ent[(a_prev, b)] = 0.5 * fg.eps(b, a_prev)
    d_ab = TypedSparseMatrix(a_list, b_list, d_ab_ent, "fisher_D_AB")

    blocks = {"K_BB": k_bb, "K_BA": k_ba, "K_AB": k_ab, "K_AA": k_aa,
              "B": b_list, "A": a_list}
    return x_mat, m_mat, m_prime, kappa, i_wa, d_bqa, d_ab, blocks


# ---------------------------------------------------------------------------
# intertwiners S(u), T(u)
# ---------------------------------------------------------------------------

def s_t_matrices(qg, dg, p, u):
    """The intertwiner pair: S rows = GQ blacks, T rows = GQ whites."""
    ig = dg.ig
    _check_u_allowed(ig, p, u, "prime")
    ctx = EllCtx(ig, p)

    s_ent = {}
    for blk in qg.blacks:
        eid = qg.quad_of[blk]
        r = ig.rhombi[eid]
        role = qg.pair_role.get(eid)
        th = ctx.ell(r.theta_bar)
        sn_t, cn_t = el.sn(th, p), el.cn(th, p)
        if role is None:
            if qg.corner_of[blk] == 1:
                a_bar, b_bar = r.alpha_bar, r.beta_bar
            else:
                a_bar, b_bar = r.alpha_bar + math.pi, r.beta_bar + math.pi
            ua, ub = ctx.u_arg(u, a_bar), ctx.u_arg(u, b_bar)
            val = (cmath.exp(-0.5j * b_bar) * el.cn(ub, p)
                   * _sqrt_pos(sn_t * cn_t * el.nd(ua, p) * el.nd(ub, p), "s entry"))
        else:
            side, bp = role
            if side == "r":
                ua, ub = ctx.u_arg(u, bp.alpha_r), ctx.u_arg(u, bp.beta_r)
                val = (cmath.exp(-0.5j * bp.beta_r) * el.cn(ub, p)
                       * _sqrt_pos(sn_t * cn_t * el.nd(ua, p) * el.nd(ub, p), "s entry"))
            else:
                ua, ub = ctx.u_arg(u, bp.alpha_l), ctx.u_arg(u, bp.beta_l)
                val = (cmath.exp(-0.5j * bp.alpha_l) * el.cn(ua, p)
                       * _sqrt_pos(sn_t * cn_t * el.nd(ua, p) * el.nd(ub, p), "s entry"))
        s_ent[(blk, wkey(eid))] = val
    s_mat = TypedSparseMatrix(tuple(qg.blacks), tuple(wkey(w) for w in dg.whites),
                              s_ent, "intertwiner_S",
                              {"k": p.k, "u": u, "graph": ig.graph_hash()})

    t_ent = {}
    root = ig.root
    for wht in qg.whites:
        eid = qg.quad_of[wht]
        r = ig.rhombi[eid]
        role = qg.pair_role.get(eid)
        corner = qg.corner_of[wht]
        if role is not None and corner == 2:
            side, bp = role
            if side == "l":
                # this is the pair's central white vertex w^c
                if not bp.is_root:
                    val_v = (-1j * p.kprime * cmath.exp(-0.5j * bp.alpha_r)
                             * el.sn(ctx.ell(bp.theta_bar), p)
                             * el.nd(ctx.u_arg(u, bp.alpha_r), p)
                             * el.cd(ctx.u_arg(u, bp.beta_r), p))
                    t_ent[(wht, vkey(bp.vc))] = val_v
                t_ent[(wht, fkey(bp.fc))] = (cmath.exp(-0.5j * bp.beta_l)
                                             * el.cd(ctx.u_arg(u, bp.beta_l), p))
                continue
        # plain rule: the white sits on a diamond side (v, f)
        if corner == 2:
            v, f = r.v2, r.f1
            b_bar = r.beta_bar
        else:
            v, f = r.v1, r.f2
            b_bar = r.beta_bar + math.pi
        if not (dg.rooted and v == root):
            t_ent[(wht, vkey(v))] = (cmath.exp(-0.5j * b_bar)
                                     * el.cn(ctx.u_arg(u, b_bar), p))
        t_ent[(wht, fkey(f))] = (cmath.exp(-0.5j * (b_bar + math.pi))
                                 * el.cd(ctx.u_arg(u, b_bar) - p.bigK, p))
    t_mat = TypedSparseMatrix(tuple(qg.whites), tuple(dg.blacks), t_ent,
                              "intertwiner_T",
                              {"k": p.k, "u": u, "graph": ig.graph_hash()})
    return s_mat, t_mat


# ---------------------------------------------------------------------------
# gauge equivalence
# ---------------------------------------------------------------------------

def gauge_q(m_mat, n_mat, x0=None, bipartite=None, tol=1e-10):
    """Diagonal gauge between two matrices with equal cycle products.

    Directed case (square, same index set): returns D with M = D N D^(-1).
    Bipartite case (rows=blacks, cols=whites): returns (D_B, D_W) with
    M = D_B N D_W.  Raises NotGaugeEquivalentError with an offending cycle.
    """
    if set(m_mat.entries) != set(n_mat.entries):
        raise NotGaugeEquivalentError("sparsity patterns differ")
    if bipartite is None:
        bipartite = m_mat.rows != m_mat.cols

    scale = max(max((abs(v) for v in m_mat.entries.values()), default=1.0), 1.0)

    if not bipartite:
        verts = list(m_mat.rows)
        adj = {}
        for (r, c) in m_mat.entries:
            if r != c:
                adj.setdefault(r, []).append(c)
        x0 = x0 if x0 is not None else verts[0]
        q = {x0: 1.0}
        order = [x0]
        tree_parent = {x0: None}
        qi = 0
        while qi < len(order):
            x = order[qi]
            qi += 1
            for y in sorted(adj.get(x, []), key=str):
                if y not in q:
                    q[y] = q[x] * (n_mat.get(x, y) / m_mat.get(x, y))
                    tree_parent[y] = x
                    order.append(y)
        if len(q) != len(verts):
            raise NotGaugeEquivalentError("digraph not strongly connected on pattern")
        for (r, c) in m_mat.entries:
            if r == c:
                if abs(m_mat.get(r, c) - n_mat.get(r, c)) > tol * scale:
                    raise NotGaugeEquivalentError(f"diagonal mismatch at {r}", cycle=[r])
                continue
            lhs = q[r] * (n_mat.get(r, c) / m_mat.get(r, c))
            if abs(lhs - q[c]) > tol * max(abs(q[c]), 1.0):
                raise NotGaugeEquivalentError(
                    f"cycle product mismatch through edge ({r}, {c})", cycle=[r, c])
        d = TypedSparseMatrix(m_mat.rows, m_mat.rows,
                              {(v, v): q[v] for v in verts}, "gauge_D")
        return d

    # bipartite: ratios q on edges, path products from x0 over the bipartite graph
    nodes = list(m_mat.rows) + list(m_mat.cols)
    adj = {}
    for (b, w) in m_mat.entries:
        adj.setdefault(b, []).append(w)
        adj.setdefault(w, []).append(b)
    x0 = x0 if x0 is not None else nodes[0]

    def edge_q(b, w):
        return n_mat.get(b, w) / m_mat.get(b, w)

    q = {x0: 1.0}
    order = [x0]
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for y in sorted(adj.get(x, []), key=str):
            if y in q:
                continue
            if x in m_mat.row_pos and (x, y) in m_mat.entries:
                q[y] = q[x] * edge_q(x, y)
            else:
                q[y] = q[x] / edge_q(y, x)
            order.append(y)
    if len(q) != len(nodes):
        raise NotGaugeEquivalentError("bipartite pattern not connected")
    for (b, w) in m_mat.entries:
        if abs(q[b] * edge_q(b, w) - q[w]) > tol * max(abs(q[w]), 1.0):
            raise NotGaugeEquivalentError(
                f"alternating product mismatch through edge ({b}, {w})", cycle=[b, w])
    # M = D_B N D_W with D_B = 1/q_b, D_W = q_w ... fixed so that
    # M_{b,w} = D_B[b] N_{b,w} D_W[w]; from q_w = q_b * N/M:  M = (q_b/q_w) N.
    d_b = TypedSparseMatrix(m_mat.rows, m_mat.rows,
                            {(b, b): q[b] for b in m_mat.rows}, "gauge_DB")
    d_w = TypedSparseMatrix(m_mat.cols, m_mat.cols,
                            {(w, w): 1.0 / q[w] for w in m_mat.cols}, "gauge_DW")
    return d_b, d_w
