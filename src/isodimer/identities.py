"""One verification operation per matrix identity of the framework.

Every ``check_*`` compares both sides on a concrete graph and reports a scalar
residual (relative infinity-norm, or a log-determinant gap).  The checks take
their operators from a :class:`Workspace`, which builds each once per
(graph, k, u); ``run_battery`` runs them over (graph, k, u) tuples.
"""

import math
import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import elliptic as el
from . import inference as inf
from . import operators as op
from .derived import (
    build_double,
    build_fisher,
    build_quadri,
    induce_orientation_GQ,
    reference_matching_M1,
)
from .errors import BijectionError, DomainError, NotGaugeEquivalentError, OracleBudgetError
from .isoradial import _seg_intersect

DEFAULT_TOL = 1e-9
DET_TOL = 1e-8


@dataclass
class ResidualReport:
    name: str
    k: float
    u: object
    graph: str
    residual: float
    tolerance: float
    passed: bool
    elapsed: float = 0.0
    detail: dict = field(default_factory=dict)

    def as_json_dict(self):
        # a shallow dict, without elapsed (kept out of artifacts for
        # byte-determinism): json.dumps reads detail as it is
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed"}


def _report(name, ctx, residual, tol, t0, detail=None):
    return ResidualReport(name=name, k=ctx["k"], u=ctx.get("u"),
                          graph=ctx["graph"], residual=float(residual),
                          tolerance=tol, passed=bool(residual <= tol),
                          elapsed=time.perf_counter() - t0,
                          detail=detail or {})


def _worst(*parts):
    """The largest residual part, or NaN when any part is NaN (``max`` drops
    a NaN that does not come first)."""
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def _rel_inf(lhs, rhs):
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


def _perturb(dense, seed=0, factor=1e-3):
    a = dense.copy()
    nz = np.argwhere(np.abs(a) > 0)
    i, j = nz[seed % len(nz)]
    a[i, j] *= (1.0 + factor)
    return a


class _Graph:
    """The derived graphs of one isoradial graph, each built once."""

    def __init__(self, ig):
        self.ig = ig
        self.dg = build_double(ig)
        self.qg = build_quadri(ig)

    @cached_property
    def fg(self):
        return build_fisher(self.ig)

    @cached_property
    def m1(self):
        return reference_matching_M1(self.dg)

    @cached_property
    def eps_q(self):
        return induce_orientation_GQ(self.fg, self.qg)

    @cached_property
    def lemma(self):
        """The reference partition of the Lemma by position: B1d, B1o and B2
        in the G_Q blacks, W1 and W2 in the G_Q whites, with B2[i] and B1o[i]
        on one inner rhombus (else BijectionError); and whether the G_Q edge
        (B1, W1) of every inner rhombus crosses the segment from its centre
        to the black M1 matches its white to."""
        matching, part = self.m1
        qg, ig, xy, black_at = self.qg, self.ig, self.ig.base.coords, dict(matching)
        b1d = set(part["B1d"])
        inner = [(b, w) for b, w in zip(part["B1"], part["W1"]) if b not in b1d]
        rh = [ig.rhombi[b[1]] for b, _w in inner]
        if [r.edge_id for r in rh] != [b[1] for b in part["B2"]]:
            raise BijectionError("B2 and B1o are not paired rhombus by rhombus")

        def point(key):
            return (xy if key[0] == "v" else ig.face_centers)[key[1]]

        seg = np.array([(0.5 * (xy[r.v1] + xy[r.v2]), point(black_at[r.edge_id]),
                         qg.coords[b], qg.coords[w]) for r, (b, w) in zip(rh, inner)],
                       dtype=complex).reshape(-1, 4)
        pos = {q: n for keys in (qg.blacks, qg.whites) for n, q in enumerate(keys)}

        def ix(keys):
            return np.array(list(map(pos.__getitem__, keys)), dtype=np.intp)

        return (*map(ix, (part["B1d"], [b for b, _w in inner], part["B2"], part["W1"],
                          part["W2"])), bool(_seg_intersect(*seg.T).all()))


class _Memo:
    """Values computed once per object, keyed by name."""

    def _once(self, key, build):
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def lad(self, name):
        """logabsdet of the dense form of operator attribute ``name``, once."""
        return self._once(("lad", name),
                          lambda: inf.logabsdet(getattr(self, name).dense()))


class Workspace(_Memo):
    """The structures and operators of one (graph, k), each built once.

    The derived graphs and the reference matching depend on the graph alone
    and are shared with every workspace :meth:`with_modulus` makes.  Every
    builder reads the edge table of the isoradial graph, built when first
    needed, and the double graph is a view of its Dirac layout.  The
    operators of the modulus, and those of every spectral value asked for
    through :meth:`at`, are kept for the life of the workspace.
    """

    def __init__(self, ig, p):
        self._bind(_Graph(ig), p)

    def _bind(self, graph, p):
        self._graph = graph
        self.ig, self.dg, self.qg = graph.ig, graph.dg, graph.qg
        self.p = p
        self._ats = {}

    def with_modulus(self, p):
        """A workspace for modulus ``p`` sharing this one's graph structures."""
        ws = object.__new__(Workspace)
        ws._bind(self._graph, p)
        return ws

    @property
    def fg(self):
        return self._graph.fg

    @property
    def m1(self):
        return self._graph.m1

    def ctx(self, u=None):
        return {"k": self.p.k, "u": u, "graph": self.ig.graph_hash()}

    def at(self, u):
        """The operators at spectral value ``u``, built on first use."""
        key = op.spectral_key(u)
        if key not in self._ats:
            self._ats[key] = _AtU(self, u)
        return self._ats[key]

    # -- modulus level ------------------------------------------------------

    @property
    def table(self):
        """The edge-table stage of the modulus."""
        return op.edge_table(self.ig).at(self.p)

    @cached_property
    def white_logs(self):
        """Sums over the whites w, in order, that the determinant checks add:
        log sc(theta_w)/2, log cs(theta_w)/2, the whites' part of log c~ and
        the boundary whites' part of log [Z+]^2 (with its constant)."""
        m, bnd = self.table, self.dg.boundary_whites()
        c_tilde = 0.0
        for w, ls, lc in zip(self.dg.whites, _logs(m.sn_t).tolist(), _logs(m.cn_t).tolist()):
            c_tilde += 0.5 * (ls + lc)
            if w in bnd:
                c_tilde -= ls
        n_v = len(self.ig.base.coords)
        z2 = (n_v - 1) * math.log(2.0) + 0.5 * (n_v - 1) * math.log(self.p.kprime)
        sn = m.sn_t[list(bnd)]                  # edge ids are table positions
        z2 = sum(_logs((1.0 + sn) / (2.0 * sn)).tolist(), z2)
        return (sum(0.5 * math.log(x) for x in m.sc_t.tolist()),
                sum(0.5 * math.log(x) for x in m.cs_t.tolist()), c_tilde, z2)

    @cached_property
    def dms(self):
        return op.delta_m_star(self.dg, self.p)

    @cached_property
    def kq(self):
        return op.kasteleyn_KQ(self.qg, self.ig, self.p)

    @cached_property
    def kqp(self):
        return op.kq_bar_partial(self.qg, self.ig, self.p)

    @cached_property
    def couplings(self):
        return op.z_invariant_couplings(self.dg, self.p)

    def spin_sum(self, budget):
        """The + boundary Ising partition function of the spin oracle, or None
        when its frontier sum overruns ``budget``; either is found once."""
        def spins():
            try:
                return inf.brute_force_spins(self.ig, self.couplings, budget).weighted_sum
            except OracleBudgetError:
                return None

        return self._once("spins", spins)


class _AtU(_Memo):
    """Operators, dense matrices and log-determinants of one (graph, k, u).

    Holds what it needs of its workspace but not the workspace itself, so a
    workspace the battery has moved past is freed without a cycle collection.
    """

    def __init__(self, ws, u):
        self.u = u
        self.ig, self.dg, self.qg, self.p = ws.ig, ws.dg, ws.qg, ws.p
        self._graph = ws._graph

    @property
    def table(self):
        """The edge-table stage of u."""
        return op.edge_table(self.ig).at(self.p, self.u)

    @cached_property
    def kd(self):
        return op.dirac(self.dg, self.p, self.u, "plain")

    @cached_property
    def kdp(self):
        return op.dirac(self.dg, self.p, self.u, "boundary")

    @cached_property
    def dmn(self):
        return op.delta_m_natural(self.dg, self.p, self.u)

    @cached_property
    def dmp(self):
        return op.delta_m_partial(self.dg, self.p, self.u)

    @cached_property
    def q(self):
        return op.q_matrix(self.dg, self.p, self.u)

    @cached_property
    def st(self):
        return op.s_t_matrices(self.qg, self.dg, self.p, self.u)

    @cached_property
    def gauge(self):
        return op.kd_gauge_and_directed_laplacian(self.dg, self.p, self.u)

    def log_product(self, kind):
        """_matching_log_product over the reference matching M1, once per kind."""
        return self._once(kind, lambda: _matching_log_product(
            self, self.u, self._graph.m1[0], kind))


def _logs(x):
    """math.log of every entry, as an array.

    Not np.log: numpy's log differs from libm's in the last bit on some
    inputs, and the sums below are to stay those of the scalar formulas.
    """
    return np.array([math.log(v) for v in x.tolist()], dtype=float)


def _matching_log_product(ws, u, matching, kind):
    """log of prod over matched double-graph edges of the requested bracket.

    ``ws`` is a Workspace or its view at one u: anything with ig, dg and p.
    Raises DomainError when u is an excluded doubleprime direction, where a
    bracket takes log 0.
    """
    t = op._at(ws.ig, ws.p, u, "doubleprime")
    lay, lk = op.dirac_layout(ws.dg), math.log(ws.p.kprime)
    i = np.array(list(map(lay.gd_pos.__getitem__, matching)), dtype=np.intp)
    a, b = lay.gd_a[i], lay.gd_b[i]
    la, lb = _logs(t.dn[a]), _logs(t.dn[b])
    if kind == "dn":
        terms = 0.5 * (la + lb)
    elif kind == "k_nd":
        terms = 0.5 * (lk - la - lb)
    elif kind == "abs_sc":
        terms = 0.5 * (_logs(np.abs(t.sc(a))) + _logs(np.abs(t.sc(b))))
    elif kind == "eta":
        v = lay.gd_v[i]
        terms = np.empty(len(i))
        terms[v] = (_logs(np.abs(t.sn[a[v]])) - _logs(np.abs(t.cn[b[v]]))
                    + 0.5 * (lb[v] - la[v]))
        f = ~v
        terms[f] = (0.5 * lk + _logs(np.abs(t.sn[b[f]])) - _logs(np.abs(t.cn[a[f]]))
                    + 0.5 * (la[f] - lb[f]))
    else:
        raise DomainError(kind)
    return sum(terms.tolist(), 0.0)


# ---------------------------------------------------------------------------
# the seven checks
# ---------------------------------------------------------------------------

def check_dirac_laplacian(ws, u, tol=DEFAULT_TOL, negative_control=False,
                          seed=0):
    """Block factorization of the Dirac operators against the Laplacians."""
    t0 = time.perf_counter()
    ig, p = ws.ig, ws.p
    at = ws.at(u)
    kd, kdp, dms = at.kd, at.kdp, ws.dms
    n = len(kd.cols)
    nf = len(ig.face_centers)
    # the blacks are the rows of Delta^{m,bd}, then the faces
    lower = np.zeros((nf, n - nf), dtype=complex)

    def block(low_right, upper_right):
        return p.kprime * np.block([[low_right.dense(), upper_right],
                                    [lower, dms.dense()]])

    lhs1 = np.conj(kdp.dense()).T @ kd.dense()
    if negative_control:
        lhs1 = _perturb(lhs1, seed)
    r1 = _rel_inf(lhs1, block(at.dmp, at.q.dense()))
    lhs2 = np.conj(kd.dense()).T @ kd.dense()
    r2 = _rel_inf(lhs2, block(at.dmn, lower.T))
    # lower-left block of the product must vanish identically
    zero_block = lhs1[n - nf:, :n - nf]
    r3 = float(np.abs(zero_block).max() / max(np.abs(lhs1).max(), 1e-300))
    res = _worst(r1, r2, r3)
    return _report("dirac_laplacian", ws.ctx(u), res, tol, t0,
                   {"partial": r1, "natural": r2, "zero_block": r3})


def check_main_intertwiner(ws, u, tol=DEFAULT_TOL, negative_control=False,
                           seed=0):
    """The intertwiner identity on the finite graph plus its interior rows."""
    t0 = time.perf_counter()
    at = ws.at(u)
    kq = ws.kq
    s_mat, t_mat = at.st
    lhs = ws.kqp.dense() @ t_mat.dense()
    if negative_control:
        lhs = _perturb(lhs, seed)
    rhs = s_mat.dense() @ at.kdp.dense()
    r1 = _rel_inf(lhs, rhs)
    inner = np.flatnonzero(ws.qg.black_at.side == "")
    if len(inner):
        lhs2 = (kq.dense() @ t_mat.dense())[inner]
        rhs2 = (s_mat.dense() @ at.kd.dense())[inner]
        r2 = _rel_inf(lhs2, rhs2)
    else:
        r2 = 0.0
    res = _worst(r1, r2)
    return _report("main_intertwiner", ws.ctx(u), res, tol, t0,
                   {"finite": r1, "interior": r2})


def check_det_tree_forest(ws, u, tol=DET_TOL, negative_control=False):
    """Determinants of the Dirac operators against the forest partition functions."""
    t0 = time.perf_counter()
    ig, p = ws.ig, ws.p
    at = ws.at(u)
    n_f = len(ig.face_centers)
    n_v = len(ig.base.coords)

    lhs1 = at.lad("kd")
    if negative_control:
        lhs1 += 1e-3
    log_sc, log_cs = ws.white_logs[:2]
    rhs1 = (0.5 * n_f * math.log(p.kprime) + log_sc
            + at.log_product("dn") + ws.lad("dms"))
    r1 = abs(lhs1 - rhs1)

    rhs2 = (0.5 * (n_v - 1) * math.log(p.kprime) + log_cs
            + at.log_product("k_nd") + at.lad("dmp"))
    r2 = abs(at.lad("kdp") - rhs2)
    res = _worst(r1, r2)
    return _report("det_tree_forest", ws.ctx(u), res, tol, t0,
                   {"dirac_vs_dual_forest": r1, "boundary_vs_forest": r2})


def _log_c_tilde(ws, u):
    """log of the constant relating |det K^Q| and |det K^{D,bd}(u)|.

    Uses the eta-product form, which follows from the verified block
    factorization on every instance.  Collapsing the eta-product to
    (k')^{|V*|/2} prod |sc sc|^(1/2) requires the boundary track directions to
    pair up mod 2 pi, which fails e.g. on non-square lattice blocks; the two
    forms coincide whenever that pairing holds, and check_partition_function
    tests the eta-product form against both determinants on every instance.
    """
    at = ws.at(u)
    total = ws.white_logs[2] + at.log_product("eta")
    return _add_root_pair(total, at.table)


def _add_root_pair(total, t):
    """total + log sn(theta) + log |cd(u_{beta_r}) / sn(u_{alpha_r})|, added
    in that order, for the root pair at the edge-table stage ``t``."""
    tab = t.tab
    total += math.log(t.mod.sn_b[tab.rp])
    return total + math.log(abs(t.cd[tab.rp_br] / t.sn[tab.rp_ar]))


def log_z_plus_squared_formula(ws, u):
    """log of the closed form for the squared + boundary Ising partition
    function (eta-product form; see _log_c_tilde)."""
    at = ws.at(u)
    total = ws.white_logs[3] + at.log_product("eta")
    total += at.log_product("k_nd")
    return _add_root_pair(total, at.table) + at.lad("dmp")


def check_partition_function(ws, u, tol=DET_TOL, oracle_budget=2 ** 20,
                             negative_control=False):
    """Partition-function chain: |det K^Q| vs C(u) |det K^{D,bd}(u)|, the
    block-partition factorization, and the squared Ising partition function
    (against the spin oracle when its frontier sum fits ``oracle_budget``)."""
    t0 = time.perf_counter()
    p = ws.p
    at = ws.at(u)
    lad_kq = ws.lad("kq")
    if negative_control:
        lad_kq += 1e-3
    r1 = abs(lad_kq - _log_c_tilde(ws, u) - at.lad("kdp"))

    # Lemma factorization with the reference partition.  S has one entry per
    # G_Q black, at the white of its rhombus: its diagonal blocks are entries
    # of s.vals.  |S| by hypot, which rounds as abs() of a complex scalar
    b1d, b1o, b2, w1, w2, crosses_m1 = ws._graph.lemma
    s_mat, t_mat = at.st
    s = s_mat.vals
    log_s = _logs(np.hypot(s.real, s.imag))
    lad_t1 = inf.logabsdet(t_mat.dense()[w1])
    # R(u) = S2^{-1} KQ_22 - S1o^{-1} KQ_{1o 2} on (inner whites) x W2, row i
    # on the rhombus of B2[i] and B1o[i]
    kq_d = ws.kqp.dense()
    r_mat = kq_d[b2][:, w2] / s[b2, None] - kq_d[b1o][:, w2] / s[b1o, None]
    lad_r = inf.logabsdet(r_mat) if r_mat.size else 0.0
    lhs_fact = ws.lad("kqp") + lad_t1
    rhs_fact = (sum(log_s[b1d].tolist(), 0.0) + sum(log_s[b1o].tolist(), 0.0)
                + sum(log_s[b2].tolist(), 0.0) + lad_r + at.lad("kdp"))
    # the factorization holds for partitions that are not M1's too (the
    # f1/f2 corner swap): it stands for M1 only when the crossings do
    r2 = abs(lhs_fact - rhs_fact) if crosses_m1 else math.inf

    # closed form for [Z+]^2
    log_z2 = log_z_plus_squared_formula(ws, u)
    detail = {"kq_vs_kd": r1, "factorization": r2}
    z_spins = ws.spin_sum(oracle_budget)      # None past the budget: the term is left out
    r3 = None if z_spins is None else abs(2.0 * math.log(z_spins) - log_z2)
    detail["ising_vs_forest"] = r3
    # u and u+2K symmetry of the second corollary form
    u_b = (u + 2.0 * p.bigK) % (4.0 * p.bigK)
    log_z2_b = log_z_plus_squared_formula(ws, u_b)
    r4 = abs(log_z2 - log_z2_b)
    detail["u_shift_consistency"] = r4
    res = _worst(r1, r2, 0.0 if r3 is None else r3, r4)
    return _report("partition_function", ws.ctx(u), res, tol, t0, detail)


def check_z_invariance(p, thetas, u, alpha1=0.0, tol=1e-10):
    """Star-triangle invariance of the directed-tree weights (geometry-free).

    ``thetas`` must sum to 2K.  Returns the max over the seven ratio checks.
    """
    t0 = time.perf_counter()
    if abs(sum(thetas) - 2.0 * p.bigK) > 1e-9:
        raise DomainError("angles must sum to 2K")
    kp = p.kprime
    a = [alpha1, alpha1 + 2.0 * thetas[0], alpha1 + 2.0 * thetas[0] + 2.0 * thetas[1]]
    ua = [0.5 * (u - x) for x in a]
    dn_ = [el.dn(x, p) for x in ua]
    nd_ = [1.0 / d for d in dn_]
    sc_ = [el.sc(th, p) for th in thetas]
    cs_ = [1.0 / s for s in sc_]
    gy_in = [kp ** -0.5 * sc_[j] * dn_[j] * dn_[(j + 1) % 3] for j in range(3)]
    gy_out = [kp ** 1.5 * sc_[j] * nd_[j] * nd_[(j + 1) % 3] for j in range(3)]
    gt = {}
    for j in range(3):
        jm = (j - 1) % 3
        gt[(j, (j + 1) % 3)] = kp ** -0.5 * cs_[jm] * nd_[j] * dn_[jm]
        gt[((j + 1) % 3, j)] = kp ** -0.5 * cs_[jm] * dn_[j] * nd_[jm]
    c_const = kp ** 1.5 * sc_[0] * sc_[1] * sc_[2]
    checks = [abs(sum(gy_in) - c_const) / abs(sum(gy_in))]
    for j in range(3):
        j1, j2 = (j + 1) % 3, (j + 2) % 3
        zs = gy_out[j2] * (gy_in[j] + gy_in[j1])
        zt = gt[(j2, j)] + gt[(j2, j1)]
        checks.append(abs(zs - c_const * zt) / abs(zs))
    for j in range(3):
        j1, j2 = (j + 1) % 3, (j + 2) % 3
        zs = gy_out[j1] * gy_out[j2] * gy_in[j]
        zt = (gt[(j1, j2)] * gt[(j2, j)] + gt[(j2, j1)] * gt[(j1, j)]
              + gt[(j1, j)] * gt[(j2, j)])
        checks.append(abs(zs - c_const * zt) / abs(zs))
    res = _worst(*checks)
    ctx = {"k": p.k, "u": u, "graph": "star-triangle"}
    return _report("z_invariance", ctx, res, tol, t0,
                   {"checks": [float(c) for c in checks]})


def check_dubedat(ws, couplings=None, tol=DEFAULT_TOL, det_tol=DET_TOL,
                  negative_control=False, seed=0):
    """Dubedat's block identities between the Fisher and quadri matrices."""
    t0 = time.perf_counter()
    ig = ws.ig
    if couplings is None:
        couplings = ws.couplings
    fg, qg = ws.fg, ws.qg
    kf = op.kasteleyn_KF(fg, couplings)
    kqt = op.kasteleyn_KQ_real(qg, ig, couplings, ws._graph.eps_q)
    aux = op.fisher_aux(fg, qg, kf)
    xki = aux.x.dense() @ kqt.dense() @ aux.i_wa.dense()
    if negative_control:
        xki = _perturb(xki, seed)
    kbb, kba = aux.blocks["K_BB"], aux.blocks["K_BA"]
    kab, kaa = aux.blocks["K_AB"], aux.blocks["K_AA"]
    m, m_prime = aux.m.dense(), aux.m_prime.dense()
    scale = max(1.0, np.abs(kf.dense()).max())
    r1 = np.abs(kbb + kba @ m_prime).max() / scale
    r2 = np.abs(kab @ m + kaa).max() / scale
    r3 = np.abs(kbb @ m + kba - xki).max() / scale
    r4 = np.abs(kab + kaa @ m_prime + xki.T).max() / scale
    # determinant relation and Pfaffian consistency
    lad_f = inf.logabsdet(kf.dense())
    rhs = (len(ig.face_centers) * math.log(2.0)
           + sum(math.log(1.0 + math.exp(-4.0 * couplings[eid]))
                 for (_ff, eid) in ig.dual_edges)
           + inf.logabsdet(kqt.dense()))
    r5 = abs(lad_f - rhs)
    pf = inf.pfaffian(kf)
    det = np.linalg.det(kf.dense())
    r6 = abs(pf * pf - det) / abs(det)
    res = _worst(r1, r2, r3, r4, r5 / max(1.0, abs(lad_f)), r6)
    return _report("dubedat", ws.ctx(None), res, max(tol, det_tol), t0,
                   {"blocks": [float(r1), float(r2), float(r3), float(r4)],
                    "det_gap": float(r5), "pf_sq": float(r6)})


def check_directed_laplacian_gauge(ws, u, tol=DET_TOL, negative_control=False):
    """The determinant chain through the gauge-transformed Dirac operator."""
    t0 = time.perf_counter()
    ig, p = ws.ig, ws.p
    at = ws.at(u)
    kg, dstar = at.gauge
    lad_kd = at.lad("kd")
    if negative_control:
        lad_kd += 1e-3
    log_c = ws.white_logs[0] + at.log_product("dn")
    lad_kg, lad_dstar = inf.logabsdet(kg.dense()), inf.logabsdet(dstar.dense())
    r1 = abs(lad_kd - log_c - lad_kg)
    r2 = abs(lad_kg - lad_dstar)
    r3 = abs(lad_dstar
             - 0.5 * len(ig.face_centers) * math.log(p.kprime)
             - ws.lad("dms"))
    # gauge function well defined: exact holonomy on the restricted dual
    r4 = _dual_gauge_path_independence(ws, u)
    res = _worst(r1, r2, r3, r4)
    return _report("directed_laplacian_gauge", ws.ctx(u), res, tol, t0,
                   {"kd_vs_kg": r1, "kg_vs_dstar": r2, "dstar_vs_forest": r3,
                    "path_independence": r4})


def _dual_step(at):
    """The gauge ratios q(f')/q(f) across the dual edges, as arcs (src, dst,
    step): for each inner edge, f1 -> f2 then f2 -> f1, each step
    (1/k') dn(u_alpha) dn(u_beta) of the Dirac entry at its source face, dn
    read from the spectral stage of u at the lifts of the layout."""
    t, lay = at.table, op.dirac_layout(at.dg)
    f1, f2, i1, i2 = lay.sides[2]
    e = np.stack([i1, i2], axis=1).ravel()
    steps = (1.0 / at.p.kprime) * t.dn[lay.gd_a[e]] * t.dn[lay.gd_b[e]]
    return np.stack([f1, f2], axis=1).ravel(), np.stack([f2, f1], axis=1).ravel(), steps


def _gauge_holonomy(ws, u):
    """Exact holonomy test of the gauge function q on the restricted dual.

    q is fixed to 1 at the first face of each component and carried over a
    BFS tree by the arcs of ``_dual_step``, each face's in edge order.
    Returns max |q(a) step(a, e) / q(b) - 1| over every dual edge a -e- b in
    both directions, which is 0 exactly when the steps are reciprocal and
    multiply to 1 around every cycle, i.e. when q is well defined.
    """
    src, dst, step = _dual_step(ws.at(u))
    return op.gauge_potential(len(ws.ig.face_centers), src, dst, step, np.unique(src))[2]


def _dual_gauge_path_independence(ws, u):
    """Path independence of the gauge function q on the restricted dual by
    exact holonomy, plus the explicit diagonal conjugation; +inf when no
    diagonal gauge carries D* / sqrt(k') to the dual massive Laplacian."""
    p = ws.p
    _kg, dstar = ws.at(u).gauge
    scaled = op.TypedSparseMatrix(dstar.rows, dstar.cols, dstar.i, dstar.j,
                                  dstar.vals / math.sqrt(p.kprime), "scaled")
    dms = ws.dms
    try:
        d = op.gauge_q(dms, scaled, bipartite=False, tol=1e-8)
    except NotGaugeEquivalentError:
        return math.inf
    dd = d.dense()
    resid = np.abs(dms.dense() - dd @ scaled.dense() @ np.linalg.inv(dd)).max()
    return float(_worst(_gauge_holonomy(ws, u),
                        resid / max(1.0, np.abs(dms.dense()).max())))


# ---------------------------------------------------------------------------
# battery driver
# ---------------------------------------------------------------------------

def run_battery(ig, ks=(0.0, 0.3, 0.6, 0.9), u_count=4, delta=None, tol=None,
                oracle_budget=2 ** 20, negative_control=False, u_values=None,
                seed=0):
    """Run all theorem checks over k values and admissible spectral values.

    Explicit ``u_values`` override the admissible-set selection (the caller is
    then responsible for avoiding excluded directions); ``seed`` picks which
    entry the negative control perturbs.
    """
    from .isoradial import admissible_u

    reports = []
    ws = None
    for k in ks:
        p = el.complete_integrals(k)
        d = delta if delta is not None else p.bigK / 16.0
        ws = Workspace(ig, p) if ws is None else ws.with_modulus(p)
        if u_values is not None:
            us_prime = list(u_values)
            us_dp = list(u_values)
        else:
            us_prime = admissible_u(ig, p, "prime", delta=d, count=u_count)
            us_dp = admissible_u(ig, p, "doubleprime", delta=d, count=u_count)
        for u in us_prime:
            reports.append(check_dirac_laplacian(
                ws, u, negative_control=negative_control, seed=seed))
            reports.append(check_main_intertwiner(
                ws, u, negative_control=negative_control, seed=seed))
        for u in us_dp:
            reports.append(check_det_tree_forest(
                ws, u, negative_control=negative_control))
            reports.append(check_partition_function(
                ws, u, oracle_budget=oracle_budget,
                negative_control=negative_control))
            reports.append(check_directed_laplacian_gauge(
                ws, u, negative_control=negative_control))
        reports.append(check_dubedat(ws, negative_control=negative_control,
                                     seed=seed))
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.uniform(0.2, 0.8, size=3)
            th = 2.0 * p.bigK * x / x.sum()
            if th.max() > 0.95 * p.bigK:
                continue
            u = float(rng.uniform(0.0, 4.0 * p.bigK))
            reports.append(check_z_invariance(p, list(th), u,
                                              alpha1=float(rng.uniform(0, 4 * p.bigK))))
    if tol is not None:
        for r in reports:
            r.tolerance = tol
            r.passed = r.residual <= tol
    return reports
