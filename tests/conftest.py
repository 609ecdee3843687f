import cmath
import math

import pytest

from isodimer import elliptic as el
from isodimer import isoradial as iso
from isodimer.derived import fkey, vkey, wkey
from isodimer.elliptic import complete_integrals
from isodimer.errors import OracleBudgetError
from isodimer.operators import TypedSparseMatrix

_GRAPH_CACHE = {}


def get_graph(spec):
    if spec not in _GRAPH_CACHE:
        _GRAPH_CACHE[spec] = iso.make_isoradial(iso.builder_graph(spec))
    return _GRAPH_CACHE[spec]


def positions(keys):
    """The {key: position} map of a key tuple, such as a matrix's rows."""
    return {k: n for n, k in enumerate(keys)}


def matrix_of(rows, cols, entries, name=""):
    """The TypedSparseMatrix of a {(row, col): value} dict, in the dict's order."""
    row_at, col_at = positions(rows), positions(cols)
    return TypedSparseMatrix(rows, cols, [row_at[r] for r, _c in entries],
                             [col_at[c] for _r, c in entries], list(entries.values()), name)


@pytest.fixture(scope="session")
def ig_1x1():
    return get_graph("square:1x1")


@pytest.fixture(scope="session")
def ig_1x2():
    return get_graph("square:1x2")


@pytest.fixture(scope="session")
def ig_2x2():
    return get_graph("square:2x2")


@pytest.fixture(scope="session")
def ig_3x3():
    return get_graph("square:3x3")


@pytest.fixture(scope="session")
def ig_4x3():
    return get_graph("square:4x3")


@pytest.fixture(scope="session")
def ig_hex():
    return get_graph("hex")


@pytest.fixture(scope="session")
def params_half():
    return complete_integrals(0.5)


# ---------------------------------------------------------------------------
# exhaustive references for the frontier sum of isodimer.derived
# ---------------------------------------------------------------------------

def branching_matchings(vertices, edges, weights=None, budget=10 ** 6,
                        collect=False, marginals=False):
    """Reference: weighted perfect-matching sum by exhaustive branching.

    Branches on the currently most constrained uncovered vertex (fail first);
    the naive lowest-id order blows up on Fisher decorations.
    Returns (count, weighted_sum[, matchings][, per-edge weighted sums]).
    """
    vs = sorted(vertices, key=str)
    pos = {v: i for i, v in enumerate(vs)}
    nbr = [[] for _ in vs]
    for idx, (x, y) in enumerate(edges):
        wgt = 1.0 if weights is None else weights[idx]
        nbr[pos[x]].append((pos[y], idx, wgt))
        nbr[pos[y]].append((pos[x], idx, wgt))
    n = len(vs)
    covered = [False] * n
    out = {"count": 0, "sum": 0.0, "nodes": 0}
    found = []
    marg = [0.0] * len(edges)
    stack_edges = []

    def pick():
        best, best_free = -1, None
        for i in range(n):
            if covered[i]:
                continue
            free = [t for t in nbr[i] if not covered[t[0]]]
            if best_free is None or len(free) < len(best_free):
                best, best_free = i, free
                if len(free) <= 1:
                    break
        return best, best_free

    def rec(weight):
        out["nodes"] += 1
        if out["nodes"] > budget:
            raise OracleBudgetError(f"matching enumeration exceeded {budget} nodes")
        i, free = pick()
        if i < 0:
            out["count"] += 1
            out["sum"] += weight
            if collect:
                found.append(tuple(sorted(stack_edges)))
            if marginals:
                for idx in stack_edges:
                    marg[idx] += weight
            return
        if not free:
            return
        covered[i] = True
        for j, idx, wgt in free:
            covered[j] = True
            stack_edges.append(idx)
            rec(weight * wgt)
            stack_edges.pop()
            covered[j] = False
        covered[i] = False

    if n % 2 == 0:
        rec(1.0)
    result = [out["count"], out["sum"]]
    if collect:
        result.append(found)
    if marginals:
        result.append(marg)
    return tuple(result)


def subset_scan_polygons(ig, couplings):
    """Reference: (count, sum) of the dual-edge subsets with even degree at every face.

    The sum omits the prefactor exp(sum of couplings).
    """
    duals = ig.dual_edges
    count = 0
    total = 0.0
    for bits in range(2 ** len(duals)):
        deg = {}
        weight = 1.0
        for i, ((fa, fb), eid) in enumerate(duals):
            if (bits >> i) & 1:
                deg[fa] = deg.get(fa, 0) + 1
                deg[fb] = deg.get(fb, 0) + 1
                weight *= math.exp(-2.0 * couplings[eid])
        if all(d % 2 == 0 for d in deg.values()):
            count += 1
            total += weight
    return count, total


def spin_loop(ig, couplings):
    """Reference: (count, sum) of exp(sum_e J_e s_a s_b) over the spin
    configurations with every boundary spin +1, one configuration at a time."""
    boundary = ig.base.boundary_vertices()
    free = [v for v in sorted(ig.base.coords) if v not in boundary]
    edges = [(ig.rhombi[e].v1, ig.rhombi[e].v2, couplings[e]) for e in ig.edge_list()]
    total = 0.0
    for bits in range(2 ** len(free)):
        spin = {v: 1 for v in boundary}
        for i, v in enumerate(free):
            spin[v] = 1 if (bits >> i) & 1 else -1
        total += math.exp(sum(j * spin[a] * spin[b] for a, b, j in edges))
    return 2 ** len(free), total


# ---------------------------------------------------------------------------
# per-edge scalar references for the edge-table gathers of isodimer.operators
# ---------------------------------------------------------------------------

def _walked_double_graph(ig, rooted):
    """Reference: the double graph walked rhombus by rhombus, independent of
    the Dirac layout that ``derived.DoubleGraph`` views.

    Returns (whites, blacks, records): the edge ids, the black keys (primal,
    less the root when ``rooted``, then dual), and for every double-graph
    edge (white edge id, black key), in slot order v2, v1, f1, f2, its lifted
    angles seen from the white and the kind of the black.
    """
    root = ig.root
    whites = ig.edge_list()
    blacks = ([vkey(v) for v in sorted(ig.base.coords) if not (rooted and v == root)]
              + [fkey(f) for f in range(len(ig.face_centers))])
    records = {}
    for eid in whites:
        r = ig.rhombi[eid]
        a, b = r.alpha_bar, r.beta_bar
        items = [(vkey(r.v2), a, b, "v"),
                 (vkey(r.v1), a + math.pi, b + math.pi, "v"),
                 (fkey(r.f1), b - math.pi, a, "f")]
        if r.f2 is not None:
            items.append((fkey(r.f2), b, a + math.pi, "f"))
        for black, ae, be, kind in items:
            if rooted and black == vkey(root):
                continue
            records[(eid, black)] = {"alpha": ae, "beta": be, "kind": kind}
    return whites, blacks, records


class ScalarOperators:
    """Operator entries of one (graph, k), edge by edge from the scalar
    functions of ``elliptic``: the reference for the table gathers.

    Each method returns an entries dict keyed like the builder's matrix.
    """

    def __init__(self, ig, p):
        self.ig, self.p = ig, p
        self._walks = {}

    def records(self, dg):
        """The walked edge records of the double graph ``dg`` of ``ig``."""
        if dg.rooted not in self._walks:
            self._walks[dg.rooted] = _walked_double_graph(self.ig, dg.rooted)[2]
        return self._walks[dg.rooted]

    def ell(self, angle_bar):
        return el.angle_transform(angle_bar, self.p)

    def u_arg(self, u, angle_bar):
        return 0.5 * (u - self.ell(angle_bar))

    def a_of(self, theta_bar):
        return el.a_fun(self.ell(theta_bar), self.p)

    def _edge(self, a, b):
        return self.ig.edge_ids[(min(a, b), max(a, b))]

    # -- massive Laplacians ---------------------------------------------------

    def boundary_diag(self, v, u):
        """k' * sum over the edges at v of sc(theta) nd(u_a) nd(u_b), from-v lifts."""
        ig, p = self.ig, self.p
        total = 0.0
        for w in ig.base.adj[v]:
            r = ig.rhombi[self._edge(v, w)]
            # the lifts seen from v: as stored from v1, turned by pi from v2
            turn = 0.0 if v == r.v1 else math.pi
            a_bar, b_bar = r.alpha_bar + turn, r.beta_bar + turn
            total += (el.sc(self.ell(r.theta_bar), p)
                      * el.nd(self.u_arg(u, a_bar), p) * el.nd(self.u_arg(u, b_bar), p))
        return p.kprime * total

    def interior_diag(self, v):
        """sum over the edges at v of A(theta)."""
        return sum(self.a_of(self.ig.rhombi[self._edge(v, w)].theta_bar)
                   for w in self.ig.base.adj[v])

    def _laplacian(self, verts, edges, diag, key=vkey):
        ent = {}
        for x, y, c in edges:
            for r, s in ((key(x), key(y)), (key(y), key(x))):
                ent[(r, s)] = ent.get((r, s), 0.0) - c
        for x in verts:
            ent[(key(x), key(x))] = diag(x)
        return ent

    def _primal(self, root=None):
        ig, p = self.ig, self.p
        verts = [v for v in sorted(ig.base.coords) if v != root]
        edges = [(r.v1, r.v2, el.sc(self.ell(r.theta_bar), p))
                 for r in map(ig.rhombi.__getitem__, ig.edge_list())
                 if root not in (r.v1, r.v2)]
        return verts, edges

    def delta_m_star(self):
        ig, p = self.ig, self.p

        def face_diag(fi):
            cyc = ig.base.faces[fi]
            return sum(self.a_of(math.pi / 2 - ig.rhombi[self._edge(a, b)].theta_bar)
                       for a, b in zip(cyc, cyc[1:] + cyc[:1]))

        edges = [(fa, fb, el.sc(self.ell(math.pi / 2 - ig.rhombi[eid].theta_bar), p))
                 for (fa, fb), eid in ig.dual_edges]
        return self._laplacian(range(len(ig.face_centers)), edges, face_diag, key=fkey)

    def delta_m_bulk(self):
        return self._laplacian(*self._primal(), self.interior_diag)

    def delta_m_natural(self, u):
        boundary = self.ig.base.boundary_vertices()
        return self._laplacian(*self._primal(self.ig.root), lambda v: (
            self.boundary_diag(v, u) if v in boundary else self.interior_diag(v)))

    def delta_m_partial(self, u):
        p = self.p
        ent = self.delta_m_natural(u)
        for bp in self.ig.boundary_pairs:
            if bp.is_root:
                continue
            sc = el.sc(self.ell(bp.theta_bar), p)
            u_al, u_bl, u_br = (self.u_arg(u, x) for x in (bp.alpha_l, bp.beta_l, bp.beta_r))
            cn_al, cn_br = el.cn(u_al, p), el.cn(u_br, p)
            ent[(vkey(bp.vc), vkey(bp.vl))] = -sc * el.cd(u_br, p) / el.cd(u_al, p)
            ent[(vkey(bp.vc), vkey(bp.vc))] = (p.kprime * sc * el.nd(u_bl, p) * el.nd(u_br, p)
                                               * (cn_br + cn_al) / cn_al)
        return ent

    def q_matrix(self, u):
        p = self.p
        ent = {}
        for bp in self.ig.boundary_pairs:
            if not bp.is_root:
                cd_al = el.cd(self.u_arg(u, bp.alpha_l), p)
                ent[(vkey(bp.vc), fkey(bp.fc))] = (
                    -1j * el.nd(self.u_arg(u, bp.beta_l), p) / cd_al
                    * (el.cd(self.u_arg(u, bp.beta_r), p) - cd_al))
        return ent

    # -- Dirac operators ------------------------------------------------------

    def dirac(self, dg, u, variant="plain"):
        p = self.p
        ent = {}
        for (w, black), rec in self.records(dg).items():
            ua, ub = self.u_arg(u, rec["alpha"]), self.u_arg(u, rec["beta"])
            theta = self.ig.rhombi[w].theta_bar
            sc = el.sc(self.ell(theta if rec["kind"] == "v" else math.pi / 2 - theta), p)
            da, db = el.dn(ua, p), el.dn(ub, p)
            rad = sc * da * db if rec["kind"] == "v" else p.kprime ** 2 * sc / (da * db)
            ent[(wkey(w), black)] = cmath.exp(0.5j * (rec["alpha"] + rec["beta"])) * math.sqrt(rad)
        if variant == "boundary":
            for bp in self.ig.boundary_pairs:
                if not bp.is_root:
                    ent[(wkey(bp.wl), vkey(bp.vc))] *= (el.cd(self.u_arg(u, bp.beta_r), p)
                                                        / el.cd(self.u_arg(u, bp.alpha_l), p))
        return ent

    def gamma_star(self, dg, u, w, f):
        """The directed conductance k'^(1/2) cs(theta_w) nd(u_a) nd(u_b) of white
        w seen from face f."""
        p = self.p
        rec = self.records(dg)[(w, fkey(f))]
        return (math.sqrt(p.kprime) * el.cs(self.ell(self.ig.rhombi[w].theta_bar), p)
                * el.nd(self.u_arg(u, rec["alpha"]), p) * el.nd(self.u_arg(u, rec["beta"]), p))

    def gauge(self, dg, u):
        """Entries of K^g(u) and of the directed dual Laplacian."""
        kg = {}
        for (w, black), rec in self.records(dg).items():
            phase = cmath.exp(0.5j * (rec["alpha"] + rec["beta"]))
            kg[(wkey(w), black)] = phase * (
                1.0 if rec["kind"] == "v" else self.gamma_star(dg, u, w, black[1]))
        lap = {(fkey(f), fkey(f)): 0.0 for f in range(len(self.ig.face_centers))}
        for eid in self.ig.edge_list():
            r = self.ig.rhombi[eid]
            for f, g in ((r.f1, r.f2), (r.f2, r.f1)):
                if f is None:
                    continue
                gam = self.gamma_star(dg, u, eid, f)
                lap[(fkey(f), fkey(f))] += gam
                if g is not None:
                    lap[(fkey(f), fkey(g))] = lap.get((fkey(f), fkey(g)), 0.0) - gam
        return kg, lap

    # -- quadri matrices, couplings and intertwiners -------------------------

    def _theta(self, eid):
        return el.theta_transform(self.ig.rhombi[eid].theta_bar, self.p)

    def kasteleyn_kq(self, qg):
        p = self.p
        ent = {}
        for blk, wht, kind, phase_bar in qg.edges:
            th = self._theta(blk[1])
            weight = {"sn": el.sn(th, p), "cn": el.cn(th, p)}.get(kind, 1.0)
            ent[(blk, wht)] = cmath.exp(1j * phase_bar) * weight
        return ent

    def kq_bar_partial(self, qg):
        p = self.p
        ent = self.kasteleyn_kq(qg)
        for blk, wht, kind, _ in qg.edges:
            role = qg.pair_role.get(blk[1])
            if role and blk[2] == 1 and (role[0], kind) in (("l", "ext"), ("r", "bq")):
                ent[(blk, wht)] *= el.sn(el.theta_transform(role[1].theta_bar, p), p)
        return ent

    def couplings(self):
        p = self.p
        return {eid: 0.5 * math.log((1.0 + el.sn(self._theta(eid), p)) / el.cn(self._theta(eid), p))
                for eid in self.ig.edge_list()}

    def s_t(self, qg, dg, u):
        """Entries of the intertwiners S(u) and T(u)."""
        ig, p = self.ig, self.p
        s_ent = {}
        for blk in qg.blacks:
            eid = blk[1]
            r = ig.rhombi[eid]
            th = self.ell(r.theta_bar)
            role = qg.pair_role.get(eid)
            if role is None:
                shift = 0.0 if blk[2] == 1 else math.pi
                a_bar, b_bar, c_bar = r.alpha_bar + shift, r.beta_bar + shift, r.beta_bar + shift
            elif role[0] == "r":
                a_bar, b_bar = role[1].alpha_r, role[1].beta_r
                c_bar = b_bar
            else:
                a_bar, b_bar = role[1].alpha_l, role[1].beta_l
                c_bar = a_bar
            ua, ub = self.u_arg(u, a_bar), self.u_arg(u, b_bar)
            s_ent[(blk, wkey(eid))] = (
                cmath.exp(-0.5j * c_bar) * el.cn(self.u_arg(u, c_bar), p)
                * math.sqrt(el.sn(th, p) * el.cn(th, p) * el.nd(ua, p) * el.nd(ub, p)))
        t_ent = {}
        for wht in qg.whites:
            eid = wht[1]
            r = ig.rhombi[eid]
            role = qg.pair_role.get(eid)
            corner = wht[2]
            if role is not None and corner == 2 and role[0] == "l":
                bp = role[1]
                if not bp.is_root:
                    t_ent[(wht, vkey(bp.vc))] = (
                        -1j * p.kprime * cmath.exp(-0.5j * bp.alpha_r)
                        * el.sn(self.ell(bp.theta_bar), p) * el.nd(self.u_arg(u, bp.alpha_r), p)
                        * el.cd(self.u_arg(u, bp.beta_r), p))
                t_ent[(wht, fkey(bp.fc))] = (cmath.exp(-0.5j * bp.beta_l)
                                             * el.cd(self.u_arg(u, bp.beta_l), p))
                continue
            if corner == 2:
                v, f, b_bar = r.v2, r.f1, r.beta_bar
            else:
                v, f, b_bar = r.v1, r.f2, r.beta_bar + math.pi
            if not (dg.rooted and v == ig.root):
                t_ent[(wht, vkey(v))] = cmath.exp(-0.5j * b_bar) * el.cn(self.u_arg(u, b_bar), p)
            t_ent[(wht, fkey(f))] = (cmath.exp(-0.5j * (b_bar + math.pi))
                                     * el.cd(self.u_arg(u, b_bar) - p.bigK, p))
        return s_ent, t_ent
