"""Assembly of the operator zoo: Dirac operators, massive Laplacians,
Kasteleyn matrices of the quadri and Fisher graphs, intertwiners and the
auxiliary block matrices.

Rows and columns are indexed by typed vertex keys (see ``derived``); entries
are complex.  Assembly is deterministic: indices are sorted, every entry is a
pure function of (graph, k, u) and the stored angle lifts.

The builders that evaluate elliptic functions gather their entries from the
:class:`EdgeTable` of their graph argument, which may be an isoradial graph
or a double graph of one: both read the one table of the isoradial graph
(see :func:`edge_table`).
"""

import cmath
import math
import operator
import weakref
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np
import numpy.ma  # noqa: F401  (np.unique reads np.ma, which numpy loads on first use)

from . import elliptic as el
from .derived import fkey, vkey, wkey
from .errors import (
    DomainError,
    NegativeRadicandError,
    NotGaugeEquivalentError,
    PoleError,
    SingularityError,
)


class TypedSparseMatrix:
    """A complex matrix with typed row and column keys, as coordinate arrays.

    Entry n holds ``vals[n]`` at ``(rows[i[n]], cols[j[n]])``; no (i, j)
    repeats.  ``vals`` keeps the dtype it is given (a matrix of real entries
    keeps real ones); ``dense`` is complex.  The ``{(row, col): value}`` view
    ``entries`` is built on first use.  ``gauge``, when the builder keeps it,
    holds per entry the unit factor q_row q_col of a diagonal gauge that makes
    the matrix real (see :func:`real_form`).
    """

    def __init__(self, rows, cols, i, j, vals, name="", gauge=None):
        self.rows, self.cols = tuple(rows), tuple(cols)
        self.i, self.j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        self.vals = np.asarray(vals)
        self.name = name
        self.gauge = gauge
        self._dense = None

    def _keys(self):
        return zip(map(self.rows.__getitem__, self.i.tolist()),
                   map(self.cols.__getitem__, self.j.tolist()))

    @cached_property
    def entries(self):
        return dict(zip(self._keys(), self.vals.tolist()))

    def dense(self):
        if self._dense is None:
            self._dense = np.zeros((len(self.rows), len(self.cols)), dtype=complex)
            self._dense[self.i, self.j] = self.vals
        return self._dense

    def get(self, r, c):
        return self.entries.get((r, c), 0.0)

    def check_antisymmetric(self, tol=1e-14):
        """Raise DomainError unless rows and columns are one key tuple, every
        entry is finite and each entry (r, c) is minus the entry at (c, r), or
        0 where there is none."""
        key, flip = self.i * len(self.cols) + self.j, self.j * len(self.cols) + self.i
        srt = np.argsort(key)
        at = srt.take(np.searchsorted(key, flip, sorter=srt), mode="clip")
        partner = np.where(key.take(at) == flip, self.vals.take(at), 0.0)
        scale = np.abs(self.vals).max(initial=1.0)
        if not np.isfinite(scale):
            raise DomainError(f"{self.name}: non-finite entry")
        # <= rather than >, so that a gap that is not a number fails
        if self.rows != self.cols or not (np.abs(self.vals + partner) <= tol * scale).all():
            raise DomainError(f"{self.name}: antisymmetry violated")

    def dump_text(self):
        """One line per entry, sorted by the str of its (row, col) key."""
        lines = [f"# {self.name} rows={len(self.rows)} cols={len(self.cols)}"]
        lines.append("# row-id\tcol-id\tre\tim")
        for (r, c), v in sorted(zip(self._keys(), self.vals.tolist()), key=lambda kv: str(kv[0])):
            v = complex(v)
            lines.append(f"{r}\t{c}\t{v.real!r}\t{v.imag!r}")
        return "\n".join(lines) + "\n"


def _ratio(num, den, name, args):
    """num / den elementwise, with the pole test of ``elliptic`` on every entry."""
    pole = np.abs(den) < el._POLE_EPS
    if pole.any():
        raise PoleError(f"{name}({np.extract(pole, args)[0]}) evaluated at a pole")
    return num / den


def _sqrt_pos(x, what):
    negative = x < -1e-12
    if negative.any():
        raise NegativeRadicandError(f"negative radicand in {what}: {np.extract(negative, x)[0]}")
    return np.sqrt(np.maximum(x, 0.0))


def _check_u_allowed(ig, p, u, level):
    from .isoradial import _excluded_set

    period = 4.0 * p.bigK
    for e in _excluded_set(ig, p, level):
        d = abs((u - e) % period)
        if min(d, period - d) < 1e-8:
            raise DomainError(
                f"u={u} too close to the excluded direction {e} (level {level})")


# ---------------------------------------------------------------------------
# the edge table
# ---------------------------------------------------------------------------

def spectral_key(u):
    """The key of a spectral value in a per-u cache: repr tells -0.0 from
    0.0, which == does not, and float() makes a numpy scalar and the equal
    Python float one key."""
    return repr(float(u))


def _jacobi(args, p):
    """(sn, cn, dn) arrays at every argument, one ``elliptic.jacobi`` call per
    distinct value, so every value is the scalar kernel's bit for bit (numpy's
    arcsin, which a vectorised Landen recursion would need, is not libm's)."""
    uniq, inv = np.unique(args, return_inverse=True)
    return np.array([el.jacobi(x, p) for x in uniq.tolist()]).reshape(-1, 3)[inv].T


def _first_of_class(values):
    """Each angle replaced by the first one met that agrees with it to 14 decimals.

    Half-angles that are equal in exact arithmetic differ in their last bits
    on the lattices; A is evaluated once per such class, at the angle met
    first in row order, so all rows of a class read one value.
    """
    uniq, first, inv = np.unique(values, return_index=True, return_inverse=True)
    rep = {}
    for x, _i in sorted(zip(uniq.tolist(), first.tolist()), key=lambda xi: xi[1]):
        rep.setdefault(round(x, 14), x)
    return np.array([rep[round(x, 14)] for x in uniq.tolist()], dtype=float)[inv]


def _ints(values):
    return np.array(list(values), dtype=np.intp)


class EdgeTable:
    """The rhombus data of one isoradial graph that the builders read, as arrays.

    The per-graph stage (see :func:`edge_table`): the half-angles ``theta`` in
    ``edge_list`` order, the pair data, and every lifted angle a builder
    evaluates at, held once in ``angles``: alpha, beta, alpha + pi, beta + pi
    and beta - pi of every rhombus (the lifts of both double graphs) and the
    boundary-pair lifts.  The ends v1, v2 of every edge are positions in the
    sorted vertex ids ``verts``, and its faces f1, f2 face ids (-1 for the
    missing f2 of a boundary edge).  Edge ids are positions in ``eids``
    (``make_isoradial`` numbers the edges 0, 1, ...).  The arrays of the Laplacians
    (:attr:`primal`, :attr:`dual`) and the Dirac-entry layouts
    (:meth:`layout`) are gathered from these on first use.  :meth:`at`
    gives the stages of a modulus and of a spectral value.
    """

    def __init__(self, ig):
        self.ig = weakref.proxy(ig)     # ig keeps its own table: no cycle back
        self._mod = None
        self._specs = {}
        self._layouts = {}
        self.eids = ig.edge_list()
        rh = [ig.rhombi[e] for e in self.eids]
        self.verts = np.array(sorted(ig.base.coords))
        self.root = self.vix(ig.root)
        self.v1, self.v2 = self.vix([(r.v1, r.v2) for r in rh]).reshape(-1, 2).T
        self.f1 = _ints(r.f1 for r in rh)
        self.f2 = _ints(-1 if r.f2 is None else r.f2 for r in rh)
        ends = self.vix(list(ig.edge_ids)).reshape(-1, 2)
        self._ekey = ends[:, 0] * len(self.verts) + ends[:, 1]
        srt = np.argsort(self._ekey)
        self._ekey = self._ekey[srt]
        self._eat = _ints(ig.edge_ids.values())[srt]
        self.theta = np.array([r.theta_bar for r in rh], dtype=float)
        bad = ~((self.theta > 0.0) & (self.theta < math.pi / 2))
        if bad.any():
            raise DomainError("embedding half-angle must lie in (0, pi/2), "
                              f"got {self.theta[bad][0]}")
        self.theta_star = math.pi / 2 - self.theta
        alpha = self.alpha = np.array([r.alpha_bar for r in rh], dtype=float)
        beta = self.beta = np.array([r.beta_bar for r in rh], dtype=float)
        bps = ig.boundary_pairs
        self.bp_theta = np.array([bp.theta_bar for bp in bps], dtype=float)
        bp_index = {bp.vc: i for i, bp in enumerate(bps)}
        self.pairs = [bp for bp in bps if not bp.is_root]
        self.nr = _ints(bp_index[bp.vc] for bp in self.pairs)
        self.rp = bp_index[ig.root]
        self.bp_lifts = np.array([(bp.alpha_l, bp.beta_l, bp.alpha_r, bp.beta_r) for bp in bps],
                                 dtype=float).reshape(-1, 4).T
        self.angles = np.unique(np.concatenate(
            [alpha, beta, alpha + math.pi, beta + math.pi, beta - math.pi, *self.bp_lifts]))
        # lifts of the non-root pairs and of the root pair
        al, bl, ar, br = (self.ix(x) for x in self.bp_lifts)
        self.p_al, self.p_bl, self.p_br = al[self.nr], bl[self.nr], br[self.nr]
        self.rp_ar, self.rp_br = ar[self.rp], br[self.rp]

    @cached_property
    def primal(self):
        return _Primal(self)

    @cached_property
    def dual(self):
        return _Dual(self)

    def layout(self, rooted=True):
        """The Dirac-entry layout of the rooted or the unrooted double graph,
        built on first use: the one construction of its edges, which
        :class:`derived.DoubleGraph` views."""
        if rooted not in self._layouts:
            self._layouts[rooted] = _Layout(self, rooted)
        return self._layouts[rooted]

    def vix(self, ids):
        """Positions in ``verts`` of vertex ids."""
        return np.searchsorted(self.verts, ids)

    def edge_at(self, x, y):
        """Positions in ``eids`` of the edges between the vertices at
        positions x and y (arrays, ends in either order)."""
        key = np.minimum(x, y) * len(self.verts) + np.maximum(x, y)
        i = np.searchsorted(self._ekey, key)
        if not np.array_equal(self._ekey.take(i, mode="clip"), key):
            raise DomainError("a vertex pair that is not an edge of this graph")
        return self._eat[i]

    def ix(self, values):
        """Positions in ``angles`` of lifted angles it holds."""
        values = np.asarray(values, dtype=float)
        i = np.searchsorted(self.angles, values)
        if not (self.angles[np.minimum(i, len(self.angles) - 1)] == values).all():
            raise DomainError("a lifted angle that is not one of this graph's")
        return i

    def at(self, p, u=None):
        """The stage of modulus ``p``, or of (p, u).  The table keeps the
        latest modulus and every spectral stage of it, so each (k, u) is
        evaluated once however its uses interleave; a new modulus drops them."""
        if self._mod is None or (self._mod.p is not p and self._mod.p != p):
            self._mod = _Modulus(self, p)
            self._specs = {}
        if u is None:
            return self._mod
        key = spectral_key(u)
        if key not in self._specs:
            self._specs[key] = _Spectral(self._mod, u)
        return self._specs[key]



class _Layout:
    """The Dirac entries of one double graph: their white edges, blacks and
    lifts (positions in ``angles``), whether the black is primal, and the
    (w_l, v_c) entry of each non-root pair.

    Every edge has four slots, in this order: its v2 and
    v1 (from-white lifts (alpha, beta) and (alpha + pi, beta + pi)), its f1
    (beta - pi, alpha) and its f2 (beta, alpha + pi); a rooted graph leaves
    out the slots at the root, and a boundary edge has no f2.  ``slot``
    holds each slot's entry position, -1 where there is none.
    """

    def __init__(self, tab, rooted):
        self.tab, self.rooted = tab, rooted
        self._st = None
        n_v, n_f = len(tab.verts), len(tab.ig.face_centers)
        kept = np.ones(n_v, dtype=bool)
        if rooted:
            kept[tab.root] = False
        col = np.cumsum(kept) - 1                    # primal black of each vertex
        self.whites = tuple(wkey(w) for w in tab.eids)
        self.blacks = (tuple(vkey(v) for v in tab.verts[kept].tolist())
                       + tuple(fkey(f) for f in range(n_f)))
        n_p, a, b, pi = int(kept.sum()), tab.alpha, tab.beta, math.pi
        black = np.stack([col[tab.v2], col[tab.v1], n_p + tab.f1, n_p + tab.f2], axis=1)
        lift_a = np.stack([a, a + pi, b - pi, b], axis=1)
        lift_b = np.stack([b, b + pi, a, a + pi], axis=1)
        on = np.stack([kept[tab.v2], kept[tab.v1], tab.f1 >= 0, tab.f2 >= 0], axis=1)
        self.slot = np.full(on.shape, -1, dtype=np.intp)
        self.slot[on] = np.arange(on.sum())
        self.gd_e, kind = np.nonzero(on)
        self.gd_j = black[on]
        self.gd_a = tab.ix(lift_a[on])
        self.gd_b = tab.ix(lift_b[on])
        self.gd_v = kind < 2
        self.gd_dual = np.flatnonzero(~self.gd_v)
        # (w_l, v_c) is the v2 slot of w_l (make_isoradial checks v2 = v_c)
        self.p_kd = self.slot[_ints(bp.wl for bp in tab.pairs), 0]

    def phase(self):
        """e^{i(alpha+beta)/2} of every entry, as a new array."""
        angles = self.tab.angles
        return np.exp(0.5j * (angles[self.gd_a] + angles[self.gd_b]))

    def unit(self):
        """The unit-weight Dirac operator, of entries ``phase()``, as a new
        matrix on every call (a caller may write to its ``vals``)."""
        return TypedSparseMatrix(self.whites, self.blacks, self.gd_e, self.gd_j, self.phase(),
                                 "unit_dirac")

    @cached_property
    def gauge(self):
        """The :func:`unit_gauge` of :meth:`unit`: every Dirac operator of the
        layout is ``phase()`` times real factors, so one gauge serves all
        (k, u)."""
        return unit_gauge(self.unit())

    @cached_property
    def gd_pos(self):
        """The position of each double-graph edge (white edge id, black key)."""
        eids, blacks = self.tab.eids, self.blacks
        return {(eids[e], blacks[j]): i
                for i, (e, j) in enumerate(zip(self.gd_e.tolist(), self.gd_j.tolist()))}

    @cached_property
    def sides(self):
        """The dual entries of every edge: face and entry, f1 then f2 in edge
        order; and (f1, f2, entry at f1, entry at f2) of every inner edge, as
        four rows."""
        tab, dual = self.tab, self.slot[:, 2:]
        faces = np.stack([tab.f1, tab.f2], axis=1)
        inner = np.flatnonzero(tab.f2 >= 0)
        return (faces[faces >= 0], dual[faces >= 0],
                np.array([tab.f1[inner], tab.f2[inner], dual[inner, 0], dual[inner, 1]],
                         dtype=np.intp).reshape(4, -1))

    def st_layout(self, qg):
        """Positions and lifts of the S and T entries for the quadri graph
        ``qg``, gathered from its arrays; kept for the latest ``qg``.

        S has one entry per black of ``qg``, in order: lifts a, b, the lift c
        (a at the left of a pair, else b) of cn and of the phase e^{-ic/2},
        the edge (the white's position), the phase.  T has per white a v, then
        an f entry at the Dirac slots of its edge: v2 and f1 at corner 2 and
        at the central white of a pair (corner 2 of w_l, whose v2 is v_c and f1
        is f_c), v1 and f2 at corner 4; none where the layout has no slot (a
        rooted layout has none at the root, so none at the root pair's v_c).
        T: row and column positions, then for each kind of entry (0 at v:
        e^{-ib/2} cn(u_b); 1 at f: e^{-i(b+pi)/2} cd(u_b - K); 2 and 3 at the
        central white of a pair: -i k' e^{-i alpha_r/2} sn(theta)
        nd(u_{alpha_r}) cd(u_{beta_r}) and e^{-i beta_l/2} cd(u_{beta_l})) its
        positions, lifts x, y, pairs and phases.
        """
        if self._st is not None and self._st[0] is qg:
            return self._st[1]
        tab, blk, wht = self.tab, qg.black_at, qg.white_at
        sa, sb = qg.lifts.T
        sc = np.where(blk.side == "l", sa, sb)
        s_lay = (tab.ix(sa), tab.ix(sb), tab.ix(sc), blk.edge, np.exp(-0.5j * sc))

        corner4, centre, pair = wht.corner == 4, wht.side == "l", wht.pair
        slots = self.slot[wht.edge[:, None], np.where(corner4[:, None], [1, 3], [0, 2])]
        on = slots >= 0
        t_i, t_j = np.nonzero(on)[0], self.gd_j[slots[on]]
        at = np.cumsum(on).reshape(on.shape) - 1          # the entry at each slot
        beta = tab.beta[wht.edge]
        b = np.where(corner4, beta + math.pi, beta)
        _al, bl, ar, br = tab.bp_lifts[:, pair]

        def group(whites, col, x, y, phase):
            w = np.flatnonzero(whites & on[:, col])
            return at[w, col], tab.ix(x[w]), tab.ix(y[w]), pair[w], np.exp(-0.5j * phase[w])

        groups = [group(~centre, 0, b, b, b), group(~centre, 1, b, b, b + math.pi),
                  group(centre, 0, ar, br, ar), group(centre, 1, bl, bl, bl)]
        self._st = (qg, (s_lay, (t_i, t_j, groups)))
        return self._st[1]


class _Primal:
    """The primal vertices V and their edges, with the lifts seen from the
    vertex, the row keys of the Laplacians on V and V^r, and the positions in
    V^r of the ends of its edges (``r_v1``, ``r_v2``) and of the v_c, v_l
    of each non-root pair (``p_vc``, ``p_vl``), with its face f_c (``p_fc``).
    The incidences run over the vertices in order, each in its rotation."""

    def __init__(self, tab):
        ig = tab.ig
        adj, verts = ig.base.adj, tab.verts.tolist()
        self.vbound = np.zeros(len(verts), dtype=bool)
        self.vbound[tab.vix(ig.base.outer_face)] = True
        deg = _ints(map(len, map(adj.__getitem__, verts)))
        row = self.inc_row = np.repeat(np.arange(len(verts)), deg)
        e = self.inc_e = tab.edge_at(row, tab.vix(list(chain.from_iterable(
            map(adj.__getitem__, verts)))))
        from_v1 = tab.v1[e] == row
        self.inc_a = tab.ix(np.where(from_v1, tab.alpha[e], (tab.alpha + math.pi)[e]))
        self.inc_b = tab.ix(np.where(from_v1, tab.beta[e], (tab.beta + math.pi)[e]))
        self.inc_bnd = self.vbound[row]
        self.a_int = _first_of_class(tab.theta[e[~self.inc_bnd]])
        self.a_all = _first_of_class(tab.theta[e])
        self.rows = tuple(vkey(v) for v in verts)
        kept = np.arange(len(verts)) != tab.root
        self.r_rows = np.flatnonzero(kept)
        self.r_keys = tuple(map(self.rows.__getitem__, self.r_rows.tolist()))
        self.r_edges = np.flatnonzero(kept[tab.v1] & kept[tab.v2])
        r_at = np.cumsum(kept) - 1                   # the row in V^r of each vertex
        self.r_v1, self.r_v2 = r_at[tab.v1[self.r_edges]], r_at[tab.v2[self.r_edges]]
        self.p_vc, self.p_vl = r_at[tab.vix([(bp.vc, bp.vl) for bp in tab.pairs])].reshape(-1, 2).T
        self.p_fc = _ints(bp.fc for bp in tab.pairs)


class _Dual:
    """The restricted dual: face cycles and dual edges."""

    def __init__(self, tab):
        ig = tab.ig
        faces = ig.base.faces
        n = self.n_faces = len(ig.face_centers)
        size = _ints(map(len, faces))
        self.face_row = np.repeat(np.arange(n), size)
        at = tab.vix(list(chain.from_iterable(faces)))
        # the next corner of each corner's face, cyclically
        first = np.repeat(np.cumsum(size) - size, size)
        nxt = first + (np.arange(len(at)) - first + 1) % np.repeat(size, size)
        self.a_face = _first_of_class(tab.theta_star[tab.edge_at(at, at[nxt])])
        self.fkeys = tuple(fkey(f) for f in range(n))
        # the faces f_a, f_b and the edge of each dual edge
        self.dual_a, self.dual_b = _ints(ab for ab, _e in ig.dual_edges).reshape(-1, 2).T
        self.dual_e = _ints(e for _ab, e in ig.dual_edges)


class _Modulus:
    """The stage of one modulus: ``angles`` rescaled by 2K/pi; sn, cn, dn, sc
    and cs of theta; sc of pi/2 - theta; sn, cn, dn and sc of the
    boundary-pair theta."""

    def __init__(self, tab, p):
        self.tab, self.p = tab, p
        n = len(tab.theta)
        th = np.concatenate([tab.theta, tab.theta_star, tab.bp_theta]) * 2.0 * p.bigK / math.pi
        sn, cn, dn = _jacobi(th, p)
        self.sn_t, self.cn_t, self.dn_t = sn[:n], cn[:n], dn[:n]
        self.sc_t = _ratio(sn[:n], cn[:n], "sc", th[:n])
        self.cs_t = _ratio(cn[:n], sn[:n], "cs", th[:n])
        self.sc_s = _ratio(sn[n:2 * n], cn[n:2 * n], "sc", th[n:2 * n])
        self.sn_b, self.cn_b, self.dn_b = sn[2 * n:], cn[2 * n:], dn[2 * n:]
        self.sc_b = _ratio(sn[2 * n:], cn[2 * n:], "sc", th[2 * n:])

    @cached_property
    def ell(self):
        return self.tab.angles * 2.0 * self.p.bigK / math.pi

    @cached_property
    def a_values(self):
        """A(theta) at the class angles ``a_int``, ``a_all`` and ``a_face`` of
        the table, in that order, one evaluation per distinct angle."""
        p, pr, du = self.p, self.tab.primal, self.tab.dual
        uniq, inv = np.unique(np.concatenate([pr.a_int, pr.a_all, du.a_face]),
                              return_inverse=True)
        a = np.array([el.a_fun(el.angle_transform(x, p), p) for x in uniq.tolist()])[inv]
        return np.split(a, np.cumsum([len(pr.a_int), len(pr.a_all)]))


class _Spectral:
    """The stage of one spectral value u: sn, cn and dn at every argument
    (u - ell)/2 of ``angles``, nd, cd and the shifted cd once asked for."""

    def __init__(self, mod, u):
        self.mod, self.tab, self.p, self.u = mod, mod.tab, mod.p, u
        self.arg = 0.5 * (u - mod.ell)
        self.sn, self.cn, self.dn = _jacobi(self.arg, mod.p)
        self.allowed = set()            # the levels u has been checked against
        self._shifted = None

    @cached_property
    def nd(self):
        return _ratio(1.0, self.dn, "nd", self.arg)

    @cached_property
    def cd(self):
        return _ratio(self.cn, self.dn, "cd", self.arg)

    def sc(self, i):
        return _ratio(self.sn[i], self.cn[i], "sc", self.arg[i])

    def cd_shifted(self, i):
        """cd at the arguments (u - ell)/2 - K of ``angles[i]``, which T
        reads; kept for the latest ``i``, so T is evaluated once per stage."""
        if self._shifted is None or not np.array_equal(self._shifted[0], i):
            arg = self.arg[i] - self.p.bigK
            _sn, cn, dn = _jacobi(arg, self.p)
            self._shifted = (i, _ratio(cn, dn, "cd", arg))
        return self._shifted[1]


def edge_table(g):
    """The :class:`EdgeTable` of an isoradial graph, or of the ``ig`` a double
    graph views; built on first use and kept on the isoradial graph."""
    ig = getattr(g, "ig", g)
    if ig._table is None:
        ig._table = EdgeTable(ig)
    return ig._table


def dirac_layout(g):
    """The Dirac-entry layout of the double graph ``g``; an isoradial graph
    stands for its rooted double graph."""
    return edge_table(g).layout(getattr(g, "rooted", True))


# ---------------------------------------------------------------------------
# massive Laplacians
# ---------------------------------------------------------------------------

def _massive_laplacian(name, rows, x, y, c_xy, c_yx, diag, pairs=None):
    """The one massive-Laplacian assembly on the row keys ``rows``.

    Edge n, between the rows at positions x[n] and y[n], holds -c_xy[n] at
    (x, y), then -c_yx[n] at (y, x); a symmetric Laplacian passes
    c_xy = c_yx.  The diagonal ``diag`` (aligned with ``rows``) follows in row
    order.  No two edges join the same two rows: ``PlanarGraph`` rejects a
    repeated edge, and two strictly convex inscribed faces share at most one
    edge, so no dual edge repeats either.  ``pairs``, when given, holds the
    row positions v_c, v_l and the values off, dia of the non-root boundary
    pairs: each overwrites the (v_c, v_l) and (v_c, v_c) entries where they
    sit.
    """
    n = len(rows)
    i = np.concatenate((np.stack((x, y), 1).ravel(), np.arange(n)))
    j = np.concatenate((np.stack((y, x), 1).ravel(), np.arange(n)))
    vals = np.concatenate((np.stack((-c_xy, -c_yx), 1).ravel(), diag))
    if pairs is not None:
        vc, vl, off, dia = pairs
        key = i * n + j
        srt = np.argsort(key)
        at = srt[np.searchsorted(key, np.concatenate((vc * n + vl, vc * n + vc)), sorter=srt)]
        vals = vals.astype(np.result_type(vals, off, dia))
        vals[at] = np.concatenate((off, dia))
    return TypedSparseMatrix(rows, rows, i, j, vals, name)


def _at(g, p, u, level):
    """The edge-table stage of (p, u) for graph ``g``, u checked against ``level``."""
    t = edge_table(g).at(p, u)
    if level not in t.allowed:
        _check_u_allowed(t.tab.ig, p, u, level)
        t.allowed.add(level)
    return t


def delta_m_star(ig, p):
    """Finite dual massive Laplacian on the restricted dual (symmetric)."""
    m = edge_table(ig).at(p)
    du = m.tab.dual
    diag = np.bincount(du.face_row, m.a_values[2], du.n_faces)
    c = m.sc_s[du.dual_e]
    return _massive_laplacian("delta_m_star", du.fkeys, du.dual_a, du.dual_b, c, c, diag)


def _delta_m_rooted(t, name, pairs=None):
    """Massive Laplacian on V^r at stage ``t``: a boundary row sums
    k' sc(theta) nd(u_a) nd(u_b) over its edges (lifts seen from its vertex),
    an interior row sums A(theta)."""
    pr, m = t.tab.primal, t.mod
    b, n = pr.inc_bnd, len(pr.rows)
    term = m.sc_t[pr.inc_e[b]] * t.nd[pr.inc_a[b]] * t.nd[pr.inc_b[b]]
    diag = np.where(pr.vbound, t.p.kprime * np.bincount(pr.inc_row[b], term, n),
                    np.bincount(pr.inc_row[~b], m.a_values[0], n))
    c = m.sc_t[pr.r_edges]
    return _massive_laplacian(name, pr.r_keys, pr.r_v1, pr.r_v2, c, c, diag[pr.r_rows], pairs)


def delta_m_natural(ig, p, u):
    """Natural finite massive Laplacian on V^r with u-dependent boundary diagonals."""
    return _delta_m_rooted(_at(ig, p, u, "base"), "delta_m_natural")


def delta_m_partial(ig, p, u):
    """Massive Laplacian with the Ising boundary conditions (directed at pairs)."""
    t = _at(ig, p, u, "prime")
    tab, pr = t.tab, t.tab.primal
    sc = t.mod.sc_b[tab.nr]
    cn_al, cn_br = t.cn[tab.p_al], t.cn[tab.p_br]
    off = -sc * t.cd[tab.p_br] / t.cd[tab.p_al]
    dia = (p.kprime * sc * t.nd[tab.p_bl] * t.nd[tab.p_br] * (cn_br + cn_al) / cn_al)
    return _delta_m_rooted(t, "delta_m_partial", (pr.p_vc, pr.p_vl, off, dia))


def delta_m_bulk(ig, p):
    """u-free symmetric massive Laplacian on all of V (truncation operator).

    Diagonal sum of A(theta_j) at every vertex; used for Green-function
    truncation comparisons, not for the exact identities.
    """
    m = edge_table(ig).at(p)
    tab = m.tab
    diag = np.bincount(tab.primal.inc_row, m.a_values[1], len(tab.verts))
    return _massive_laplacian("delta_m_bulk", tab.primal.rows, tab.v1, tab.v2, m.sc_t, m.sc_t,
                              diag)


def _tan_laplacian(ig, name, pair):
    """The k = 0 boundary Laplacian on V^r: tan(theta) weights, diagonals sum
    of tan(theta) over the edges at a vertex (nd = 1), and pair(bp) at the pairs."""
    tab = edge_table(ig)
    pr = tab.primal
    # math.tan, not np.tan: numpy's tan differs from libm's in the last bit
    tan = np.array([math.tan(x) for x in tab.theta.tolist()])
    c = tan[pr.r_edges]
    diag = np.bincount(pr.inc_row, tan[pr.inc_e])[pr.r_rows]
    off, dia = np.array([pair(bp) for bp in tab.pairs]).reshape(-1, 2).T
    return _massive_laplacian(name, pr.r_keys, pr.r_v1, pr.r_v2, c, c, diag,
                              (pr.p_vc, pr.p_vl, off, dia))


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

    return _tan_laplacian(ig, "delta_m_partial_crit_limit", pair)


def delta_m_partial_complex_u(ig, u_complex):
    """k=0 boundary Laplacian at a complex spectral value (limit testing only)."""
    def pair(bp):
        t = math.tan(bp.theta_bar)
        ratio = (cmath.cos(0.5 * (u_complex - bp.beta_r))
                 / cmath.cos(0.5 * (u_complex - bp.alpha_l)))
        return -t * ratio, t * (ratio + 1.0)

    return _tan_laplacian(ig, "delta_m_partial_complex", pair)


def q_matrix(ig, p, u):
    """The boundary coupling block Q(u): rows V^r, columns V*."""
    t = _at(ig, p, u, "prime")
    tab, pr = t.tab, t.tab.primal
    # complex arithmetic in Python: numpy's complex division rounds differently
    vals = [-1j * nd_bl / cd_al * (cd_br - cd_al)
            for nd_bl, cd_al, cd_br in zip(t.nd[tab.p_bl].tolist(), t.cd[tab.p_al].tolist(),
                                           t.cd[tab.p_br].tolist())]
    return TypedSparseMatrix(pr.r_keys, tab.dual.fkeys, pr.p_vc, pr.p_fc, vals, "q_matrix")


# ---------------------------------------------------------------------------
# Dirac operators
# ---------------------------------------------------------------------------

def dirac(dg, p, u, variant="plain"):
    """The Z^u-Dirac operator on the double graph (rows = whites, cols = blacks).

    The entry of edge (w, b) with from-white lifts (alpha, beta) is
    e^{i(alpha+beta)/2} [sc(theta) dn(u_alpha) dn(u_beta)]^(1/2) at a primal b
    and e^{i(alpha+beta)/2} [k'^2 sc(theta) / (dn(u_alpha) dn(u_beta))]^(1/2)
    at a dual b, theta the half-angle of that quarter rhombus.
    ``variant="boundary"`` multiplies the (w_l, v_c) entries of non-root
    boundary pairs by cd(u_{beta_r})/cd(u_{alpha_l}).
    """
    if variant not in ("plain", "boundary"):
        raise DomainError(f"unknown dirac variant {variant!r}")
    t = _at(dg, p, u, "base" if variant == "plain" else "prime")
    tab, lay = t.tab, dirac_layout(dg)
    da, db = t.dn[lay.gd_a], t.dn[lay.gd_b]
    kp, e = p.kprime, lay.gd_e
    rad = np.where(lay.gd_v, t.mod.sc_t[e] * da * db, kp * kp * t.mod.sc_s[e] / (da * db))
    vals = lay.phase() * _sqrt_pos(rad, "dirac entry")
    if variant == "boundary":
        vals[lay.p_kd] = vals[lay.p_kd] * (t.cd[tab.p_br] / t.cd[tab.p_al])
    name = "dirac_plain" if variant == "plain" else "dirac_boundary"
    return TypedSparseMatrix(lay.whites, lay.blacks, e, lay.gd_j, vals, name, lay.gauge)


def kd_gauge_and_directed_laplacian(dg, p, u):
    """The gauge-transformed Dirac operator K^g(u) and the directed dual
    Laplacian with outer row/column removed.

    K^g multiplies each double-graph edge weight by
    [cs(theta_w) nd(u_a) nd(u_b)]^(1/2); its primal entries are pure phases.
    The directed conductances toward/within the dual are
    gamma*(u)_{f,f'} = k'^(1/2) cs(theta_w) nd(u_a) nd(u_b) (from the f side).
    """
    t = _at(dg, p, u, "base")
    tab, lay = t.tab, dirac_layout(dg)
    f = lay.gd_dual
    gamma = np.zeros(len(lay.gd_e))
    gamma[f] = (math.sqrt(p.kprime) * t.mod.cs_t[lay.gd_e[f]]
                * t.nd[lay.gd_a[f]] * t.nd[lay.gd_b[f]])
    vals = lay.phase()
    vals[f] = vals[f] * gamma[f]
    kg = TypedSparseMatrix(lay.whites, lay.blacks, lay.gd_e, lay.gd_j, vals, "dirac_gauge")

    # directed Laplacian on bounded faces + outer, with gamma*(u) conductances
    # read at each end; an edge toward the outer face adds to its diagonal only
    side_face, side_rec, (f1, f2, i1, i2) = lay.sides
    fk = tab.dual.fkeys
    diag = np.bincount(side_face, gamma[side_rec], len(fk))
    return kg, _massive_laplacian("delta_star_outer", fk, f1, f2, gamma[i1], gamma[i2], diag)


# ---------------------------------------------------------------------------
# quadri Kasteleyn matrices
# ---------------------------------------------------------------------------

def _kq_weight(qg, w_sn, w_cn):
    """Per entry of ``qg.edges``: the weight of its rhombus (from the arrays
    of per-edge weights ``w_sn`` and ``w_cn``) on an sn or cn edge, else 1."""
    kind, e = qg.edge_at.kind, qg.black_at.edge[qg.edge_at.black]
    return np.where(kind == "sn", w_sn[e], np.where(kind == "cn", w_cn[e], 1.0))


def kasteleyn_KQ(qg, ig, p):
    """Complex bipartite Kasteleyn matrix of the quadri graph (rows black).

    Edge weights: sn(theta) and cn(theta) on the quadrangle edges of their
    kind, 1 on external and boundary-quadrangle edges.
    """
    m, at = edge_table(ig).at(p), qg.edge_at
    phase = np.exp(0.5j * (2.0 * at.phase))
    return TypedSparseMatrix(qg.blacks, qg.whites, at.black, at.white,
                             phase * _kq_weight(qg, m.sn_t, m.cn_t), "kasteleyn_KQ")


def kq_bar_partial(qg, ig, p):
    """Modified matrix: boundary-pair edges (b_l, w_l), (b_r, w_r) x sn(theta)."""
    kq = kasteleyn_KQ(qg, ig, p)
    m, at = edge_table(ig).at(p), qg.edge_at
    side, kind = qg.black_at.side[at.black], at.kind
    pos = np.flatnonzero(((side == "l") & (kind == "ext")) | ((side == "r") & (kind == "bq")))
    vals = kq.vals.copy()
    vals[pos] = vals[pos] * m.sn_b[qg.black_at.pair[at.black[pos]]]
    return TypedSparseMatrix(kq.rows, kq.cols, kq.i, kq.j, vals, "kq_bar_partial")


def kasteleyn_KQ_real(qg, ig, couplings, orientation):
    """Real bipartite Kasteleyn matrix of the quadri graph for couplings J.

    ``couplings`` maps primal edge ids to J; quadrangle weights are tanh(2J)
    (primal-parallel) and 1/cosh(2J) (dual-parallel); external and boundary
    quadrangle edges have weight 1.
    """
    # math.tanh and math.cosh, not numpy's: theirs differ from libm's in the last bit
    two_j = [2.0 * couplings[x] for x in edge_table(ig).eids]
    tanh = np.array([math.tanh(x) for x in two_j])
    sech = np.array([1.0 / math.cosh(x) for x in two_j])
    sign = np.array([orientation[(blk, wht)] for blk, wht, _kind, _phase in qg.edges])
    return TypedSparseMatrix(qg.blacks, qg.whites, qg.edge_at.black, qg.edge_at.white,
                             sign * _kq_weight(qg, tanh, sech), "kasteleyn_KQ_real")


def z_invariant_couplings(ig, p):
    """J_e = (1/2) log((1+sn theta)/cn theta) per edge."""
    m = edge_table(ig).at(p)
    # math.log, not np.log: numpy's log differs from libm's in the last bit
    return {e: 0.5 * math.log(x)
            for e, x in zip(m.tab.eids, ((1.0 + m.sn_t) / m.cn_t).tolist())}


# ---------------------------------------------------------------------------
# Fisher Kasteleyn matrix and auxiliary blocks
# ---------------------------------------------------------------------------

def kasteleyn_KF(fg, couplings):
    """Skew-symmetric Kasteleyn matrix of the Fisher graph.

    Internal edges have weight 1, the external edge over primal edge e has
    weight e^{-2 J_e}.  Couplings may be any reals for which e^{-2 J_e} is a
    finite double; an overflowing one is a DomainError naming the edge and J.
    Rows and columns are ``fg.b_vertices`` then ``fg.a_vertices``, so the
    blocks of Dubedat's decomposition are the slices at
    ``len(fg.b_vertices)``.  The entries run over ``fg.internal_edges`` then
    ``fg.external_edges``, (x, y) before (y, x): edge n of that list is at
    entries 2n and 2n + 1.
    """
    it, ext = fg.internal_at, fg.external_at
    w = []
    for eid in ext.edge.tolist():
        # math.exp, not numpy's: theirs differs from libm's in the last bit
        try:
            w.append(math.exp(-2.0 * couplings[eid]))
        except OverflowError:
            raise DomainError(f"kasteleyn_KF: e^(-2J) overflows at edge {eid}, "
                              f"J = {couplings[eid]!r}") from None
    x, y = np.concatenate((it.x, ext.x)), np.concatenate((it.y, ext.y))
    val = np.concatenate((it.eps.astype(float), ext.eps * np.array(w, dtype=float)))
    verts = tuple(fg.vertices())
    m = TypedSparseMatrix(verts, verts, np.stack((x, y), 1).ravel(), np.stack((y, x), 1).ravel(),
                          np.stack((val, -val), 1).ravel(), "kasteleyn_KF")
    m.check_antisymmetric()
    return m


def _kappa_matrix(fg):
    """kappa, block diagonal over the decorations: 1/4 on the diagonal, and
    -1/4 times the sign of the ccw walk from a to a' around their decoration
    cycle (the product of eps over its steps) at (a, a')."""
    cyc, nb = fg.cycle_at, len(fg.b_vertices)
    i, j, vals = [], [], []
    for lo, hi in zip(cyc.ptr[:-1].tolist(), cyc.ptr[1:].tolist()):
        a, step, d = (cyc.a[lo:hi] - nb).tolist(), cyc.eps[lo:hi].tolist(), hi - lo
        for n in range(d):
            # the ccw walk a_n, a_{n+1}, ... and the sign of each step's prefix
            i += [a[n]] * d
            j += [a[(n + s) % d] for s in range(d)]
            vals += [0.25] + [-0.25 * sign for sign in accumulate(
                (step[(n + s) % d] for s in range(d - 1)), operator.mul)]
    return TypedSparseMatrix(fg.a_vertices, fg.a_vertices, i, j, vals, "fisher_kappa")


class FisherAux(NamedTuple):
    """The block matrices of :func:`fisher_aux`, also read by position;
    ``blocks`` holds the dense K^F blocks "K_BB", "K_BA", "K_AB" and "K_AA"."""

    x: object
    m: object
    m_prime: object
    kappa: object
    i_wa: object
    d_bqa: object
    blocks: dict


def fisher_i_wa(fg, qg):
    """I_{W,A}: 1 at each quadri white and the A vertex of its side."""
    n = len(qg.whites)
    return TypedSparseMatrix(qg.whites, fg.a_vertices, np.arange(n),
                             qg.white_at.fisher_a - len(fg.b_vertices), np.ones(n),
                             "fisher_I_WA")


def fisher_aux(fg, qg, kf):
    """The block matrices X, M, M', kappa, I_{W,A}, D_{BQ,A} and the four
    blocks of K^F (Dubedat 2011), as a :class:`FisherAux`.

    ``inference.kf_inverse_formula`` reads X, M, kappa, I_{W,A} and D_{BQ,A};
    ``check_dubedat`` reads X, M, M', I_{W,A} and the K^F blocks.
    ``inference.dotsenko_residuals`` reads I_{W,A} alone, from
    :func:`fisher_i_wa`.  All are gathers from the Fisher arrays.
    """
    b_list, a_list, bq_list = tuple(fg.b_vertices), tuple(fg.a_vertices), tuple(qg.blacks)
    kf_d, nb, tri, ext = kf.dense(), len(b_list), fg.triangle_at, fg.external_at
    hat = np.argsort(qg.black_at.fisher_b)      # the GQ black of each B

    # X: rows B, cols GQ blacks.  Per external edge (bx, by): 1 at (bx, hat bx)
    # and (by, hat by), and the (real) entries of K^F at (by, bx) and (bx, by)
    # at (bx, hat by) and (by, hat bx); then 1 at each boundary B bd
    bx, by, bd = ext.x, ext.y, np.flatnonzero(tri.opp < 0)
    one = np.ones(len(bx))
    x_mat = TypedSparseMatrix(
        b_list, bq_list, np.concatenate((np.stack((bx, bx, by, by), 1).ravel(), bd)),
        hat[np.concatenate((np.stack((bx, by, by, bx), 1).ravel(), bd))],
        np.concatenate((np.stack((one, kf_d[by, bx].real, one, kf_d[bx, by].real), 1).ravel(),
                        np.ones(len(bd)))), "fisher_X")

    # M: rows B, cols A.  With (a, a', b) in ccw order around the triangle,
    # (m_{b,a}, m_{b,a'}) = (-eps_{b,a}, eps_{b,a'}); in storage order the ccw
    # triangle cycle is (a_prev, b, a_next), so a = a_next and a' = a_prev.
    m_mat = TypedSparseMatrix(b_list, a_list, np.repeat(np.arange(nb), 2),
                              np.stack((tri.next, tri.prev), 1).ravel() - nb,
                              np.stack((-tri.eps_next, tri.eps_prev), 1).ravel(), "fisher_M")

    # blocks of K^F: its B rows and columns come first
    k_bb, k_ba = kf_d[:nb, :nb], kf_d[:nb, nb:]
    k_ab, k_aa = kf_d[nb:, :nb], kf_d[nb:, nb:]
    try:
        m_prime_d = -np.linalg.solve(k_ba, k_bb)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("K^F_{B,A} block is singular") from exc
    i, j = np.nonzero(np.abs(m_prime_d) > 1e-15)
    m_prime = TypedSparseMatrix(a_list, b_list, i, j, m_prime_d[i, j], "fisher_Mprime")

    kappa, i_wa = _kappa_matrix(fg), fisher_i_wa(fg, qg)

    # the diagonal couplers: each GQ black at the A of its side, with eps(b, a)
    b, a = qg.black_at.fisher_b, qg.black_at.fisher_a
    eps_ba = np.where(tri.prev[b] == a, tri.eps_prev[b], tri.eps_next[b])
    d_bqa = TypedSparseMatrix(bq_list, a_list, np.arange(len(bq_list)), a - nb,
                              eps_ba.astype(float), "fisher_D_BQA")

    blocks = {"K_BB": k_bb, "K_BA": k_ba, "K_AB": k_ab, "K_AA": k_aa}
    return FisherAux(x_mat, m_mat, m_prime, kappa, i_wa, d_bqa, blocks)


# ---------------------------------------------------------------------------
# intertwiners S(u), T(u)
# ---------------------------------------------------------------------------

def s_t_matrices(qg, dg, p, u):
    """The intertwiner pair: S rows = GQ blacks, T rows = GQ whites (the
    entries are listed at :meth:`_Layout.st_layout`)."""
    t = _at(dg, p, u, "prime")
    lay = dirac_layout(dg)
    m, (s_rows, t_rows) = t.mod, lay.st_layout(qg)

    a, b, c, e, phase = s_rows
    rad = m.sn_t[e] * m.cn_t[e] * t.nd[a] * t.nd[b]
    vals = phase * t.cn[c] * _sqrt_pos(rad, "s entry")
    s_mat = TypedSparseMatrix(qg.blacks, lay.whites, np.arange(len(e)), e, vals,
                              "intertwiner_S")

    i, j, (v, f, center_v, center_f) = t_rows
    vals = np.empty(len(i), dtype=complex)
    vals[v[0]] = v[4] * t.cn[v[1]]
    vals[f[0]] = f[4] * t.cd_shifted(f[1])
    pos, x, y, pair, phase = center_v
    vals[pos] = (-1j * p.kprime) * phase * m.sn_b[pair] * t.nd[x] * t.cd[y]
    vals[center_f[0]] = center_f[4] * t.cd[center_f[1]]
    t_mat = TypedSparseMatrix(qg.whites, lay.blacks, i, j, vals, "intertwiner_T")
    return s_mat, t_mat


# ---------------------------------------------------------------------------
# gauge equivalence
# ---------------------------------------------------------------------------

def _py_mul(a, b):
    """a b elementwise, rounded as Python's complex (or float) product:
    numpy's complex product may fuse a multiply and an add."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _py_div(a, b):
    """a / b elementwise, rounded as Python's complex (or float) quotient:
    Smith's method, dividing by the denominator where numpy multiplies by its
    reciprocal.  A zero denominator gives inf or NaN instead of raising."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
            return a / b
        br, bi = b.real, b.imag
        by_re = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        out = np.empty(np.broadcast(a, b).shape, dtype=complex)
        out.real = np.where(by_re, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom
        out.imag = np.where(by_re, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom
    return out


def _steps_out(ptr, deg, nodes):
    """The positions of the steps out of ``nodes``, node by node, in the
    step arrays grouped by their node (node n's deg[n] steps from ptr[n])."""
    count = deg[nodes]
    return np.repeat(ptr[nodes] - np.cumsum(count) + count, count) + np.arange(count.sum())


def gauge_potential(n, src, dst, step, roots):
    """A multiplicative potential carried along BFS trees on the nodes
    0 ... n-1, and how far it is from a gauge.

    Step k goes from src[k] to dst[k]: q(dst) is to be q(src) step[k].  A
    node takes its steps in array order.  Each of ``roots`` not reached yet
    roots a tree with q = 1, searched level by level, and the first step to
    reach a node, in the order of a FIFO search, sets its q.  Returns
    (q, order, worst, where): q (NaN where not reached), the nodes in the
    order reached, the largest |q(x) s / q(y) - 1| over the steps out of the
    nodes reached, which is 0 exactly when the steps multiply to 1 around
    every cycle (NaN once any gap is), and the (x, y) of that step (None
    when there is none).  Products and quotients round as Python's do on
    scalars.
    """
    src, dst, step = (np.asarray(x) for x in (src, dst, step))
    by = np.argsort(src, kind="stable")
    src, dst, step = src[by].astype(np.intp), dst[by].astype(np.intp), step[by]
    ptr = np.searchsorted(src, np.arange(n + 1))
    deg = np.diff(ptr)
    q = np.full(n, np.nan, dtype=np.result_type(step, float))
    seen = np.zeros(n, dtype=bool)
    roots, at, order = np.asarray(roots, dtype=np.intp), 0, []
    while True:
        fresh = np.flatnonzero(~seen[roots[at:]])
        if not len(fresh):
            break
        at += fresh[0]
        level = roots[at:at + 1]
        seen[level], q[level] = True, 1.0
        while len(level):
            order.append(level)
            k = _steps_out(ptr, deg, level)
            t = dst[k]
            new = ~seen[t]
            k, t = k[new], t[new]
            first = np.sort(np.unique(t, return_index=True)[1])
            k, level = k[first], t[first]
            seen[level] = True
            q[level] = _py_mul(q[src[k]], step[k])
    order = np.concatenate(order) if order else np.zeros(0, dtype=np.intp)
    k = _steps_out(ptr, deg, order)
    off = _py_div(_py_mul(q[src[k]], step[k]), q[dst[k]]) - 1.0
    gap = np.hypot(off.real, off.imag) if np.iscomplexobj(off) else np.abs(off)
    if np.isnan(gap).any():
        at = np.flatnonzero(np.isnan(gap))[-1]
    elif len(gap) and gap.max() > 0.0:
        at = np.argmax(gap)
    else:
        return q, order, 0.0, None
    return q, order, float(gap[at]), (int(src[k[at]]), int(dst[k[at]]))


def gauge_q(m_mat, n_mat, bipartite, tol=1e-10):
    """Diagonal gauge between two matrices with equal cycle products.

    Directed case (square, same index set): returns D with M = D N D^(-1).
    Bipartite case (rows=blacks, cols=whites): returns (D_B, D_W) with
    M = D_B N D_W.  The potential is carried from the first row over the
    entries, neighbours in str order.  Raises NotGaugeEquivalentError with an
    offending edge when the two matrices differ in their row or column keys
    or their patterns, the pattern is not connected from the first row or a
    cycle product differs by more than ``tol``.
    """
    rows, cols = m_mat.rows, m_mat.cols
    key_m, key_n = m_mat.i * len(cols) + m_mat.j, n_mat.i * len(cols) + n_mat.j
    by_m, by_n = np.argsort(key_m), np.argsort(key_n)
    if (rows != n_mat.rows or cols != n_mat.cols or not (bipartite or rows == cols)
            or not np.array_equal(key_m[by_m], key_n[by_n])):
        raise NotGaugeEquivalentError("sparsity patterns differ")
    m, n = m_mat.vals, n_mat.vals[by_n[np.argsort(by_m)]]   # n at the entries of m
    nodes = rows + cols if bipartite else rows
    src, dst = m_mat.i, m_mat.j + (len(rows) if bipartite else 0)
    diag = src == dst                                      # none when bipartite
    bad = np.flatnonzero(diag & (np.abs(m - n) > tol * np.abs(m).max(initial=1.0)))
    if len(bad):
        r = rows[src[bad[0]]]
        raise NotGaugeEquivalentError(f"diagonal mismatch at {r}", cycle=[r])
    src, dst, ratio = src[~diag], dst[~diag], _py_div(n[~diag], m[~diag])
    if bipartite:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        ratio = np.concatenate([ratio, _py_div(1.0, ratio)])
    rank = np.unique(list(map(str, nodes)), return_inverse=True)[1]
    by = np.lexsort((rank[dst], src))
    q, order, worst, where = gauge_potential(len(nodes), src[by], dst[by], ratio[by],
                                             range(len(nodes))[:1])
    if len(order) != len(nodes):
        raise NotGaugeEquivalentError("pattern not connected from the first row")
    if not worst <= tol:
        raise NotGaugeEquivalentError(f"cycle product mismatch through edge "
                                      f"{tuple(nodes[x] for x in where)}",
                                      cycle=[nodes[x] for x in where])

    def diagonal(keys, vals, name):
        return TypedSparseMatrix(keys, keys, range(len(keys)), range(len(keys)), vals, name)

    if not bipartite:
        return diagonal(rows, q, "gauge_D")
    # q_w = q_b N_{b,w} / M_{b,w}, so M_{b,w} = q_b N_{b,w} / q_w
    return (diagonal(rows, q[:len(rows)], "gauge_DB"),
            diagonal(cols, _py_div(1.0, q[len(rows):]), "gauge_DW"))


def unit_gauge(m):
    """Per entry n the unit factor q_r q_c (at row i[n], column j[n]) of
    potentials carried along BFS trees of the pattern of m's nonzero entries
    (:func:`gauge_potential`), with q_r q_c the phase of the entry on every
    tree entry.  Where m is gauge-real, vals / (q_r q_c) is real everywhere."""
    n = len(m.rows)
    nz = np.flatnonzero(m.vals)
    # potential x = q_r on the rows and 1/q_c on the columns (node n + c): a
    # step row -> column multiplies it by 1/phase
    r, c, s = m.i[nz], m.j[nz] + n, m.vals[nz] / np.abs(m.vals[nz])
    nodes = n + len(m.cols)
    x = gauge_potential(nodes, np.concatenate([r, c]), np.concatenate([c, r]),
                        np.concatenate([_py_div(1.0, s), s]), range(nodes))[0]
    x = x.astype(complex)
    return x[m.i] / x[n + m.j]


_REAL_GAUGE_TOL = 1e-12


def real_form(m):
    """The real matrix R = D_r^-1 m D_c^-1 of a gauge-real matrix m.

    Real ``vals`` are returned as they are (m itself).  Complex ones are
    divided by the unit gauge factors (``m.gauge`` when the builder kept it,
    else :func:`unit_gauge` of m), and R = sign(Re) |vals|, so R has the
    moduli of m and R[r, c] R^-1[c, r] = m[r, c] m^-1[c, r].  Raises
    NotGaugeEquivalentError when some entry keeps an imaginary part above
    1e-12 of its modulus: then no such gauge exists.
    """
    if not np.iscomplexobj(m.vals):
        return m
    g = m.vals * np.conj(unit_gauge(m) if m.gauge is None else m.gauge)
    mag = np.abs(m.vals)
    bad = ~(np.abs(g.imag) <= _REAL_GAUGE_TOL * mag)      # NaN fails too
    if bad.any():
        n = int(np.flatnonzero(bad)[0])
        r, c = m.rows[m.i[n]], m.cols[m.j[n]]
        raise NotGaugeEquivalentError(
            f"{m.name} is not gauge-equivalent to a real matrix at entry {(r, c)}",
            cycle=[r, c])
    return TypedSparseMatrix(m.rows, m.cols, m.i, m.j, np.copysign(mag, g.real),
                             f"{m.name}_real")
