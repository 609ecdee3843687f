"""Inverses, Pfaffians, partition functions, inverse-operator formulas,
edge probabilities and the brute-force enumeration oracles."""

import csv
import io
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it on first use; load it with the module)

from . import elliptic as el
from . import operators as op
from .derived import (
    _forest_sum,
    _frontier_sum,
    fisher_quadri_map,
    induce_orientation_GQ,
    fkey,
    vkey,
)
from .errors import (
    BijectionError,
    DomainError,
    LUPatternError,
    SingularityError,
)

_SING_RCOND = 1e-13


# ---------------------------------------------------------------------------
# dense and sparse linear algebra
# ---------------------------------------------------------------------------

def _as_array(m):
    return m.dense() if hasattr(m, "dense") else np.asarray(m, dtype=complex)


def invert(m):
    """Dense inverse with a conditioning gate."""
    a = _as_array(m)
    if a.shape[0] != a.shape[1]:
        raise SingularityError("matrix is not square")
    if a.size == 0:
        return a.copy()
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"singular matrix: {exc}") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularityError("inverse contains non-finite entries")
    # pivot-scale gate
    if np.abs(a).max() * np.abs(inv).max() > 1.0 / _SING_RCOND:
        raise SingularityError("matrix numerically singular (conditioning gate)")
    return inv


def _sparse_lu(m):
    """The CSC form of a TypedSparseMatrix, its sparse LU and the gate of ``invert``.

    The matrix keeps the dtype of ``m.vals`` (integers promoted to float).  A
    non-square or exactly singular matrix raises SingularityError here.
    ``gate(values, inv_norm=0.0)`` returns ``values``, entries of A^-1, unless
    they are non-finite or ||A||_1 ||A^-1||_1 > 1/_SING_RCOND, with ||A^-1||_1
    the larger of ``inv_norm`` (a known lower bound) and ``onenormest``, exact for
    n <= 2 and else Hager's one-column estimate: weaker than t=2 but free of random
    draws, so the gate neither reads nor moves numpy's global RNG.
    scipy is imported on the first call, so the CLI starts without it.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import LinearOperator, onenormest, splu

    dtype = np.result_type(m.vals.dtype, np.float64)
    a = csc_matrix((m.vals, (m.i, m.j)), shape=(len(m.rows), len(m.cols)), dtype=dtype)
    n = a.shape[0]
    if a.shape[1] != n:
        raise SingularityError("matrix is not square")
    try:
        lu = splu(a)
    except RuntimeError as exc:
        raise SingularityError(f"singular matrix: {exc}") from exc

    def gate(values, inv_norm=0.0):
        if not np.all(np.isfinite(values)):
            raise SingularityError("inverse contains non-finite entries")
        inv_op = LinearOperator((n, n), matvec=lu.solve, dtype=dtype,
                                rmatvec=lambda y: lu.solve(y, trans="H"))
        inv_norm = max(onenormest(inv_op, t=1 if n > 2 else n), inv_norm)
        if not abs(a).sum(axis=0).max() * inv_norm <= 1.0 / _SING_RCOND:
            raise SingularityError("matrix numerically singular (conditioning gate)")
        return values

    return a, lu, gate


def inverse_entry(m, i, j):
    """Entry (i, j) of the inverse of a TypedSparseMatrix, from one sparse
    LU and one column solve.

    i is a position in ``m.cols`` and j one in ``m.rows``; the value is real
    when ``m.vals`` is.  The gates are those of ``_sparse_lu``, with the
    solved column's 1-norm as the lower bound of ||A^-1||_1.
    """
    a, lu, gate = _sparse_lu(m)
    rhs = np.zeros(a.shape[0], dtype=a.dtype)
    rhs[j] = 1.0
    x = lu.solve(rhs)
    return gate(x, np.abs(x).sum())[i]


def _lu_keys(f, n):
    """Keys c n + r and values of the entries (r, c) of the strict lower part
    of L and of U, for a SuperLU factorisation f: the entries of (L + U)^T,
    keyed row-major.  SuperLU leaves out entries that cancel to 0.0."""
    lo, up = f.L.tocoo(), f.U.tocoo()
    strict = lo.row > lo.col
    keys = np.concatenate([lo.col[strict].astype(np.int64) * n + lo.row[strict],
                           up.col.astype(np.int64) * n + up.row])
    return keys, np.concatenate([lo.data[strict], up.data])


def _slots(keys, wanted):
    """Positions of ``wanted`` in the sorted ``keys``; every one must be there."""
    at = np.searchsorted(keys, wanted)
    if not np.array_equal(keys.take(at, mode="clip"), wanted):
        raise LUPatternError("selected inversion reads an entry outside the LU pattern")
    return at


def _structural_keys(bi, bj, n):
    """The sorted ``_lu_keys`` of the structural LU pattern of the n x n
    pattern (bi, bj), factored in place with diagonal pivots.

    The pattern is given -1 off the diagonal and (row count) + 2^-20 on it:
    elimination keeps that M-matrix's signs, so no entry of its factors
    cancels, and the diagonal, which is in the filled pattern, adds no fill.
    With a margin of 1 instead of 2^-20 the fill entries shrink along long
    elimination paths, to 1e-103 on the L = 96 Dirac operator, and would
    underflow on larger ones; with 2^-20 they stay above 1e-18 up to L = 160.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    off, ids = bi != bj, np.arange(n)
    sym = splu(csc_matrix((np.concatenate([-np.ones(off.sum()),
                                           np.bincount(bi[off], minlength=n) + 2.0 ** -20]),
                           (np.concatenate([bi[off], ids]), np.concatenate([bj[off], ids]))),
                          shape=(n, n)), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    if not (np.array_equal(sym.perm_r, ids) and np.array_equal(sym.perm_c, ids)):
        raise LUPatternError("the structural factorisation permuted the matrix")
    return np.sort(_lu_keys(sym, n)[0])


def selected_inverse(m):
    """The inverse of a TypedSparseMatrix on the pattern of its transpose.

    Returns an array aligned with ``m.vals``: entry n is m^-1[cols[j[n]],
    rows[i[n]]], real when ``m.vals`` is.  With Pr m Pc = L U from one sparse
    LU, Z = (L U)^-1 = U^-1 L^-1 is computed on the structural pattern of
    (L + U)^T by Takahashi's recurrences (Takahashi-Fagan-Chin 1973;
    Erisman-Tinney 1975).  For j = n-1 ... 0, with L_j the rows below j of
    column j of L, U_j the columns right of j of row j of U and S = Z[U_j, L_j]:

        Z[U_j, j] = -S L[L_j, j]
        Z[j, L_j] = -U[j, U_j] S / U[j, j]
        Z[j, j]   = (1 - U[j, U_j] Z[U_j, j]) / U[j, j]

    and m^-1[c, r] = Z[perm_c[c], perm_r[r]].  The recurrences close on the
    structural pattern only, and SuperLU leaves out factor entries that cancel
    to 0.0 (generic values cancel too: some pivots of Pr m Pc are fill, not
    entries), so the pattern comes from ``_structural_keys``.  The gates are
    those of ``_sparse_lu``, with ||m^-1||_1 from ``onenormest``.
    """
    a, lu, gate = _sparse_lu(m)
    n = a.shape[0]
    bi, bj = lu.perm_r[m.i], lu.perm_c[m.j]
    key = _structural_keys(bi, bj, n)
    num_key, num_val = _lu_keys(lu, n)
    val = np.zeros(len(key), dtype=a.dtype)
    val[_slots(key, num_key)] = num_val
    del num_key, num_val
    # Z[r, c] sits at key r n + c; val holds L[c, r] or U[c, r] there
    zr, zc = np.divmod(key, n)
    diag = _slots(key, np.arange(n, dtype=np.int64) * (n + 1))
    right = np.flatnonzero(zr < zc)                 # Z[j, L_j], grouped by j = zr
    below = np.flatnonzero(zr > zc)
    below = below[np.argsort(zc[below], kind="stable")]     # Z[U_j, j], by j = zc
    right_ptr = np.searchsorted(zr[right], np.arange(n + 1))
    below_ptr = np.searchsorted(zc[below], np.arange(n + 1))
    z = np.zeros_like(val)
    for j in range(n - 1, -1, -1):
        ls, us = right[right_ptr[j]:right_ptr[j + 1]], below[below_ptr[j]:below_ptr[j + 1]]
        s = z[_slots(key, (zr[us, None] * n + zc[ls]).ravel())].reshape(len(us), len(ls))
        u_row, u_jj = val[us], val[diag[j]]
        z[us] = -(s @ val[ls])
        z[ls] = -(u_row @ s) / u_jj
        z[diag[j]] = (1.0 - u_row @ z[us]) / u_jj
    return gate(z)[_slots(key, bj.astype(np.int64) * n + bi)]


def logabsdet(m):
    a = _as_array(m)
    sign, lad = np.linalg.slogdet(a)
    if sign == 0 or not np.isfinite(lad):
        raise SingularityError("determinant vanished in logabsdet")
    return float(lad)


def pfaffian(m, tol=1e-12):
    """Pfaffian of an antisymmetric matrix by Parlett-Reid elimination."""
    a = _as_array(m).copy()
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise SingularityError("pfaffian needs a square matrix")
    scale = max(1.0, np.abs(a).max())
    if np.abs(a + a.T).max() > tol * scale:
        raise DomainError("matrix is not antisymmetric")
    if n % 2 == 1:
        return 0.0 + 0.0j
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if abs(a[pivot, k]) < 1e-300:
            return 0.0 + 0.0j
        if pivot != k + 1:
            a[[k + 1, pivot], :] = a[[pivot, k + 1], :]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            pf = -pf
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col)
            a[k + 2:, k + 2:] -= np.outer(col, tau)
    return complex(pf)


# ---------------------------------------------------------------------------
# inverse-operator formulas
# ---------------------------------------------------------------------------

def _u_arg(u, angle_bar, p):
    """The argument (u - gamma)/2 of a lifted angle, gamma rescaled by 2K/pi."""
    return 0.5 * (u - el.angle_transform(angle_bar, p))


def kd_inverse_formula(dg, p, u):
    """Coefficients of the inverse boundary Dirac operator through the Green
    functions of the massive Laplacians, plus the direct inverse for checks.

    Returns (formula, direct, rows, cols) where formula/direct are dense
    arrays indexed like the transpose of the Dirac operator (rows = blacks,
    cols = whites).  The blacks are the rows of Delta^{m,bd}(u), then those
    of Delta^{m,*}: the primal block is G_bd^T C_V and the dual block
    G_*^T (C_F + Q^T G_bd^T C_V), where C = (C_V; C_F) holds the coefficients
    of each white w at the vertices and faces of its rhombus, at the blacks
    of its v2, v1, f1 and f2 slots of the Dirac layout, and Q is the
    boundary coupling block.
    """
    kdp = op.dirac(dg, p, u, "boundary")
    direct = invert(kdp.dense())
    dmp, dms = op.delta_m_partial(dg, p, u), op.delta_m_star(dg, p)
    g_par, g_star = invert(dmp.dense()), invert(dms.dense())
    t, lay = op.edge_table(dg).at(p, u), op.dirac_layout(dg)
    tab, kp = t.tab, p.kprime
    a, b = tab.ix(tab.alpha), tab.ix(tab.beta)
    dn_a, dn_b, nd_a, nd_b = t.dn[a], t.dn[b], t.nd[a], t.nd[b]
    phase = np.exp(-0.5j * (tab.alpha + tab.beta)) / kp
    c_v = phase * np.sqrt(t.mod.sc_t)
    c_f = -1j * phase * np.sqrt(t.mod.sc_s)
    # the brackets are dn(u_a) dn(u_b) at v2, dn(u_a - K) dn(u_b - K) at v1,
    # dn(u_a - K) dn(u_b) at f1 and dn(u_a) dn(u_b - K) at f2, with
    # dn(x - K) = k' nd(x); a slot left out (the root, a missing f2) has none.
    # The v1 and f1 terms are 0 - c, rounded (signed zeros too) as the
    # difference of the two families
    coef = np.zeros((len(lay.blacks), len(tab.eids)), dtype=complex)
    for s, c in enumerate((c_v * np.sqrt(dn_a * dn_b), 0.0 - c_v * kp * np.sqrt(nd_a * nd_b),
                           0.0 - c_f * np.sqrt(kp * dn_b * nd_a), c_f * np.sqrt(kp * nd_b * dn_a))):
        e = np.flatnonzero(lay.slot[:, s] >= 0)
        coef[lay.gd_j[lay.slot[e, s]], e] = c[e]
    n_p = len(dmp.rows)
    primal = g_par.T @ coef[:n_p]
    dual = g_star.T @ (coef[n_p:] + op.q_matrix(dg, p, u).dense().T @ primal)
    return np.vstack([primal, dual]), direct, list(kdp.cols), list(kdp.rows)


def kq_special_values(ig, p, b_black, qg):
    """The special spectral values (u_hat, v_hat) attached to a quadri black."""
    a_bar, b_bar = qg.black_lifts(b_black)
    u_hat = 0.5 * (el.angle_transform(a_bar, p) + el.angle_transform(b_bar, p)) + p.bigK
    return a_bar, b_bar, u_hat, u_hat - 2.0 * p.bigK


def kq_inverse_formula(qg, dg, p, pairs=None):
    """Closed-form coefficients of the inverse quadri Kasteleyn matrix.

    With P(u) = T(u) K^{D,bd}(u)^-1, the column of a black with special
    values (u_hat, v_hat) and double-graph white w is a prefactor times
    cn((K - theta)/2) P(u_hat)[:, w] + cn((K + theta)/2) P(v_hat)[:, w], or
    P(u_hat)[:, w] alone at a boundary pair.  P is formed once per special
    value (to 12 decimals) of a requested black; raises DomainError naming
    the value when its boundary Dirac operator is numerically singular (this
    happens on lattices whose train-track directions collide with the
    special values).  Entries not in ``pairs`` are NaN.
    Returns (formula, direct, whites, blacks).
    """
    from scipy.sparse import csr_matrix

    ig = dg.ig
    kq = op.kasteleyn_KQ(qg, ig, p)
    direct = invert(kq.dense())
    whites, blacks = list(kq.cols), list(kq.rows)
    want = None if pairs is None else set(pairs)
    wanted = np.array([[want is None or (w, blk) in want for blk in blacks] for w in whites])
    m = op.edge_table(dg).at(p)
    kp, n_e, blk, wht = p.kprime, len(m.tab.eids), qg.black_at, qg.white_at

    # per white: the modified matrix multiplies the boundary-pair edges by
    # sn(theta), so the inverse of KQ carries sn(theta)^(-1) on the central
    # boundary whites (the displayed corollary's sn(theta) does not match
    # the direct inverse)
    sn_pref = np.where(wht.side == "l", 1.0 / m.sn_b[wht.pair], 1.0)

    # per black: its special values, the lift of its phase, its side of a
    # boundary pair ("" inside) and its theta, the edge's or (after the
    # edges) the pair's
    hats = [kq_special_values(ig, p, b, qg)[2:] for b in blacks]
    side, wcol = blk.side, blk.edge
    head = np.where(side == "l", qg.lifts[:, 0], qg.lifts[:, 1])
    th = np.where(side == "", wcol, n_e + blk.pair)
    inner = side == ""
    sn, cn, dn = (np.concatenate(x)[th] for x in ((m.sn_t, m.sn_b), (m.cn_t, m.cn_b),
                                                   (m.dn_t, m.dn_b)))
    # cn^2((K -+ theta)/2) = k'(1 +- sn)/(k' + dn), with 1 - sn = cn^2/(1 + sn)
    c_hat = np.sqrt(kp * (1.0 + sn) / (kp + dn))
    c_vhat = np.sqrt(kp * (cn * cn / (1.0 + sn)) / (kp + dn))
    pref = (np.exp(0.5j * head) * math.sqrt(kp) / np.sqrt(cn * sn)
            * np.where(inner, 0.5 * (1.0 + dn / kp), sn / np.where(side == "l", c_vhat, c_hat)))

    # the (black, weight) terms of the requested blacks, by special value
    groups = {}
    for ib in np.flatnonzero(wanted.any(axis=0)).tolist():
        u_hat, v_hat = hats[ib]
        terms = [(u_hat, c_hat[ib]), (v_hat, c_vhat[ib])] if inner[ib] else [(u_hat, 1.0)]
        for u, weight in terms:
            groups.setdefault(round(u, 12), (u, []))[1].append((ib, weight))
    acc = np.zeros(wanted.shape, dtype=complex)
    for u, terms in groups.values():
        kdp = op.dirac(dg, p, u, "boundary")
        try:
            kd_inv = invert(kdp.dense())
        except SingularityError as exc:
            raise DomainError(
                f"special value u={u:.6f} hits an excluded direction: {exc}") from exc
        # a sparse product sums each row's two T terms in order; at the
        # boundary-pair blacks they cancel about 250-fold, and a dense
        # product (fused complex multiplies) moves those columns by 1e-14
        t_mat = op.s_t_matrices(qg, dg, p, u)[1]
        p_u = csr_matrix((t_mat.vals, (t_mat.i, t_mat.j)),
                         shape=(len(t_mat.rows), len(t_mat.cols))) @ kd_inv
        ib = np.array([i for i, _w in terms])
        acc[:, ib] += np.array([w for _i, w in terms]) * p_u[:, wcol[ib]]
    formula = np.full(wanted.shape, np.nan + 0j, dtype=complex)
    formula[wanted] = (sn_pref[:, None] * acc * pref)[wanted]
    return formula, direct, whites, blacks


def kf_inverse_formula(fg, qg, couplings, pairs=None):
    """The four coefficient families of the inverse Fisher operator from the
    inverse real quadri Kasteleyn matrix K~_Q^-1 (whites x blacks), as three
    block products over the ``op.fisher_aux`` blocks (Dubedat 2011):

    - K_F^-1[A, B] = I_{W,A}^T K~_Q^-1 X^T diag(1/(1 + e^{-4 J_b})), with
      e^{-4 J_b} = 0 at a boundary B (case1 inner, case2 boundary columns);
    - K_F^-1[A, A] = -1/2 I_{W,A}^T K~_Q^-1 D_{BQ,A} + kappa (case3);
    - K_F^-1[B, B] = M K_F^-1[A, B] at the inner columns (case4).

    ``pairs`` holds the A and B vertices whose rows are listed (all by
    default); the columns are always complete.  Returns a dict from case to
    its (row, col, formula, direct) entries, row-major in vertex order.
    """
    fqm = fisher_quadri_map(qg)
    # D_{BQ,A} puts each black in the column of its A: off a bijection, a
    # column would sum two blacks or none, and case3 would be silently wrong
    if Counter(fqm.a_of_black.values()) != Counter(fg.a_vertices):
        raise BijectionError("GQ blacks and Fisher A-vertices are not in bijection")
    kqt = op.kasteleyn_KQ_real(qg, fg.ig, couplings, induce_orientation_GQ(fg, qg))
    kf = op.kasteleyn_KF(fg, couplings)
    aux = op.fisher_aux(fg, qg, kf)
    x = aux.x.dense()
    ik = aux.i_wa.dense().T @ invert(kqt.dense())   # I_{W,A}^T K~_Q^-1
    # 1 + e^{-4J_b} is the squared norm of X's row b: (1, eps e^{-2J}), or (1) at a boundary B
    kf_ab = ik @ x.T / (x * x).sum(axis=1)
    kf_inv = invert(kf.dense())
    # K^F lists the B vertices, then the A vertices
    verts, nb = kf.rows, len(fg.b_vertices)
    form = np.full(kf_inv.shape, np.nan + 0j)
    form[nb:, :nb] = kf_ab
    form[nb:, nb:] = -0.5 * ik @ aux.d_bqa.dense() + aux.kappa.dense()
    form[:nb, :nb] = aux.m.dense() @ kf_ab

    def listing(rows, cols):
        return [(verts[r], verts[c], form[r, c], kf_inv[r, c])
                for r, c in itertools.product(rows, cols)]

    a_all, b_all = range(nb, len(verts)), range(nb)
    a_rows, b_rows = ([n for n in vs if pairs is None or verts[n] in pairs] for vs in (a_all, b_all))
    opp = fg.triangle_at.opp        # -1 at a boundary B
    inner, boundary = np.flatnonzero(opp >= 0).tolist(), np.flatnonzero(opp < 0).tolist()
    return {"case1": listing(a_rows, inner), "case2": listing(a_rows, boundary),
            "case3": listing(a_rows, a_all), "case4": listing(b_rows, inner)}


def dotsenko_residuals(fg, qg, couplings, n_samples=50, seed=7):
    """Residuals of Dotsenko's three-terms relation on sampled (b, a).

    At an inner B the relation is the row of K~_Q I_{W,A} K_F^-1[A, A] at its
    quadri black: eps(b, a1), eps(b, a2) tanh 2J and eps(b, b') eps(b', a3)
    sech 2J at the ext, sn and cn whites.  The sampled A avoids the
    decorations of a1, a2 and a3.
    """
    inner = np.flatnonzero(fg.triangle_at.opp >= 0)
    if not len(inner):
        return []
    kqt = op.kasteleyn_KQ_real(qg, fg.ig, couplings, induce_orientation_GQ(fg, qg))
    kf = op.kasteleyn_KF(fg, couplings)
    i_wa = op.fisher_i_wa(fg, qg)
    kf_inv = invert(kf.dense())
    nb = len(fg.b_vertices)     # K^F lists the B vertices, then the A vertices
    rel = kqt.dense() @ i_wa.dense() @ kf_inv[nb:, nb:]
    hat = np.argsort(qg.black_at.fisher_b)      # the GQ black (a row of K~_Q) of each B
    deco = [a[1] for a in fg.a_vertices]
    rng = np.random.default_rng(seed)
    res = []
    forbidden_scale = np.abs(kf_inv).max()
    for _ in range(n_samples):
        r = hat[inner[rng.integers(len(inner))]]
        decos = {deco[a - nb] for a in qg.white_at.fisher_a[kqt.j[kqt.i == r]].tolist()}
        candidates = [n for n, f in enumerate(deco) if f not in decos]
        if not candidates:
            continue
        res.append(abs(rel[r, candidates[rng.integers(len(candidates))]])
                   / max(forbidden_scale, 1e-30))
    return res


# ---------------------------------------------------------------------------
# edge probabilities
# ---------------------------------------------------------------------------

@dataclass
class ProbabilityRow:
    edge_id: object
    role: str
    probability: float
    method: str
    closed_form: float = None
    gap: float = None


@dataclass
class ProbabilityTable:
    kind: str
    rows: list = field(default_factory=list)

    def to_csv(self):
        """The rows as CSV; an edge id holds commas, so csv quotes it."""
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(["edge_id", "role", "p_kenyon", "p_closed_form", "gap"])
        for r in self.rows:
            out.writerow([r.edge_id, r.role, repr(r.probability),
                          "" if r.closed_form is None else repr(r.closed_form),
                          "" if r.gap is None else repr(r.gap)])
        return buf.getvalue()

    def vertex_sum_defect(self, incidence):
        """Max |1 - sum of incident probabilities| over the given incidence
        map; NaN when any sum is NaN."""
        p_by_edge = dict(zip((r.edge_id for r in self.rows), (r.probability for r in self.rows)))
        worst = 0.0
        for edges in incidence.values():
            gap = abs(1.0 - sum(map(p_by_edge.__getitem__, edges)))
            if not gap <= worst:
                worst = gap
                if math.isnan(gap):
                    break
        return worst


def _kenyon_probabilities(m):
    """K[r, c] K^-1[c, r] for every entry (r, c) of m, aligned with ``m.vals``.

    Both factors are read from the real form R of m (``op.real_form``), whose
    probabilities are m's: the inverse is real, and the products keep the
    digits that multiplying phases back into a complex inverse would lose.
    R^-1 is read on the pattern of R^T by ``selected_inverse``.
    """
    r = op.real_form(m)
    return r.vals * selected_inverse(r)


def edge_probabilities_gd(dg, p, u, closed_form=False):
    """Kenyon single-edge probabilities on the rooted double graph, one row
    per edge in the str order of its (white edge id, black key).

    With closed_form=True also evaluates the bulk formula
    H(2 u_alpha) - H(2 u_beta) per edge (meaningful near the center of large
    truncations).
    """
    kd = op.dirac(dg, p, u, "plain")
    lay = op.dirac_layout(dg)
    eids, angles = lay.tab.eids, lay.tab.angles
    keys = list(zip(map(eids.__getitem__, lay.gd_e.tolist()),
                    map(lay.blacks.__getitem__, lay.gd_j.tolist())))
    probs = _kenyon_probabilities(kd).tolist()
    kinds = ["v" if v else "f" for v in lay.gd_v.tolist()]
    alphas, betas = angles[lay.gd_a].tolist(), angles[lay.gd_b].tolist()
    rows = ProbabilityTable(kind="GD")
    for n in sorted(range(len(keys)), key=list(map(str, keys)).__getitem__):
        cf = None
        gap = None
        if closed_form:
            ua = _u_arg(u, alphas[n], p)
            ub = _u_arg(u, betas[n], p)
            cf = el.h_fun(2.0 * ua, p) - el.h_fun(2.0 * ub, p)
            gap = abs(probs[n] - cf)
        rows.rows.append(ProbabilityRow(keys[n], kinds[n], probs[n], "kenyon-direct", cf, gap))
    return rows


def edge_probabilities_gq(qg, ig, p):
    kq = op.kasteleyn_KQ(qg, ig, p)
    probs = _kenyon_probabilities(kq).tolist()
    return ProbabilityTable("GQ", [
        ProbabilityRow((blk, wht), kind, prob, "kenyon-direct")
        for (blk, wht, kind, _), prob in zip(qg.edges, probs)])


def edge_probabilities_gf(fg, couplings):
    kf = op.kasteleyn_KF(fg, couplings)
    all_edges = ([(x, y, "internal") for x, y in fg.internal_edges]
                 + [(x, y, "external") for x, y, _ in fg.external_edges])
    if len(kf.vals) != 2 * len(all_edges):
        raise BijectionError(f"K^F has {len(kf.vals)} entries for {len(all_edges)} edges")
    # edge n of the list is K^F's entry 2n (see kasteleyn_KF)
    probs = _kenyon_probabilities(kf)[::2].tolist()
    return ProbabilityTable("GF", [
        ProbabilityRow((x, y), role, prob, "kenyon-direct")
        for (x, y, role), prob in zip(all_edges, probs)])


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

@dataclass
class OracleConfigSpace:
    kind: str
    instance: str
    count: int
    weighted_sum: float
    extra: dict = field(default_factory=dict)


def brute_force_spins(ig, couplings, budget=2 ** 20):
    """Exact + boundary-condition Ising partition function over the 2^n_free
    spin configurations, by the high-temperature expansion.

    With the boundary contracted to one + vertex,
    Z+ = 2^n_free prod cosh J_e sum_H prod_{e in H} tanh J_e over the edge
    sets H of even degree at every vertex, summed by the frontier sum;
    ``budget`` bounds its states.  An edge between two boundary vertices is a
    loop there and gives e^{J_e}.  The contracted vertex is named "plus",
    which sorts after every integer id, so the frontier sum starts at a free
    vertex: 14,189 states on square:6x6, against 58,761 from the boundary.
    """
    boundary = ig.base.boundary_vertices()
    free = [v for v in sorted(ig.base.coords) if v not in boundary]
    edges, weights, pref = [], [], 1.0
    for e in ig.edge_list():
        r, j = ig.rhombi[e], couplings[e]
        ends = tuple("plus" if v in boundary else v for v in (r.v1, r.v2))
        if ends == ("plus", "plus"):
            pref *= math.exp(j)
        else:
            edges.append(ends)
            weights.append(math.tanh(j))
            pref *= math.cosh(j)
    _count, total, _marg = _frontier_sum(["plus", *free], edges, weights, "even", budget)
    n = 2 ** len(free)
    return OracleConfigSpace("spins", ig.graph_hash(), n, n * pref * total)


def brute_force_polygons(ig, couplings, budget=2 ** 20):
    """Low-temperature expansion sum over polygon configurations of the dual
    (even degree at every face), by the frontier sum; ``budget`` bounds its states."""
    edges = [faces for faces, _eid in ig.dual_edges]
    weights = [math.exp(-2.0 * couplings[eid]) for _faces, eid in ig.dual_edges]
    count, total, _marg = _frontier_sum(range(len(ig.face_centers)), edges, weights,
                                        "even", budget)
    pref = math.exp(sum(couplings[e] for e in ig.edge_list()))
    return OracleConfigSpace("polygons", ig.graph_hash(), count, pref * total,
                             {"polygon_sum": total})


def _dual_arcs(ig, eid, gamma):
    """The arcs of the augmented dual across edge ``eid``, weighted by
    ``gamma[(f, eid)]`` at their tail f; no arc leaves "outer"."""
    r = ig.rhombi[eid]
    if r.f2 is None:
        return [(fkey(r.f1), "outer", gamma[(r.f1, eid)])]
    return [(fkey(f), fkey(g), gamma[(f, eid)]) for f, g in ((r.f1, r.f2), (r.f2, r.f1))]


def brute_force_dst_pairs(ig, weights_primal=None, weights_dual=None, budget=10 ** 6):
    """Weighted sum over pairs of dual directed spanning trees, by the forest sum.

    ``weights_primal`` maps directed primal edges (v, v') to conductances;
    ``weights_dual`` maps (f, crossed primal edge id), since dual edges toward
    the outer vertex come in parallel bundles; unit weights when omitted.
    With ``weights_dual`` a pair is one forest of the primal graph and the
    augmented dual, rooted at the root and "outer", with one group of arcs
    per edge: at most one arc per group and |V| - 1 + |F| = |E| make the
    dual tree the complement of the primal one.  Without it only the primal
    trees are summed.  ``budget`` bounds the frontier states.
    """
    root = vkey(ig.root)
    vertices, roots = [vkey(v) for v in ig.base.coords], {root: 1.0}
    if weights_dual is not None:
        if len(ig.base.coords) - 1 + len(ig.face_centers) != len(ig.edge_list()):
            raise BijectionError("|V| - 1 + |F| != |E|: the dual tree is not the complement")
        vertices += [fkey(f) for f in range(len(ig.face_centers))] + ["outer"]
        roots["outer"] = 1.0
    groups = []
    for eid in ig.edge_list():
        r = ig.rhombi[eid]
        groups.append([(vkey(x), vkey(y), 1.0 if weights_primal is None else weights_primal[(x, y)])
                       for x, y in ((r.v1, r.v2), (r.v2, r.v1)) if x != ig.root]
                      + ([] if weights_dual is None else _dual_arcs(ig, eid, weights_dual)))
    count, total = _forest_sum(vertices, groups, roots, budget, start=root)
    return OracleConfigSpace("dst-pairs", ig.graph_hash(), count, total)


def brute_force_forests(vertices, directed_edges, masses, budget=10 ** 6):
    """Weighted rooted directed spanning forests by the forest sum.

    ``directed_edges`` is a list of (x, y, rho).  Every vertex takes an
    out-edge or roots with weight ``masses[v]``; acyclic choices only.
    """
    count, total = _forest_sum(vertices, [[arc] for arc in directed_edges], masses, budget)
    return OracleConfigSpace("forests", "custom", count, total)


def brute_force_outer_trees(ig, gamma, budget=10 ** 6):
    """Weighted outer-rooted directed spanning trees of the augmented dual.

    ``gamma`` maps (f, w_edge_id) to the conductance of the directed dual edge
    leaving f across the white vertex of that primal edge.
    """
    count, total = _forest_sum([fkey(f) for f in range(len(ig.face_centers))] + ["outer"],
                               [_dual_arcs(ig, eid, gamma) for eid in ig.edge_list()],
                               {"outer": 1.0}, budget, start="outer")
    return OracleConfigSpace("outer-trees", ig.graph_hash(), count, total)


def brute_force(kind, ig, couplings=None, budget=2 ** 20):
    """Dispatcher used by the CLI oracle command."""
    if kind == "spins":
        return brute_force_spins(ig, couplings, budget)
    if kind == "polygons":
        return brute_force_polygons(ig, couplings, budget)
    if kind == "dst-pairs":
        return brute_force_dst_pairs(ig, budget=budget)
    raise DomainError(f"unknown oracle kind {kind!r}")


# ---------------------------------------------------------------------------
# additional closed-form specializations and truncation comparisons
# ---------------------------------------------------------------------------

def unit_dirac(dg):
    """Unit-weight complex Kasteleyn matrix of the rooted double graph.

    |det| counts perfect matchings = pairs of dual directed spanning trees.
    """
    return op.dirac_layout(dg).unit()


def kf_zinv_case1(fg, qg, p, pairs=None):
    """Z-invariant expression of the (A, B) inverse Fisher coefficients through
    the complex quadri matrix and the gauge function q (finite case).

    Returns a list of (a_bar, b, formula, direct).
    """
    ig = fg.ig
    couplings = op.z_invariant_couplings(ig, p)
    eps_q = induce_orientation_GQ(fg, qg)
    kqt = op.kasteleyn_KQ_real(qg, ig, couplings, eps_q)
    kq = op.kasteleyn_KQ(qg, ig, p)
    d_b, d_w = op.gauge_q(kqt, kq, bipartite=True)
    kf = op.kasteleyn_KF(fg, couplings)
    kf_inv = invert(kf.dense())
    kq_inv = invert(kq.dense())
    m, tri = op.edge_table(ig).at(p), fg.triangle_at
    verts, nb = kf.rows, len(fg.b_vertices)     # the B vertices, then the A vertices
    b_kf = np.flatnonzero(tri.opp >= 0)         # the inner B vertices
    a_kf = [n for n in range(nb, len(verts)) if pairs is None or verts[n] in pairs]
    b_list, a_list = [verts[n] for n in b_kf.tolist()], [verts[n] for n in a_kf]
    hat_b, hat_a = np.argsort(qg.black_at.fisher_b), np.argsort(qg.white_at.fisher_a)
    w_ix = hat_a[np.array(a_kf, dtype=np.intp) - nb]
    b_ix, op_ix = hat_b[b_kf], hat_b[tri.opp[b_kf]]
    sn, cn = m.sn_t[tri.edge[b_kf]], m.cn_t[tri.edge[b_kf]]   # edge ids are table positions
    e2 = cn / (1.0 + sn)            # e^{-2J}
    pref = 0.5 * (1.0 + sn)         # 1/(1 + e^{-4J})
    # K~Q = D_B KQ D_W  =>  (K~Q)^{-1}_{w,b} = q_{b,w} (KQ)^{-1}_{w,b}; the
    # gauges are diagonal, one entry per row in order
    q = 1.0 / np.outer(d_w.vals[w_ix], d_b.vals[b_ix])
    val = q * pref * (kq_inv[np.ix_(w_ix, b_ix)] - 1j * e2 * kq_inv[np.ix_(w_ix, op_ix)])
    direct = kf_inv[a_kf][:, b_kf]
    return [(a_bar, b, v, d) for a_bar, vs, ds in zip(a_list, val.tolist(), direct.tolist())
            for b, v, d in zip(b_list, vs, ds)]


def green_center_diagonal(ig, p):
    """Green diagonal of the bulk massive Laplacian at the most central vertex."""
    dm = op.delta_m_bulk(ig, p)
    coords = ig.base.coords
    center = sum(coords.values()) / len(coords)
    v_star = min(coords, key=lambda v: abs(coords[v] - center))
    at = op.edge_table(ig).vix(v_star)            # its row and column in dm
    return float(inverse_entry(dm, at, at).real), v_star


def center_edge_probability_gd(ig, p, u):
    """Kenyon probability and bulk closed form at the most central primal edge.

    The central edge is the first in edge order whose midpoint is nearest
    the mean of the vertices.  The Dirac operator is that of the rooted
    double graph, whose entry layout the edge table of ``ig`` keeps, so calls
    on one graph share it.
    """
    kd = op.dirac(ig, p, u, "plain")
    tab = op.edge_table(ig)
    coords = ig.base.coords
    center = sum(coords.values()) / len(coords)
    z = np.array(list(map(coords.__getitem__, tab.verts.tolist())))
    # the sums, halves and differences of the parts round as Python's
    # complex arithmetic does, and hypot is its abs
    x = 0.5 * (z.real[tab.v1] + z.real[tab.v2]) - center.real
    y = 0.5 * (z.imag[tab.v1] + z.imag[tab.v2]) - center.imag
    e = int(np.argmin(np.hypot(x, y)))
    eid, r, lay = tab.eids[e], ig.rhombi[tab.eids[e]], tab.layout()
    rf = op.real_form(kd)
    at = lay.slot[e, 0]                 # the entry (w_e, v2), none when v2 is the root
    p_ken = float(rf.vals[at] * inverse_entry(rf, lay.gd_j[at], e)) if at >= 0 else 0.0
    # the double-graph edge (w_e, v2) has the lifts (alpha, beta) of e
    ua = _u_arg(u, r.alpha_bar, p)
    ub = _u_arg(u, r.beta_bar, p)
    p_formula = el.h_fun(2.0 * ua, p) - el.h_fun(2.0 * ub, p)
    return p_ken, p_formula, eid


def z2_specialization(p):
    """Interior mass and survival probability of the square-lattice model.

    The survival probability 4 rho / (4 rho + mass), rho = sc(K/2) = k'^(-1/2),
    equals both 2 sqrt(k')/(1+k') and 2/(sinh 2J + 1/sinh 2J); solving for
    the mass gives 2 (k'^(-1/2) - 1)^2, which vanishes at criticality.  A
    source display puts the survival value 2 sqrt(k')/(1+k') in the mass's
    place; it is 1 at k = 0, where the critical Laplacian is massless.
    """
    th = 0.5 * p.bigK
    a_val = el.a_fun(th, p)
    sc_val = el.sc(th, p)
    mass = 4.0 * (a_val - sc_val)
    mass_formula = 2.0 * (1.0 / math.sqrt(p.kprime) - 1.0) ** 2
    survival = 4.0 * sc_val / (4.0 * sc_val + mass)
    survival_formula_a = 2.0 * math.sqrt(p.kprime) / (1.0 + p.kprime)
    j = 0.5 * math.log((1.0 + el.sn(th, p)) / el.cn(th, p))
    s2 = math.sinh(2.0 * j)
    survival_formula = 2.0 / (s2 + 1.0 / s2)
    return {"mass": mass, "mass_formula": mass_formula,
            "survival": survival, "survival_formula": survival_formula,
            "survival_formula_alt": survival_formula_a, "coupling": j}
