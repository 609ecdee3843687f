"""Jacobi elliptic functions, complete integrals and the special functions A and H.

All arguments are real.  The Jacobi functions are computed with the
descending Landen / arithmetic-geometric-mean recursion (DLMF 22.20), which
gives uniform double precision over the ranges of arguments used by the
operator builders (a few quarter-periods on either side of zero).

The same descent gives the integrals in closed form (Abramowitz-Stegun
17.6; DLMF 22.16(ii)).  With S(u) = sum_{n>=1} c_n sin(phi_n) over the
descending amplitudes, the Jacobi epsilon function (the integral of dn^2) is
eps(u) = (E/K) u + S(u), A(u) = (sn dc(u) - S(u))/k' and, by Legendre's
relation, H(u) = u/(4K) + (K'/pi) S(u/2).  :func:`jacobi` answers from a
bounded memo of the Landen kernel keyed on (u, k); it only ever holds kernel
results, so a cached value is bit-identical to a fresh one.

Conventions: ``k`` is the elliptic modulus in [0, 1), ``kprime`` the
complementary modulus, ``bigK``/``bigKprime`` the quarter-periods and
``bigE``/``bigEprime`` the complete second-kind integrals.  ``theta``,
``alpha``, ``beta`` denote angles already rescaled by 2K/pi (the
``theta_transform`` of embedding angles).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError, PoleError

_POLE_EPS = 1e-13
# stop once c_n is below the rounding floor of (a - b) / 2 relative to a_n
_AGM_REL_STOP = 4e-16
# (u, k) arguments held by the Jacobi memo; a battery pass uses about 1.3k
_JACOBI_MEMO_SIZE = 8192


@lru_cache(maxsize=256)
def _agm_sequence(k):
    """AGM scales a_n and c_n for modulus k, down to c_n <= 4e-16 a_n.

    The test is relative: an absolute one below the rounding floor of
    (a - b) / 2 is never met for some moduli.  It takes at most 6 levels for
    k <= 0.99 and 7 for k = 0.999; the 64-level cap is only a guard.
    """
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    a_seq, c_seq = [a], [c]
    while abs(c) > _AGM_REL_STOP * a and len(a_seq) < 64:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
    return tuple(a_seq), tuple(c_seq)


@dataclass(frozen=True)
class EllipticParams:
    """Modulus, complementary modulus, quarter-periods and second-kind integrals.

    ``bigKprime`` is +inf at k = 0; callers that need K' (the function H does)
    special-case k = 0 explicitly.
    """

    k: float
    kprime: float
    bigK: float
    bigKprime: float
    bigE: float
    bigEprime: float
    _agm_a: tuple = field(repr=False, default=())
    _agm_c: tuple = field(repr=False, default=())


def _complete_from_agm(k):
    a_seq, c_seq = _agm_sequence(k)
    big_k = math.pi / (2.0 * a_seq[-1])
    # E = K * (1 - sum 2^(n-1) c_n^2), c_0 = k.
    s = 0.0
    for n, c in enumerate(c_seq):
        s += 2.0 ** (n - 1) * c * c
    big_e = big_k * (1.0 - s)
    return big_k, big_e, a_seq, c_seq


def complete_integrals(k):
    """Complete elliptic integrals for modulus k in [0, 1).

    Returns an :class:`EllipticParams` holding K, K', E, E' (K' and E' are the
    integrals of the complementary modulus).
    """
    if not (isinstance(k, (int, float)) and 0.0 <= k < 1.0) or math.isnan(k):
        raise DomainError(f"modulus k must lie in [0, 1), got {k!r}")
    k = float(k)
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    big_k, big_e, a_seq, c_seq = _complete_from_agm(k)
    if k == 0.0:
        big_kp, big_ep = math.inf, 1.0
    else:
        big_kp, big_ep, _, _ = _complete_from_agm(kprime)
    return EllipticParams(k, kprime, big_k, big_kp, big_e, big_ep, a_seq, c_seq)


def _descent(u, k):
    """(phi_0, S(u)): the amplitude am(u), unreduced, and sum_{n>=1} c_n sin(phi_n).

    The descending Landen recursion from phi_N = 2^N a_N u (DLMF 22.20(ii)).
    """
    a_seq, c_seq = _agm_sequence(k)
    n = len(a_seq) - 1
    phi = (2.0 ** n) * a_seq[n] * u
    if not math.isfinite(phi):
        raise DomainError(f"argument {u!r} overflows the Landen descent")
    tail = 0.0
    for i in range(n, 0, -1):
        sin_phi = math.sin(phi)
        tail += c_seq[i] * sin_phi
        s = c_seq[i] / a_seq[i] * sin_phi
        s = max(-1.0, min(1.0, s))
        phi = 0.5 * (phi + math.asin(s))
    return phi, tail


def _landen(u, k):
    """(sn, cn, dn) at u for modulus k by the descending Landen recursion.

    dn is recovered from sn through dn^2 = 1 - k^2 sn^2, which is safe
    because dn >= k' > 0 on the real axis.
    """
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    phi, _ = _descent(u, k)
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(max(kprime * kprime, 1.0 - k * k * sn * sn))
    return sn, cn, dn


_landen_memo = lru_cache(maxsize=_JACOBI_MEMO_SIZE)(_landen)


def jacobi(u, p):
    """The primary Jacobi functions (sn, cn, dn) at real argument u.

    u = 0 takes the trigonometric branch too, so that the memo (whose keys
    do not tell -0.0 from 0.0) never changes the sign of sn(-0.0).
    """
    if not math.isfinite(u):
        raise DomainError(f"argument must be finite, got {u!r}")
    if p.k == 0.0 or u == 0.0:
        return math.sin(u), math.cos(u), 1.0
    return _landen_memo(u, p.k)


def _ratio(num, den, name, u):
    if abs(den) < _POLE_EPS:
        raise PoleError(f"{name}({u}) evaluated at a pole")
    return num / den


def sn(u, p):
    return jacobi(u, p)[0]


def cn(u, p):
    return jacobi(u, p)[1]


def dn(u, p):
    return jacobi(u, p)[2]


def sc(u, p):
    s, c, _ = jacobi(u, p)
    return _ratio(s, c, "sc", u)


def cs(u, p):
    s, c, _ = jacobi(u, p)
    return _ratio(c, s, "cs", u)


def cd(u, p):
    _, c, d = jacobi(u, p)
    return _ratio(c, d, "cd", u)


def dc(u, p):
    _, c, d = jacobi(u, p)
    return _ratio(d, c, "dc", u)


def nd(u, p):
    return _ratio(1.0, jacobi(u, p)[2], "nd", u)


def ns(u, p):
    return _ratio(1.0, jacobi(u, p)[0], "ns", u)


def dn_int_sq(u, p):
    """Integral of dn^2 from 0 to u (the Jacobi epsilon function), (E/K) u + S(u)."""
    if p.k == 0.0:
        return float(u)
    return p.bigE / p.bigK * u + _descent(u, p.k)[1]


def a_fun(u, p):
    """The function A(u) = (Dc(u) + (E-K)/K u)/k' with Dc(u) the integral of dc^2.

    Dc(u) = u - eps(u) + sn dc(u) gives A(u) = (sn dc(u) - S(u))/k'.  Only
    u inside (-K, K) is meaningful (dc^2 has a non-integrable pole at K);
    rhombus half-angles always lie there.  Past K/2, cos(am u) loses relative
    accuracy, so sn dc(u) is taken as cd ns(K - |u|).
    """
    if not math.isfinite(u):
        raise DomainError(f"argument must be finite, got {u!r}")
    if abs(u) >= p.bigK - 1e-9:
        raise PoleError(f"A({u}) outside (-K, K): dc pole on the integration path")
    phi, tail = _descent(u, p.k)
    if abs(u) <= 0.5 * p.bigK:
        cn = math.cos(phi)
        sn_dc = math.sin(phi) * math.hypot(p.kprime, p.k * cn) / cn
    else:
        s, c, d = _landen(p.bigK - abs(u), p.k)
        sn_dc = math.copysign(c / (d * s), u)
    return (sn_dc - tail) / p.kprime


def h_fun(u, p):
    """The single-edge probability function H.

    Real reduction H(u) = (K' eps(u/2) + (E'-K') u/2)/pi, the normalization
    pinned by H(2K) = 1/2, oddness, H(u+4K) = H(u)+1 and the k->0 limit
    u/(2 pi): eps(K) = E and Legendre's E K' + E' K - K K' = pi/2 give
    H(2K) = 1/2 exactly with the prefactor 1/pi, which the source
    derivation's display does not carry.  With eps(x) = (E/K) x + S(x) the
    same relation reduces H to u/(4K) + (K'/pi) S(u/2).  At k = 0, K' is
    infinite and S vanishes.
    """
    if p.k == 0.0:
        return u / (2.0 * math.pi)
    return u / (4.0 * p.bigK) + p.bigKprime / math.pi * _descent(0.5 * u, p.k)[1]


def theta_transform(theta_bar, p):
    """Map an embedding half-angle in (0, pi/2) to the elliptic angle in (0, K)."""
    if not (0.0 < theta_bar < math.pi / 2):
        raise DomainError(f"embedding half-angle must lie in (0, pi/2), got {theta_bar}")
    return theta_bar * 2.0 * p.bigK / math.pi


def angle_transform(angle_bar, p):
    """Rescale an arbitrary (lifted) embedding angle by 2K/pi."""
    return angle_bar * 2.0 * p.bigK / math.pi
