"""Elliptic layer: Jacobi functions, complete integrals, A and H.

Oracles: adaptive quadrature of the defining integrals (scipy.quad on the
integrands directly), scipy.special.ellipj as an independent evaluation of
the Jacobi functions, and mpmath at 50 digits for K, E, sn/cn/dn, A and H.
"""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj

from isodimer import elliptic as el
from isodimer import isoradial as iso
from isodimer import operators as op
from isodimer.errors import DomainError, PoleError


def quadrature_K(k):
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13)
    return val


def quadrature_E(k):
    val, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13)
    return val


def test_complete_integrals_at_zero():
    p = el.complete_integrals(0.0)
    assert abs(p.bigK - math.pi / 2) < 1e-14
    assert abs(p.bigE - math.pi / 2) < 1e-14
    assert p.bigKprime == math.inf


def test_complete_integrals_half_sqrt2():
    # frozen from the quadrature oracle
    p = el.complete_integrals(math.sqrt(0.5))
    assert abs(p.bigK - 1.8540746773) < 1e-9
    assert abs(p.bigE - 1.3506438810) < 1e-9
    assert abs(p.bigK - quadrature_K(math.sqrt(0.5))) < 1e-12
    assert abs(p.bigE - quadrature_E(math.sqrt(0.5))) < 1e-12


def test_complete_integrals_vs_quadrature_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = rng.uniform(0.01, 0.97)
        p = el.complete_integrals(k)
        assert abs(p.bigK - quadrature_K(k)) < 1e-11
        assert abs(p.bigE - quadrature_E(k)) < 1e-11


def test_legendre_relation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = rng.uniform(0.01, 0.97)
        p = el.complete_integrals(k)
        res = abs(p.bigE * p.bigKprime + p.bigEprime * p.bigK
                  - p.bigK * p.bigKprime - math.pi / 2)
        assert res < 1e-12


def test_modulus_domain():
    with pytest.raises(DomainError):
        el.complete_integrals(1.0)
    with pytest.raises(DomainError):
        el.complete_integrals(-0.1)


def test_jacobi_rejects_an_argument_that_overflows_the_descent():
    p = el.complete_integrals(0.5)
    with pytest.raises(DomainError, match="overflows the Landen descent"):
        el.jacobi(1e308, p)
    assert all(math.isfinite(x) for x in el.jacobi(1e300, p))     # finite phi: the usual path


def test_jacobi_zero_and_trig():
    p = el.complete_integrals(0.37)
    assert el.jacobi(0.0, p) == (0.0, 1.0, 1.0)
    p0 = el.complete_integrals(0.0)
    for u in (0.3, -1.2, 7.0):
        s, c, d = el.jacobi(u, p0)
        assert abs(s - math.sin(u)) < 1e-15
        assert abs(c - math.cos(u)) < 1e-15
        assert d == 1.0


def test_jacobi_half_K():
    # sn(K/2) = (1+k')^(-1/2), cn(K/2) = (k'/(1+k'))^(1/2), dn(K/2) = k'^(1/2)
    for k in (0.2, 0.5, 0.8):
        p = el.complete_integrals(k)
        s, c, d = el.jacobi(0.5 * p.bigK, p)
        assert abs(s - 1.0 / math.sqrt(1.0 + p.kprime)) < 1e-13
        assert abs(c - math.sqrt(p.kprime / (1.0 + p.kprime))) < 1e-13
        assert abs(d - math.sqrt(p.kprime)) < 1e-13


def test_jacobi_vs_scipy():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(500):
        k = rng.uniform(0.0, 0.95)
        p = el.complete_integrals(k)
        u = rng.uniform(-2.0 * p.bigK, 6.0 * p.bigK)
        s, c, d = el.jacobi(u, p)
        s2, c2, d2, _ = ellipj(u, k * k)
        worst = max(worst, abs(s - s2), abs(c - c2), abs(d - d2))
    assert worst < 5e-13


def test_jacobi_identities_and_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = rng.uniform(0.0, 0.95)
        p = el.complete_integrals(k)
        u = rng.uniform(-2.0 * p.bigK, 6.0 * p.bigK)
        s, c, d = el.jacobi(u, p)
        assert abs(s * s + c * c - 1.0) < 1e-12
        assert abs(d * d + k * k * s * s - 1.0) < 1e-12
        s2, c2, d2 = el.jacobi(u + 2.0 * p.bigK, p)
        assert abs(d2 - d) < 1e-12
        assert abs(c2 + c) < 1e-12
        assert abs(s2 + s) < 1e-12
        # the shifted brackets of kd_inverse_formula
        assert abs(el.dn(u - p.bigK, p) - p.kprime / d) < 1e-12


def test_half_angle_weights_and_coupling():
    # the kq_inverse_formula weights cn^2((K -+ theta)/2) =
    # k'(1 +- sn theta)/(k' + dn theta), and the kf_zinv_case1 weight
    # cn theta/(1 + sn theta) = exp(-2 J_e) of the Z-invariant couplings
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = rng.uniform(0.0, 0.95)
        p = el.complete_integrals(k)
        th = rng.uniform(0.0, p.bigK)
        s, c, d = el.jacobi(th, p)
        kp = p.kprime
        assert abs(el.cn(0.5 * (p.bigK - th), p) ** 2 - kp * (1.0 + s) / (kp + d)) < 1e-12
        assert abs(el.cn(0.5 * (p.bigK + th), p) ** 2 - kp * (1.0 - s) / (kp + d)) < 1e-12
        assert abs(el.cn(0.5 * (p.bigK + th), p) ** 2
                   - kp * (c * c / (1.0 + s)) / (kp + d)) < 1e-12
    ig = iso.make_isoradial(iso.builder_graph("irregular"))
    for k in (0.0, 0.3, 0.9):
        p = el.complete_integrals(k)
        for e, j in op.z_invariant_couplings(ig, p).items():
            s, c, _d = el.jacobi(el.theta_transform(ig.rhombi[e].theta_bar, p), p)
            assert abs(c / (1.0 + s) - math.exp(-2.0 * j)) < 1e-12


def test_cn_square_sum_identity():
    # cn^2(u) + cn^2(K-u) = 2/(1+nd(2u))
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = rng.uniform(0.01, 0.95)
        p = el.complete_integrals(k)
        u = rng.uniform(-p.bigK, 3.0 * p.bigK)
        lhs = el.cn(u, p) ** 2 + el.cn(p.bigK - u, p) ** 2
        rhs = 2.0 / (1.0 + el.nd(2.0 * u, p))
        assert abs(lhs - rhs) < 1e-12


def test_ratio_pole():
    p = el.complete_integrals(0.5)
    with pytest.raises(PoleError):
        el.sc(p.bigK, p)
    with pytest.raises(PoleError):
        el.ns(0.0, p)


def test_a_fun_values():
    p0 = el.complete_integrals(0.0)
    assert el.a_fun(0.0, p0) == 0.0
    for th in (0.2, 0.7, 1.3):
        assert abs(el.a_fun(th, p0) - math.tan(th)) < 1e-10
    with pytest.raises(PoleError):
        el.a_fun(el.complete_integrals(0.5).bigK, el.complete_integrals(0.5))


def test_a_fun_sum_rule():
    # theta1+theta2+theta3 = 2K  =>  sum A = k' prod sc
    rng = np.random.default_rng(5)
    for k in (0.2, 0.5, 0.8):
        p = el.complete_integrals(k)
        for _ in range(5):
            x = rng.uniform(0.2, 0.8, size=3)
            th = 2.0 * p.bigK * x / x.sum()
            if th.max() > 0.95 * p.bigK:
                continue
            lhs = sum(el.a_fun(t, p) for t in th)
            rhs = p.kprime * np.prod([el.sc(t, p) for t in th])
            assert abs(lhs - rhs) < 1e-10


def test_a_fun_vs_fixed_gauss():
    # independent fixed-order Gauss-Legendre quadrature of dc^2
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for k in (0.3, 0.7):
        p = el.complete_integrals(k)
        for u in (0.3 * p.bigK, 0.8 * p.bigK):
            x = 0.5 * u * (nodes + 1.0)
            val = 0.5 * u * sum(w * el.dc(t, p) ** 2 for w, t in zip(weights, x))
            ref = (val + (p.bigE - p.bigK) / p.bigK * u) / p.kprime
            assert abs(el.a_fun(u, p) - ref) < 1e-9


def test_h_fun_properties():
    for k in (0.1, 0.3, 0.6, 0.9):
        p = el.complete_integrals(k)
        assert el.h_fun(0.0, p) == 0.0
        assert abs(el.h_fun(2.0 * p.bigK, p) - 0.5) < 1e-10
        for u in (0.3, 1.7):
            assert abs(el.h_fun(-u, p) + el.h_fun(u, p)) < 1e-12
            assert abs(el.h_fun(u + 4.0 * p.bigK, p) - el.h_fun(u, p) - 1.0) < 1e-10


def test_h_fun_small_k_limit():
    p = el.complete_integrals(1e-4)
    for u in np.linspace(0.0, 4.0 * p.bigK, 17):
        assert abs(el.h_fun(u, p) - u / (2.0 * math.pi)) < 1e-4
    p0 = el.complete_integrals(0.0)
    assert el.h_fun(1.3, p0) == 1.3 / (2.0 * math.pi)


def test_theta_transform():
    p = el.complete_integrals(0.8)
    assert abs(el.theta_transform(math.pi / 4, p) - 0.5 * p.bigK) < 1e-14
    p0 = el.complete_integrals(0.0)
    assert abs(el.theta_transform(0.3, p0) - 0.3) < 1e-14
    eps = 1e-3
    assert abs(el.theta_transform(math.pi / 2 - eps, p)
               - (p.bigK - 2.0 * p.bigK * eps / math.pi)) < 1e-12
    with pytest.raises(DomainError):
        el.theta_transform(0.0, p)
    with pytest.raises(DomainError):
        el.theta_transform(math.pi / 2, p)


# the moduli 0.00 ... 0.99 and one close to 1
ORACLE_MODULI = [i / 100 for i in range(100)] + [0.999]


def test_landen_depth_bounded():
    for k in ORACLE_MODULI[:-1]:
        p = el.complete_integrals(k)
        assert len(p._agm_a) - 1 <= 8, k


def test_complete_integrals_vs_mpmath():
    # K' and E' are the integrals at the modulus the code holds (the rounded
    # k'); at exact sqrt(1 - k^2) the rounding of k' alone moves K' by up to
    # 2e-14 for small k
    with mpmath.workdps(50):
        for k in ORACLE_MODULI:
            p = el.complete_integrals(k)
            m = mpmath.mpf(k) ** 2
            pairs = [(p.bigK, mpmath.ellipk(m)), (p.bigE, mpmath.ellipe(m))]
            if k > 0.0:
                mp_ = mpmath.mpf(p.kprime) ** 2
                pairs += [(p.bigKprime, mpmath.ellipk(mp_)),
                          (p.bigEprime, mpmath.ellipe(mp_))]
            for got, ref in pairs:
                assert abs((got - ref) / ref) <= 1e-15, (k, got)


def test_jacobi_vs_mpmath():
    with mpmath.workdps(50):
        for k in ORACLE_MODULI[::3] + [0.6, 0.99, 0.999]:
            p = el.complete_integrals(k)
            m = mpmath.mpf(k) ** 2
            for u in np.linspace(-8.0 * p.bigK, 8.0 * p.bigK, 23):
                got = el.jacobi(float(u), p)
                for name, val in zip(("sn", "cn", "dn"), got):
                    ref = mpmath.ellipfun(name, mpmath.mpf(float(u)), m=m)
                    assert abs(val - ref) <= 1e-14, (k, u, name)


def test_a_and_h_vs_mpmath():
    with mpmath.workdps(30):
        for k in (0.0, 0.3, 0.6, 0.9, 0.999):
            p = el.complete_integrals(k)
            m = mpmath.mpf(k) ** 2

            def jac(name, t):
                return mpmath.ellipfun(name, t, m=m)
            big_k, big_e = mpmath.ellipk(m), mpmath.ellipe(m)
            for frac in (0.1, 0.5, 0.9):
                u = mpmath.mpf(frac * p.bigK)
                dc_int = mpmath.quad(lambda t: (jac("dn", t) / jac("cn", t)) ** 2, [0, u])
                ref = (dc_int + (big_e - big_k) / big_k * u) / mpmath.sqrt(1 - m)
                assert abs(el.a_fun(float(u), p) - ref) <= 1e-10, (k, frac)
            for frac in (-1.3, 0.4, 2.0, 5.5):
                u = mpmath.mpf(frac * p.bigK)
                if k == 0.0:
                    ref = u / (2 * mpmath.pi)
                else:
                    big_kp, big_ep = mpmath.ellipk(1 - m), mpmath.ellipe(1 - m)
                    eps = mpmath.quad(lambda t: jac("dn", t) ** 2, [0, u / 2])
                    ref = (big_kp * eps + (big_ep - big_kp) * u / 2) / mpmath.pi
                assert abs(el.h_fun(float(u), p) - ref) <= 1e-10, (k, frac)


def test_jacobi_memo_bit_identical():
    # a memoised answer equals a fresh kernel evaluation bit for bit
    rng = np.random.default_rng(6)
    for k in (0.3, 0.6, 0.9, 0.999):
        p = el.complete_integrals(k)
        for u in rng.uniform(-4.0 * p.bigK, 4.0 * p.bigK, size=20):
            u = float(u)
            el.jacobi(u, p)
            assert el.jacobi(u, p) == el._landen(u, k)
    p = el.complete_integrals(0.6)
    el.jacobi(0.0, p)
    assert math.copysign(1.0, el.jacobi(-0.0, p)[0]) == -1.0


def test_closed_forms_vs_mpmath():
    # eps and H against mpmath's incomplete E(am u | m); A against quadrature
    # of dc^2 up to 0.97 K, where dc^2 is near its pole
    def mp_am(u, m, big_k):
        j = mpmath.nint(u / (2 * big_k))
        return mpmath.asin(mpmath.ellipfun("sn", u - 2 * j * big_k, m=m)) + j * mpmath.pi

    with mpmath.workdps(30):
        for k in (0.3, 0.6, 0.9, 0.99, 0.999):
            p = el.complete_integrals(k)
            m = mpmath.mpf(k) ** 2
            big_k, big_e = mpmath.ellipk(m), mpmath.ellipe(m)
            big_kp, big_ep = mpmath.ellipk(1 - m), mpmath.ellipe(1 - m)

            def eps(u):
                return mpmath.ellipe(mp_am(u, m, big_k), m)
            for u in np.linspace(-8.0 * p.bigK, 8.0 * p.bigK, 19):
                u = float(u)
                mu = mpmath.mpf(u)
                assert abs(el.dn_int_sq(u, p) - eps(mu)) <= 1e-14, (k, u)
                h_ref = (big_kp * eps(mu / 2) + (big_ep - big_kp) * mu / 2) / mpmath.pi
                assert abs(el.h_fun(u, p) - h_ref) <= 1e-14, (k, u)
                gap = el.dn_int_sq(u + 2.0 * p.bigK, p) - el.dn_int_sq(u, p) - 2.0 * p.bigE
                assert abs(gap) <= 1e-14, (k, u)
            assert abs(el.h_fun(2.0 * p.bigK, p) - 0.5) <= 1e-15, k
            for frac in (-0.97, -0.4, 0.1, 0.5, 0.8, 0.97):
                u = frac * p.bigK
                mu = mpmath.mpf(u)
                dc_int = mpmath.quad(lambda t: mpmath.ellipfun("dc", t, m=m) ** 2, [0, mu])
                ref = (dc_int + (big_e - big_k) / big_k * mu) / mpmath.sqrt(1 - m)
                assert abs(el.a_fun(u, p) - ref) <= 1e-14 * max(1.0, abs(ref)), (k, frac)


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # no scipy module at all: not after importing the CLI, and not after a
    # verify run, which makes no sparse solve
    src = os.path.dirname(os.path.dirname(el.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import json, sys\n"
            "import isodimer.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "before = scipy_modules()\n"
            "code = isodimer.cli.main(['verify', '--builder', 'square:2x2', '--out', sys.argv[1]])\n"
            "print(json.dumps([before, code, scipy_modules()]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "verify.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, exit_code, after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (before, exit_code, after) == ([], 0, [])
