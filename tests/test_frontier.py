"""The frontier (transfer-matrix) sum under the matching, polygon and spin
oracles, checked against the exhaustive references in conftest."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import branching_matchings, get_graph, spin_loop, subset_scan_polygons

from isodimer import derived as der
from isodimer import inference as inf
from isodimer import operators as op
from isodimer.derived import wkey
from isodimer.elliptic import complete_integrals
from isodimer.errors import OracleBudgetError


def _gd_graph(ig):
    edges = sorted(der.build_double(ig).gd_edges)
    vs = sorted({wkey(w) for w, _b in edges} | {b for _w, b in edges}, key=str)
    return vs, [tuple(sorted((wkey(w), b), key=str)) for (w, b) in edges]


def _fisher_graph(ig):
    fg = der.build_fisher(ig)
    es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
          + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
    return fg.vertices(), es


def _cases():
    for spec in ("square:1x1", "square:1x2"):
        yield "gd " + spec, _gd_graph(get_graph(spec))
    for spec in ("square:1x2", "square:2x2", "hex", "tripair", "irregular"):
        yield "fisher " + spec, _fisher_graph(get_graph(spec))


@pytest.mark.parametrize("name", [name for name, _g in _cases()])
def test_matchings_match_branching_reference(name):
    vs, es = dict(_cases())[name]
    rng = np.random.default_rng(11)
    weights = list(rng.uniform(0.5, 2.0, size=len(es)))
    n_ref, z_ref, m_ref = branching_matchings(vs, es, weights, budget=10 ** 7,
                                              marginals=True)
    n, z, marg = der.enumerate_matchings(vs, es, weights, marginals=True)
    assert n == n_ref > 0
    assert abs(z - z_ref) <= 1e-12 * z_ref
    assert max(abs(a - b) for a, b in zip(marg, m_ref)) <= 1e-12 * z_ref
    assert der.enumerate_matchings(vs, es) == (n_ref, float(n_ref))


def test_polygons_match_subset_scan(params_half):
    for spec in ("square:1x1", "square:1x2", "square:2x2", "square:2x3",
                 "square:3x3", "hex", "tripair", "irregular"):
        ig = get_graph(spec)
        couplings = op.z_invariant_couplings(ig, params_half)
        n_ref, z_ref = subset_scan_polygons(ig, couplings)
        oc = inf.brute_force_polygons(ig, couplings)
        assert oc.count == n_ref
        assert abs(oc.extra["polygon_sum"] - z_ref) <= 1e-12 * z_ref


def test_spins_match_configuration_loop():
    # each graph at three moduli and at random couplings of either sign;
    # square:5x5 (2^16 configurations, about 1.5 s for the loop) at one modulus
    rng = np.random.default_rng(3)
    for spec in ("square:1x1", "square:1x2", "square:2x2", "square:3x2", "square:3x3",
                 "square:4x3", "square:5x5", "hex", "tripair", "irregular"):
        ig = get_graph(spec)
        cases = [op.z_invariant_couplings(ig, complete_integrals(0.5))]
        if spec != "square:5x5":
            cases += [op.z_invariant_couplings(ig, complete_integrals(k)) for k in (0.0, 0.9)]
            cases.append({e: float(rng.uniform(-1.0, 1.0)) for e in ig.edge_list()})
        for couplings in cases:
            n_ref, z_ref = spin_loop(ig, couplings)
            oc = inf.brute_force_spins(ig, couplings)
            assert oc.count == n_ref, spec
            assert abs(oc.weighted_sum - z_ref) <= 1e-12 * z_ref, spec


def test_frontier_budget_counts_states():
    # the 4-cycle a-b-c-d: BFS from a takes (a,b), (a,d), (b,c), (c,d) and
    # keeps 2, 2, 2 and 1 frontier states, 7 in all, for its 2 matchings
    vs, es = ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    assert der.enumerate_matchings(vs, es, budget=7) == (2, 2.0)
    with pytest.raises(OracleBudgetError):
        der.enumerate_matchings(vs, es, budget=6)
    # an isolated vertex has no matching; an odd cycle none either
    assert der.enumerate_matchings(vs + ["e"], es) == (0, 0.0)
    assert der.enumerate_matchings(vs[:3], es[:2] + [("a", "c")]) == (0, 0.0)


_RUN_TWICE = """
import math
from isodimer import derived as der, inference as inf, isoradial as iso, operators as op
from isodimer.elliptic import complete_integrals
ig = iso.make_isoradial(iso.builder_graph("hex"))
fg = der.build_fisher(ig)
couplings = op.z_invariant_couplings(ig, complete_integrals(0.5))
es = ([tuple(sorted(e, key=str)) for e in fg.internal_edges]
      + [tuple(sorted((x, y), key=str)) for x, y, _ in fg.external_edges])
ws = [1.0] * len(fg.internal_edges) + [
    math.exp(-2 * couplings[eid]) for *_xy, eid in fg.external_edges]
print(repr(der.enumerate_matchings(set(fg.vertices()), es, ws, marginals=True)))
wp = {(v, w): 1.0 + 0.1 * ((3 * v + w) % 7) for v in ig.base.adj for w in ig.base.adj[v]}
wd = {(f, eid): 1.0 + 0.1 * ((f + 2 * eid) % 5) for eid in ig.edge_list()
      for f in (ig.rhombi[eid].f1, ig.rhombi[eid].f2) if f is not None}
print(repr(inf.brute_force_dst_pairs(ig, weights_primal=wp, weights_dual=wd)))
ig = iso.make_isoradial(iso.builder_graph("square:3x3"))
couplings = op.z_invariant_couplings(ig, complete_integrals(0.5))
print(repr(inf.brute_force_polygons(ig, couplings)))
print(repr(inf.brute_force_spins(ig, couplings)))
"""


def test_frontier_sum_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", _RUN_TWICE], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_fisher_matchings_4x3(ig_4x3, params_half):
    # one perfect matching per polygon configuration and inner-face decoration
    vs, es = _fisher_graph(ig_4x3)
    count, _z = der.enumerate_matchings(vs, es)
    polygons = inf.brute_force_polygons(ig_4x3, op.z_invariant_couplings(ig_4x3, params_half))
    assert count == 2 ** 12 * polygons.count == 262_144


def test_polygons_5x5_match_pfaffian(params_half):
    ig = get_graph("square:5x5")
    couplings = op.z_invariant_couplings(ig, params_half)
    polygons = inf.brute_force_polygons(ig, couplings)
    kf = op.kasteleyn_KF(der.build_fisher(ig), couplings)
    log_z1 = (-len(ig.face_centers) * math.log(2.0) + sum(couplings.values())
              + math.log(abs(inf.pfaffian(kf))))
    assert abs(math.log(polygons.weighted_sum) - log_z1) <= 1e-9
