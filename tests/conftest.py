import math

import pytest

from isodimer import isoradial as iso
from isodimer.elliptic import complete_integrals
from isodimer.errors import OracleBudgetError

_GRAPH_CACHE = {}


def get_graph(spec):
    if spec not in _GRAPH_CACHE:
        _GRAPH_CACHE[spec] = iso.make_isoradial(iso.builder_graph(spec))
    return _GRAPH_CACHE[spec]


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
