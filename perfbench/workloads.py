"""The three benchmark workloads, their seeded inputs and their correctness gates.

Each workload function takes the inputs made by :func:`make_inputs` and
returns a :class:`Tally`: how many gated operations it attempted, how many
failed, the worst residual of the gated checks, digests of the artifacts the
CLI wrote, and the outputs that are recorded but not gated (the criterion-6
convergence values).

Every workload runs at its full size by default; ``small=True`` selects the
smallest input of each, which the self-test uses.
"""

import contextlib
import hashlib
import json
import math
import os
import random

# Moduli of the acceptance battery.  Seed 0 uses them exactly.
ACCEPTANCE_K = {"k0.3": 0.3, "k0.5": 0.5, "k0.6": 0.6, "k0.9": 0.9}

# Other seeds draw one modulus near each acceptance value from these lists.
# Each list holds the moduli on a 0.001 grid within 0.02 of its centre whose
# descending-Landen recursion (elliptic._agm_sequence) runs as many levels as
# the centre's does on the initial code: 6 for 0.3 and 0.5, 64 for 0.6, 7 for
# 0.9.  The cost of a Jacobi evaluation depends on that level count (about
# 52 us at 64 levels against 6 us at 6), so moduli from one list cost the same
# and every seed keeps the 64-level case of 0.6 in the baseline.  k = 0 stays
# exact on every seed because it has its own code path.
NEAR_K = {
    "k0.3": (0.293, 0.285, 0.316),
    "k0.5": (0.499, 0.501, 0.497, 0.503, 0.496, 0.504, 0.495, 0.505),
    "k0.6": (0.599, 0.598, 0.603, 0.604, 0.606, 0.593, 0.608, 0.61),
    "k0.9": (0.901, 0.898, 0.897, 0.903, 0.904, 0.895, 0.905, 0.894),
}

BATTERY_SPECS = ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex")
BULK_SIZES = (16, 32)
GATE_TOL = 1e-9          # oracle equivalences and the Kenyon vertex sums
BATTERY_TOL = "1e-8"     # the theorem battery's acceptance tolerance
RESIDUAL_FLOOR = 1e-17   # a residual of exactly 0 is reported as this


def draw_moduli(seed):
    """Moduli for one seed: the acceptance values at seed 0, one near each otherwise."""
    if seed == 0:
        return dict(ACCEPTANCE_K)
    rng = random.Random(seed)
    return {slot: rng.choice(NEAR_K[slot]) for slot in sorted(NEAR_K)}


def make_inputs(workload, seed, small=False):
    """The generated inputs of one workload; the program receives only these."""
    k = draw_moduli(seed)
    if workload == "battery":
        specs = BATTERY_SPECS[:1] if small else BATTERY_SPECS
        return {"specs": list(specs),
                "ks": [0.0, k["k0.3"], k["k0.6"], k["k0.9"]],
                "u_count": 1 if small else 4,
                "negative_control": {"spec": "square:2x2", "k": k["k0.6"]}}
    if workload == "bulk":
        return {"sizes": [4, 6] if small else list(BULK_SIZES),
                "green_k": k["k0.5"],
                "edge_ks": [0.0, k["k0.3"], k["k0.6"]],
                "table_k": k["k0.6"]}
    if workload == "oracles":
        return {"k": k["k0.5"],
                "pf_specs": ["square:2x2"] if small
                else ["square:2x2", "square:3x3", "square:4x3", "hex"],
                # 4x3 is left out: its 262,144 Fisher matchings take about 50 s
                "fm_specs": ["square:2x2"] if small
                else ["square:2x2", "square:3x3", "hex"],
                "dst_specs": ["square:1x1"] if small else ["square:2x2", "hex"],
                "forest_spec": "square:1x1",
                "kd_specs": ["square:1x1"] if small else list(BATTERY_SPECS),
                "kd_ks": [k["k0.3"], k["k0.6"]],
                "kf_specs": ["square:1x1"] if small else ["square:2x2", "hex"]}
    raise ValueError(f"unknown workload {workload!r}")


class Tally:
    """Gated operations of one pass, the worst residual and recorded outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.failures = []
        self.outputs = {}
        self.artifacts = {}

    def gate(self, name, ok, residual=None):
        self.attempted += 1
        if residual is not None:
            self.worst = max(self.worst, residual if math.isfinite(residual) else math.inf)
        if not ok:
            self.failed += 1
            self.failures.append(name)

    @contextlib.contextmanager
    def op(self, name):
        """Run one operation; an exception counts it as attempted and failed."""
        try:
            yield
        except Exception as exc:  # a raising operation is a failed operation
            self.attempted += 1
            self.failed += 1
            self.worst = math.inf
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def residual_digits(self):
        """-log10 of the worst residual; 0 when an operation raised or gave NaN."""
        if self.worst == math.inf:
            return 0.0
        return -math.log10(max(self.worst, RESIDUAL_FLOOR))

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "worst_residual": self.worst if self.worst < math.inf else None,
                "residual_digits": self.residual_digits(),
                "failures": self.failures[:20], "outputs": self.outputs,
                "artifacts": self.artifacts}


def _fmt_k(k):
    return repr(float(k))


# ---------------------------------------------------------------------------
# battery: the theorem battery through the CLI, plus the negative control
# ---------------------------------------------------------------------------

def _verify(cli, argv, out):
    if os.path.exists(out):
        os.remove(out)          # left by an earlier pass
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        rc = cli.main(argv + ["--out", out])
    if not os.path.exists(out):
        raise RuntimeError(f"isodimer verify exited {rc} without writing {out}")
    with open(out, "rb") as fh:
        blob = fh.read()
    return rc, blob


def battery(inp, out_dir):
    from isodimer import cli

    t = Tally()
    ks = ",".join(_fmt_k(k) for k in inp["ks"])
    artifact_bytes = 0
    for spec in inp["specs"]:
        out = os.path.join(out_dir, "verify-" + spec.replace(":", "_") + ".json")
        with t.op(f"verify {spec}"):
            rc, blob = _verify(cli, ["verify", "--builder", spec, "--k", ks,
                                     "--u-count", str(inp["u_count"]),
                                     "--tol", BATTERY_TOL], out)
            artifact_bytes += len(blob)
            t.artifacts[spec] = hashlib.sha256(blob).hexdigest()
            reports = json.loads(blob)["reports"]
            for r in reports:
                t.gate(f"{spec} {r['name']} k={r['k']} u={r['u']}",
                       r["passed"], r["residual"])
            t.gate(f"{spec} exit code {rc}", rc == 0 and bool(reports))
    neg = inp["negative_control"]
    out = os.path.join(out_dir, "verify-negative-control.json")
    with t.op("negative control"):
        rc, blob = _verify(cli, ["verify", "--builder", neg["spec"],
                                 "--k", _fmt_k(neg["k"]), "--u-count", "1",
                                 "--negative-control"], out)
        artifact_bytes += len(blob)
        t.artifacts["negative-control"] = hashlib.sha256(blob).hexdigest()
        # z_invariance is geometry-free: the control does not perturb it
        reports = [r for r in json.loads(blob)["reports"]
                   if r["name"] != "z_invariance"]
        for r in reports:
            t.gate(f"negative control {r['name']} must fail", not r["passed"])
        t.gate(f"negative control exit code {rc}", rc == 0 and bool(reports))
    t.outputs["artifact_bytes"] = artifact_bytes
    return t


# ---------------------------------------------------------------------------
# bulk: Green diagonal, centre-edge probabilities and the Kenyon table
# ---------------------------------------------------------------------------

def _gd_incidence(dg):
    from isodimer.derived import wkey

    inc = {}
    for (w, b) in dg.gd_edges:
        inc.setdefault(wkey(w), []).append((w, b))
        inc.setdefault(b, []).append((w, b))
    return inc


def bulk(inp, out_dir):
    from isodimer import derived as der
    from isodimer import elliptic as el
    from isodimer import inference as inf
    from isodimer import isoradial as iso

    t = Tally()
    green = {}
    for n in inp["sizes"]:
        rec = t.outputs.setdefault(f"L{n}", {})
        ig = None
        with t.op(f"make_isoradial L={n}"):
            ig = iso.make_isoradial(iso.builder_graph(f"square:{n}x{n}"))
        if ig is None:
            continue
        with t.op(f"green L={n}"):
            p = el.complete_integrals(inp["green_k"])
            g, _v = inf.green_center_diagonal(ig, p)
            green[n] = abs(g - p.kprime * p.bigKprime / math.pi)
            rec[f"green_gap@k={_fmt_k(inp['green_k'])}"] = green[n]
        for k in inp["edge_ks"]:
            with t.op(f"centre edge L={n} k={k}"):
                p = el.complete_integrals(k)
                u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
                p_ken, p_form, _e = inf.center_edge_probability_gd(ig, p, u)
                # at k = 0 the bulk value of a square-lattice edge is 1/4
                ref = 0.25 if k == 0.0 else p_form
                rec[f"edge_gap@k={_fmt_k(k)}"] = abs(p_ken - ref)
        with t.op(f"kenyon table L={n}"):
            p = el.complete_integrals(inp["table_k"])
            u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
            dg = der.build_double(ig)
            table = inf.edge_probabilities_gd(dg, p, u)
            defect = table.vertex_sum_defect(_gd_incidence(dg))
            rec["vertex_sum_defect"] = defect
            t.gate(f"vertex sums L={n}", defect <= GATE_TOL, defect)
    sizes = inp["sizes"]
    if all(n in green for n in sizes):
        t.gate("green gap shrinks with L",
               all(green[a] > green[b] for a, b in zip(sizes, sizes[1:])))
    return t


# ---------------------------------------------------------------------------
# oracles: brute-force enumerations against linear algebra, inverse formulas
# ---------------------------------------------------------------------------

def _equiv(t, name, gap):
    t.gate(name, gap <= GATE_TOL, gap)


def oracles(inp, out_dir):
    import numpy as np

    from isodimer import derived as der
    from isodimer import elliptic as el
    from isodimer import inference as inf
    from isodimer import isoradial as iso
    from isodimer import operators as op

    t = Tally()
    graphs = {}

    def graph(spec):
        if spec not in graphs:
            graphs[spec] = iso.make_isoradial(iso.builder_graph(spec))
        return graphs[spec]

    p = el.complete_integrals(inp["k"])
    for spec in inp["pf_specs"]:
        with t.op(f"spins/polygons/pfaffian {spec}"):
            ig = graph(spec)
            couplings = op.z_invariant_couplings(ig, p)
            spins = inf.brute_force_spins(ig, couplings)
            polys = inf.brute_force_polygons(ig, couplings)
            log_z = math.log(spins.weighted_sum)
            _equiv(t, f"spins vs polygons {spec}",
                   abs(log_z - math.log(polys.weighted_sum)))
            fg = der.build_fisher(ig)
            kf = op.kasteleyn_KF(fg, couplings)
            log_z1 = (-len(ig.face_centers) * math.log(2.0) + sum(couplings.values())
                      + math.log(abs(inf.pfaffian(kf))))
            _equiv(t, f"spins vs pfaffian {spec}", abs(log_z - log_z1))
    for spec in inp["fm_specs"]:
        with t.op(f"fisher matchings {spec}"):
            # perfect matchings of the Fisher graph = 2^|V*| x polygon configurations
            ig = graph(spec)
            fg = der.build_fisher(ig)
            edges = [tuple(sorted(e, key=str)) for e in fg.internal_edges]
            edges += [tuple(sorted((x, y), key=str)) for x, y, _e in fg.external_edges]
            n_match, _z = der.enumerate_matchings(fg.vertices(), edges)
            polys = inf.brute_force_polygons(ig, op.z_invariant_couplings(ig, p))
            _equiv(t, f"fisher matchings {spec}",
                   abs(n_match - 2 ** len(ig.face_centers) * polys.count))
    for spec in inp["dst_specs"]:
        with t.op(f"dst pairs {spec}"):
            ig = graph(spec)
            dst = inf.brute_force_dst_pairs(ig)
            det = abs(np.linalg.det(inf.unit_dirac(der.build_double(ig)).dense()))
            _equiv(t, f"dst pairs vs |det| {spec}", abs(dst.weighted_sum - det) / det)
    spec = inp["forest_spec"]
    with t.op(f"forests {spec}"):
        ig = graph(spec)
        dm = op.delta_m_bulk(ig, p)
        verts = sorted(ig.base.coords)
        edges, masses = [], {}
        for eid in ig.edge_list():
            r = ig.rhombi[eid]
            rho = -float(dm.get(("v", r.v1), ("v", r.v2)).real)
            edges += [(r.v1, r.v2, rho), (r.v2, r.v1, rho)]
        for v in verts:
            masses[v] = float(sum(dm.get(("v", v), ("v", w)).real
                                  for w in [v] + list(ig.base.adj[v])))
        forests = inf.brute_force_forests(verts, edges, masses, budget=10 ** 7)
        _equiv(t, f"forests vs log|det| {spec}",
               abs(math.log(forests.weighted_sum) - inf.logabsdet(dm.dense())))
    for spec in inp["kd_specs"]:
        for k in inp["kd_ks"]:
            with t.op(f"kd inverse formula {spec} k={k}"):
                ig = graph(spec)
                pk = el.complete_integrals(k)
                u = iso.admissible_u(ig, pk, "doubleprime", delta=pk.bigK / 16,
                                     count=3)[1]
                formula, direct, _r, _c = inf.kd_inverse_formula(
                    der.build_double(ig), pk, u)
                _equiv(t, f"kd inverse formula {spec} k={k}",
                       float(np.abs(formula - direct).max() / np.abs(direct).max()))
    for spec in inp["kf_specs"]:
        with t.op(f"kf inverse formula {spec}"):
            ig = graph(spec)
            fg, qg = der.build_fisher(ig), der.build_quadri(ig)
            couplings = op.z_invariant_couplings(ig, p)
            cases = inf.kf_inverse_formula(fg, qg, couplings)
            gap = max((abs(f - d) for rows in cases.values() for _a, _b, f, d in rows),
                      default=0.0)
            _equiv(t, f"kf inverse formula {spec}", gap)
            dots = inf.dotsenko_residuals(fg, qg, couplings, n_samples=50)
            _equiv(t, f"dotsenko {spec}", max(dots, default=0.0))
    return t


WORKLOADS = {"battery": battery, "bulk": bulk, "oracles": oracles}
