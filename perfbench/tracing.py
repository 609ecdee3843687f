"""Per-layer tracing of the isodimer package from outside.

The layers are the package modules.  :class:`Tracer` replaces the public
functions of each layer with wrappers that record a span per call (name,
start, end, parent span and pass id) and count the work the call did.  A
wrapped name is replaced in every ``isodimer`` module namespace that holds
it, because modules import names directly (``identities`` calls
``build_double``, not ``derived.build_double``).  Spans are kept in memory
and written when the pass ends; the per-layer metrics are computed from them.

A layer's self time is the time its spans cover minus the time covered by
their child spans, so time spent in another layer's function is charged to
that layer.  Functions a later version removes are skipped; the metrics that
name them then read 0.
"""

import functools
import math
import sys
import time
from array import array

# Public functions traced in each layer.  Names absent from the package are
# skipped.
LAYERS = {
    "elliptic": ("jacobi", "sn", "cn", "dn", "sc", "cs", "cd", "dc", "nd",
                 "sd", "ds", "nc", "ns", "complete_integrals", "a_fun",
                 "h_fun", "dn_int_sq", "theta_transform", "angle_transform"),
    "isoradial": ("make_isoradial", "builder_graph", "build_square_lattice",
                  "build_hex_triangles", "build_triangle_pair",
                  "build_irregular_pair", "load_graph", "dump_graph",
                  "admissible_u", "train_tracks", "IsoradialGraph.graph_hash"),
    "derived": ("build_double", "build_quadri", "build_fisher",
                "reference_matching_M1", "induce_orientation_GQ",
                "fisher_quadri_map", "temperley_map", "kasteleyn_orient",
                "enumerate_matchings"),
    "operators": ("delta_m_star", "delta_m_natural", "delta_m_partial",
                  "delta_m_bulk", "delta_m_partial_critical_limit",
                  "delta_m_partial_complex_u", "q_matrix", "dirac",
                  "kd_gauge_and_directed_laplacian", "kasteleyn_KQ",
                  "kq_bar_partial", "kasteleyn_KQ_real", "kasteleyn_KF",
                  "fisher_aux", "s_t_matrices", "z_invariant_couplings",
                  "gauge_q", "TypedSparseMatrix.dense"),
    "inference": ("invert", "logabsdet", "pfaffian",
                  "kd_inverse_formula", "kq_inverse_formula",
                  "kf_inverse_formula", "kf_zinv_case1", "dotsenko_residuals",
                  "kq_special_values", "edge_probabilities_gd",
                  "edge_probabilities_gq", "edge_probabilities_gf",
                  "edge_probabilities", "green_center_diagonal",
                  "center_edge_probability_gd", "z2_specialization",
                  "unit_dirac", "brute_force_spins", "brute_force_polygons",
                  "brute_force_dst_pairs", "brute_force_forests",
                  "brute_force_outer_trees", "spanning_trees", "brute_force"),
    "identities": ("check_dirac_laplacian", "check_main_intertwiner",
                   "check_det_tree_forest", "check_partition_function",
                   "check_z_invariance", "check_dubedat",
                   "check_directed_laplacian_gauge",
                   "log_z_plus_squared_formula", "run_battery"),
    "cli": ("main", "cmd_gen", "cmd_validate", "cmd_matrices", "cmd_verify",
            "cmd_partition", "cmd_probabilities", "cmd_oracle"),
}

QUAD = ("elliptic.a_fun", "elliptic.h_fun", "elliptic.dn_int_sq")
DERIVED_BUILDS = ("derived.build_double", "derived.build_quadri",
                  "derived.build_fisher", "derived.reference_matching_M1")
# operator builders: every traced operators function returning matrices
OPERATOR_BUILDS = tuple(f"operators.{n}" for n in LAYERS["operators"]
                        if n not in ("z_invariant_couplings", "gauge_q",
                                     "TypedSparseMatrix.dense"))
LINALG = ("inference.invert", "inference.logabsdet", "inference.pfaffian")
FORMULAS = tuple(f"inference.{n}" for n in (
    "kd_inverse_formula", "kq_inverse_formula", "kf_inverse_formula",
    "kf_zinv_case1", "dotsenko_residuals", "kq_special_values",
    "edge_probabilities_gd", "edge_probabilities_gq", "edge_probabilities_gf",
    "edge_probabilities", "green_center_diagonal",
    "center_edge_probability_gd", "z2_specialization", "unit_dirac"))
ORACLES = tuple(f"inference.{n}" for n in (
    "brute_force_spins", "brute_force_polygons", "brute_force_dst_pairs",
    "brute_force_forests", "brute_force_outer_trees", "spanning_trees",
    "brute_force"))
CHECKS = LAYERS["identities"][:7]

# (metric, unit, better, end-to-end metrics it should move, workloads)
METRICS = (
    ("elliptic.jacobi.calls", "count", "lower", "wall_s", "battery"),
    ("elliptic.jacobi.self_s", "s", "lower", "wall_s", "battery"),
    ("elliptic.jacobi.distinct_frac", "ratio", "higher", "wall_s", "battery"),
    ("elliptic.quad.calls", "count", "lower", "wall_s", "bulk"),
    ("elliptic.quad.self_s", "s", "lower", "wall_s", "bulk"),
    ("elliptic.self_s", "s", "lower", "wall_s", "battery bulk"),
    ("isoradial.make_isoradial.self_s", "s", "lower", "wall_s", "bulk"),
    ("isoradial.graph_hash.calls", "count", "lower", "wall_s", "battery"),
    ("isoradial.graph_hash.self_s", "s", "lower", "wall_s", "battery"),
    ("isoradial.admissible_u.self_s", "s", "lower", "wall_s", "battery"),
    ("isoradial.self_s", "s", "lower", "wall_s", "bulk"),
    ("derived.build.self_s", "s", "lower", "wall_s", "battery bulk oracles"),
    ("derived.enumerate_matchings.calls", "count", "lower", "wall_s", "oracles"),
    ("derived.enumerate_matchings.self_s", "s", "lower", "wall_s", "oracles"),
    ("derived.self_s", "s", "lower", "wall_s", "battery bulk oracles"),
    ("operators.builds", "count", "lower", "wall_s", "battery"),
    ("operators.builds_distinct_frac", "ratio", "higher", "wall_s", "battery"),
    ("operators.self_s", "s", "lower", "wall_s", "battery bulk"),
    ("operators.dense.calls", "count", "lower", "peak_rss_mb", "bulk"),
    ("operators.max_dim", "count", "lower", "peak_rss_mb", "bulk"),
    ("operators.nnz", "count", "lower", "peak_rss_mb", "bulk"),
    ("inference.linalg.calls", "count", "lower", "wall_s peak_rss_mb", "bulk"),
    ("inference.linalg.self_s", "s", "lower", "wall_s peak_rss_mb", "bulk"),
    ("inference.linalg.max_dim", "count", "lower", "wall_s peak_rss_mb", "bulk"),
    ("inference.linalg.flops_computed", "flop", "lower", "wall_s peak_rss_mb",
     "bulk"),
    ("inference.formula.self_s", "s", "lower", "wall_s", "oracles bulk"),
    ("inference.oracle.configs", "count", "lower", "wall_s", "oracles"),
    ("inference.oracle.accept_frac", "ratio", "higher", "wall_s", "oracles"),
    ("inference.oracle.self_s", "s", "lower", "wall_s", "oracles"),
    ("inference.self_s", "s", "lower", "wall_s", "bulk oracles"),
    ("identities.checks", "count", "lower", "wall_s", "battery"),
) + tuple((f"identities.{c}.self_s", "s", "lower", "wall_s", "battery")
          for c in CHECKS) + (
    ("identities.self_s", "s", "lower", "wall_s", "battery"),
    ("cli.self_s", "s", "lower", "wall_s", "battery"),
    ("cli.artifact_bytes", "byte", "lower", "wall_s", "battery"),
    ("trace.spans", "count", "lower", "none (tracer cost)", "all"),
    ("trace.overhead_s", "s", "lower", "none (tracer cost)", "all"),
)


def _scalar_key(a):
    """A hashable stand-in for one argument of an operator builder."""
    if a is None or isinstance(a, (bool, int, float, complex, str)):
        return a
    if hasattr(a, "k") and hasattr(a, "bigK"):     # EllipticParams
        return ("k", a.k)
    if isinstance(a, dict):
        key = ("dict", tuple(sorted(a.items(), key=repr)))
        try:
            hash(key)
            return key
        except TypeError:
            pass
    return ("obj", id(a))


def _matrices(result):
    if hasattr(result, "entries"):
        yield result
    elif isinstance(result, tuple):
        for r in result:
            if hasattr(r, "entries"):
                yield r


def _dim(m):
    if hasattr(m, "rows"):
        return max(len(m.rows), len(m.cols))
    shape = getattr(m, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.shape(m)
    return max(shape) if shape else 0


# complex flops of the dense kernels for an n x n matrix (LU-based inverse,
# LU for slogdet, Parlett-Reid for the Pfaffian); a complex multiply-add
# counts as 8 real flops
_FLOPS = {"inference.invert": lambda n: 8 * 2 * n ** 3,
          "inference.logabsdet": lambda n: 8 * 2 * n ** 3 // 3,
          "inference.pfaffian": lambda n: 8 * 2 * n ** 3 // 3}


def _config_space(name, args, result):
    """Size of the configuration space an enumeration oracle ranges over."""
    if name == "inference.brute_force_spins":
        return result.count
    if name == "inference.brute_force_polygons":
        return 2 ** len(args[0].dual_edges)
    if name == "inference.brute_force_dst_pairs":
        ig = args[0]
        n_e, n_v = len(ig.rhombi), len(ig.base.coords)
        return math.comb(n_e, n_e - n_v + 1)
    if name == "inference.brute_force_forests":
        out = {v: 1 for v in args[0]}
        for x, _y, _rho in args[1]:
            out[x] += 1
        return math.prod(out.values())
    if name == "inference.brute_force_outer_trees":
        ig = args[0]
        deg = [0] * len(ig.face_centers)
        for r in ig.rhombi.values():
            deg[r.f1] += 1
            if r.f2 is not None:
                deg[r.f2] += 1
        return math.prod(deg)
    return None


class Tracer:
    """Span recorder and work counters for one pass."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self.counts = {}
        self.distinct = {}
        self.maxima = {}
        self._keep = []
        self._patched = []

    # -- recording --------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key, v):
        self.maxima[key] = max(self.maxima.get(key, 0), v)

    def _observer(self, name):
        """The work counter for calls of ``name``, or None if it counts nothing."""
        if name == "elliptic.jacobi":
            seen = self.distinct.setdefault(name, set())

            def jacobi(args, kwargs, result):
                p = args[1] if len(args) > 1 else kwargs["p"]
                seen.add((p.k, args[0] if args else kwargs["u"]))
            return jacobi
        if name in OPERATOR_BUILDS:
            seen = self.distinct.setdefault("operators.builds", set())

            def build(args, kwargs, result):
                self._count("operators.builds")
                key = [name]
                for kw, a in [(None, a) for a in args] + sorted(kwargs.items()):
                    k = _scalar_key(a)
                    if isinstance(k, tuple) and k[0] == "obj":
                        self._keep.append(a)     # ids stay unique within the pass
                    key.append((kw, k))
                seen.add(tuple(key))
                for m in _matrices(result):
                    self._count("operators.nnz", len(m.entries))
                    self._max("operators.max_dim", _dim(m))
            return build
        if name in LINALG:
            def linalg(args, kwargs, result):
                n = _dim(args[0] if args else kwargs["m"])
                self._max("inference.linalg.max_dim", n)
                self._count("inference.linalg.flops_computed", _FLOPS[name](n))
            return linalg
        if name in ORACLES:
            def oracle(args, kwargs, result):
                space = _config_space(name, args, result)
                if space is not None:
                    self._count("inference.oracle.configs", space)
                    self._count("inference.oracle.accepted", result.count)
            return oracle
        return None

    def wrap(self, name, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, span_name, start, end, parent = (
            self._stack, self.span_name, self.start, self.end, self.parent)
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function in every loaded isodimer module."""
        import isodimer

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "isodimer" or n.startswith("isodimer."))]
        for layer, names in LAYERS.items():
            mod = getattr(isodimer, layer)
            for qual in names:
                owner, attr = mod, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    continue
                wrapped = self.wrap(f"{layer}.{qual.split('.')[-1]}", fn)
                if owner is not mod:
                    self._patch(owner, attr, fn, wrapped)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, key, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._keep.clear()

    # -- results ----------------------------------------------------------

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names), pass_id=self.pass_id,
                 name=np.frombuffer(self.span_name, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.intc))

    def metrics(self, artifact_bytes=0):
        """The per-layer metrics of this pass, keyed by metric name."""
        import numpy as np

        name = np.frombuffer(self.span_name, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n_names = len(self.names)
        self_by = np.bincount(name, weights=dur - child, minlength=n_names)
        calls_by = np.bincount(name, minlength=n_names)
        self_s = {n: float(self_by[i]) for i, n in enumerate(self.names)}
        calls = {n: int(calls_by[i]) for i, n in enumerate(self.names)}

        def total(names):
            return sum(self_s.get(n, 0.0) for n in names)

        def layer(prefix):
            return sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

        def frac(num, den):
            return num / den if den else 0.0

        jac = calls.get("elliptic.jacobi", 0)
        builds = self.counts.get("operators.builds", 0)
        configs = self.counts.get("inference.oracle.configs", 0)
        out = {
            "elliptic.jacobi.calls": jac,
            "elliptic.jacobi.self_s": self_s.get("elliptic.jacobi", 0.0),
            "elliptic.jacobi.distinct_frac":
                frac(len(self.distinct.get("elliptic.jacobi", ())), jac),
            "elliptic.quad.calls": sum(calls.get(n, 0) for n in QUAD),
            "elliptic.quad.self_s": total(QUAD),
            "elliptic.self_s": layer("elliptic"),
            "isoradial.make_isoradial.self_s":
                self_s.get("isoradial.make_isoradial", 0.0),
            "isoradial.graph_hash.calls": calls.get("isoradial.graph_hash", 0),
            "isoradial.graph_hash.self_s": self_s.get("isoradial.graph_hash", 0.0),
            "isoradial.admissible_u.self_s":
                self_s.get("isoradial.admissible_u", 0.0),
            "isoradial.self_s": layer("isoradial"),
            "derived.build.self_s": total(DERIVED_BUILDS),
            "derived.enumerate_matchings.calls":
                calls.get("derived.enumerate_matchings", 0),
            "derived.enumerate_matchings.self_s":
                self_s.get("derived.enumerate_matchings", 0.0),
            "derived.self_s": layer("derived"),
            "operators.builds": builds,
            "operators.builds_distinct_frac":
                frac(len(self.distinct.get("operators.builds", ())), builds),
            "operators.self_s": layer("operators"),
            "operators.dense.calls": calls.get("operators.dense", 0),
            "operators.max_dim": self.maxima.get("operators.max_dim", 0),
            "operators.nnz": self.counts.get("operators.nnz", 0),
            "inference.linalg.calls": sum(calls.get(n, 0) for n in LINALG),
            "inference.linalg.self_s": total(LINALG),
            "inference.linalg.max_dim": self.maxima.get("inference.linalg.max_dim", 0),
            "inference.linalg.flops_computed":
                self.counts.get("inference.linalg.flops_computed", 0),
            "inference.formula.self_s": total(FORMULAS),
            "inference.oracle.configs": configs,
            "inference.oracle.accept_frac":
                frac(self.counts.get("inference.oracle.accepted", 0), configs),
            "inference.oracle.self_s": total(ORACLES),
            "inference.self_s": layer("inference"),
            "identities.checks": sum(calls.get(f"identities.{c}", 0) for c in CHECKS),
        }
        for c in CHECKS:
            out[f"identities.{c}.self_s"] = self_s.get(f"identities.{c}", 0.0)
        out["identities.self_s"] = layer("identities")
        out["cli.self_s"] = layer("cli")
        out["cli.artifact_bytes"] = artifact_bytes
        out["trace.spans"] = len(dur)
        return out
