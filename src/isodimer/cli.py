"""Command-line front end.

Subcommands: gen, validate, matrices, verify, partition, probabilities,
oracle.  All artifacts are deterministic functions of the run configuration;
JSON is written with sorted keys and no timestamps.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

from . import elliptic as el
from . import identities as idn
from . import inference as inf
from . import operators as op
from .derived import build_double, build_fisher, build_quadri
from .errors import DomainError, IsodimerError, OracleBudgetError
from .isoradial import (
    admissible_u,
    builder_graph,
    dump_graph,
    load_graph,
    make_isoradial,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    command: str
    builder: str = None
    graph_path: str = None
    ks: list = field(default_factory=lambda: [0.5])
    u_values: list = None
    u_level: str = "doubleprime"
    u_count: int = 4
    u_delta: float = None
    root: int = None
    tol: float = None
    out: str = None
    oracle: bool = False
    budget: int = 2 ** 20
    seed: int = 0
    negative_control: bool = False

    def as_dict(self):
        return asdict(self)


# the commands that read only the first value of a comma-list flag
_ONE_VALUE = {"--k": ("matrices", "probabilities", "oracle"),
              "--u": ("matrices", "probabilities", "partition")}


def _numbers(text, flag, command):
    """The numbers of a comma-separated option value; each must be finite,
    and there must be one where ``command`` reads one."""
    try:
        out = [float(t) for t in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{flag} values must be finite, got {text!r}")
    if len(out) > 1 and command in _ONE_VALUE[flag]:
        raise DomainError(f"{command} reads one {flag} value, got {text!r}")
    return out


def _config_from_args(args, command):
    ks = _numbers(args.k, "--k", command) if getattr(args, "k", None) else [0.5]
    u_values = None
    if getattr(args, "u", None):
        u_values = _numbers(args.u, "--u", command)
        # every operator is 8K-periodic in u; far out, (u - gamma)/2 keeps only
        # the digits of u above its ulp
        for k in ks:
            period = 8.0 * el.complete_integrals(k).bigK
            for u in u_values:
                if abs(u) > period:
                    raise DomainError(f"--u {u!r} exceeds 8K = {period!r} at k = {k!r}; "
                                      "reduce u modulo 8K")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 < tol < math.inf:
        raise DomainError(f"--tol must be finite and > 0, got {tol}")
    # a field the command has no flag for keeps its default
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    given.update(command=command, graph_path=getattr(args, "graph", None), ks=ks,
                 u_values=u_values)
    return RunConfig(**given)


def _resolve_graph(cfg):
    if cfg.builder:
        g = builder_graph(cfg.builder)
    elif cfg.graph_path:
        with open(cfg.graph_path, "rb") as fh:
            g = load_graph(fh.read())
    else:
        raise IsodimerError("provide --builder or a graph path")
    return make_isoradial(g, root_hint=cfg.root)


def _emit(cfg, payload):
    text = json.dumps(payload, sort_keys=True, indent=1, default=float)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _u_list(cfg, ig, p):
    if cfg.u_values is not None:
        return list(cfg.u_values)
    return admissible_u(ig, p, cfg.u_level, delta=cfg.u_delta, count=cfg.u_count)


def cmd_gen(cfg):
    g = builder_graph(cfg.builder or "square:2x2")
    text = dump_graph(g)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_validate(cfg):
    ig = _resolve_graph(cfg)
    summary = {
        "config": cfg.as_dict(),
        "vertices": len(ig.base.coords),
        "edges": len(ig.base.edges),
        "faces": len(ig.face_centers),
        "boundary_pairs": len(ig.boundary_pairs),
        "root": ig.root,
        "graph_hash": ig.graph_hash(),
        "euler_ok": len(ig.base.edges) == len(ig.base.coords) + len(ig.face_centers) - 1,
    }
    _emit(cfg, summary)
    print(f"valid isoradial graph: |V|={summary['vertices']} |E|={summary['edges']} "
          f"|V*|={summary['faces']} root={ig.root}", file=sys.stderr)
    return EXIT_OK


def cmd_matrices(cfg):
    ig = _resolve_graph(cfg)
    dg = build_double(ig)
    qg = build_quadri(ig)
    k = cfg.ks[0]
    p = el.complete_integrals(k)
    u = _u_list(cfg, ig, p)[0]
    mats = [
        op.dirac(dg, p, u, "plain"),
        op.dirac(dg, p, u, "boundary"),
        op.delta_m_partial(ig, p, u),
        op.delta_m_star(ig, p),
        op.q_matrix(ig, p, u),
        op.kasteleyn_KQ(qg, ig, p),
        op.kq_bar_partial(qg, ig, p),
    ]
    s_mat, t_mat = op.s_t_matrices(qg, dg, p, u)
    mats += [s_mat, t_mat]
    fg = build_fisher(ig)
    couplings = op.z_invariant_couplings(ig, p)
    mats.append(op.kasteleyn_KF(fg, couplings))
    text = "".join(m.dump_text() for m in mats)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return EXIT_OK


def cmd_verify(cfg):
    ig = _resolve_graph(cfg)
    reports = idn.run_battery(ig, ks=cfg.ks, u_count=cfg.u_count,
                              delta=cfg.u_delta, tol=cfg.tol,
                              oracle_budget=cfg.budget,
                              negative_control=cfg.negative_control,
                              u_values=cfg.u_values, seed=cfg.seed)
    n_pass = sum(1 for r in reports if r.passed)
    payload = {
        "config": cfg.as_dict(),
        "reports": [r.as_json_dict() for r in reports],
        "summary": {"pass": n_pass, "fail": len(reports) - n_pass},
    }
    _emit(cfg, payload)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name} k={r.k} u={r.u} residual={r.residual:.3e}",
              file=sys.stderr)
    if cfg.negative_control:
        # a healthy negative control must fail
        return EXIT_OK if n_pass < len(reports) else EXIT_CHECK_FAILED
    return EXIT_OK if n_pass == len(reports) else EXIT_CHECK_FAILED


def cmd_partition(cfg):
    ig = _resolve_graph(cfg)
    out = {"config": cfg.as_dict(), "results": []}
    worst, ws = 0.0, None
    for k in cfg.ks:
        p = el.complete_integrals(k)
        ws = idn.Workspace(ig, p) if ws is None else ws.with_modulus(p)
        u = _u_list(cfg, ig, p)[0]
        log_z2 = idn.log_z_plus_squared_formula(ws, u)
        entry = {"k": k, "u": u, "log_z_plus_squared_formula": log_z2}
        if cfg.oracle:
            try:
                zs = inf.brute_force_spins(ig, ws.couplings, cfg.budget)
            except OracleBudgetError as exc:
                print(f"oracle budget exhausted: {exc}", file=sys.stderr)
                return EXIT_BUDGET
            gap = abs(2.0 * math.log(zs.weighted_sum) - log_z2)
            entry["log_z_plus_squared_oracle"] = 2.0 * math.log(zs.weighted_sum)
            entry["log_gap"] = gap
            worst = max(worst, gap)
        out["results"].append(entry)
    _emit(cfg, out)
    for e in out["results"]:
        msg = f"k={e['k']}: log [Z+]^2 = {e['log_z_plus_squared_formula']:.12f}"
        if "log_gap" in e:
            msg += f" (oracle gap {e['log_gap']:.3e})"
        print(msg, file=sys.stderr)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    if cfg.oracle and worst > tol:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_probabilities(cfg):
    ig = _resolve_graph(cfg)
    dg = build_double(ig)
    k = cfg.ks[0]
    p = el.complete_integrals(k)
    u = _u_list(cfg, ig, p)[0]
    table = inf.edge_probabilities_gd(dg, p, u, closed_form=True)
    text = table.to_csv()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return EXIT_OK


def cmd_oracle(cfg):
    ig = _resolve_graph(cfg)
    k = cfg.ks[0]
    p = el.complete_integrals(k)
    couplings = op.z_invariant_couplings(ig, p)
    out = {"config": cfg.as_dict(), "oracles": []}
    try:
        for kind in ("spins", "polygons", "dst-pairs"):
            oc = inf.brute_force(kind, ig, couplings, budget=cfg.budget)
            out["oracles"].append({"kind": oc.kind, "count": oc.count,
                                   "weighted_sum": oc.weighted_sum})
    except OracleBudgetError as exc:
        print(f"oracle budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(cfg, out)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="isodimer",
                                 description="Z-invariant Ising/dimer operator "
                                             "verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {
        "graph": dict(nargs="?", help="graph JSON path"),
        "--builder": dict(help="builder spec, e.g. square:3x3, hex"),
        "--root": dict(type=int, help="root midpoint vertex id"),
        "--k": dict(default="0.5", help="comma list of moduli"),
        "--u": dict(help="comma list of explicit spectral values"),
        "--u-level": dict(default="doubleprime", choices=["base", "prime", "doubleprime"]),
        "--u-count": dict(type=int, default=4),
        "--u-delta": dict(type=float),
        "--tol": dict(type=float),
        "--out": dict(help="output path"),
        "--oracle": dict(action="store_true", help="enable brute-force cross checks"),
        "--budget": dict(type=int, default=2 ** 20,
                         help="oracle size bound, exit 3 past it: frontier states "
                              "summed over all steps, for every oracle"),
        "--seed": dict(type=int, default=0),
        "--negative-control": dict(action="store_true"),
    }
    graph = ("graph", "--builder", "--root", "--out")
    spectral = (*graph, "--k", "--u", "--u-level", "--u-delta")
    commands = {"gen": ("--builder", "--out"), "validate": graph, "matrices": spectral,
                "verify": (*graph, "--k", "--u", "--u-count", "--u-delta", "--tol", "--budget",
                           "--seed", "--negative-control"),
                "partition": (*spectral, "--tol", "--oracle", "--budget"),
                "probabilities": spectral, "oracle": (*graph, "--k", "--budget")}
    for name, names in commands.items():
        sp = sub.add_parser(name, **({"help": "emit a builder graph as JSON"} if name == "gen"
                                     else {}))
        for flag in names:
            sp.add_argument(flag, **flags[flag])
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "validate": cmd_validate,
        "matrices": cmd_matrices,
        "verify": cmd_verify,
        "partition": cmd_partition,
        "probabilities": cmd_probabilities,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](_config_from_args(args, args.command))
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (IsodimerError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
