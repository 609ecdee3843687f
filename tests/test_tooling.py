"""The benchmark's tracer against the package it traces."""

import ast
import importlib
import importlib.util
import os

# traced names the package no longer has; their per-layer metrics read 0
_ABSENT = {"elliptic.sd", "elliptic.ds", "elliptic.nc",
           "inference.edge_probabilities", "inference.spanning_trees"}


def _tracing():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    # the tracer skips a name it cannot find, so a rename would silently
    # zero the metrics that name it
    missing = set()
    for layer, names in _tracing().LAYERS.items():
        mod = importlib.import_module(f"isodimer.{layer}")
        for qual in names:
            owner = mod
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.add(f"{layer}.{qual}")
    assert missing <= _ABSENT, sorted(missing - _ABSENT)


def _import_time_imports(tree):
    """Absolute module names imported when the module runs: everywhere but
    inside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def _package_trees():
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "isodimer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_module_level_scipy_import():
    # scipy loads on the first sparse solve, so the CLI starts without it
    found = []
    for name, tree in _package_trees():
        found += [f"{name}: {mod}" for mod in _import_time_imports(tree)
                  if mod == "scipy" or mod.startswith("scipy.")]
    assert not found, found


def test_splu_keeps_default_relax_and_panel_size():
    # non-default relax or panel_size crashed the interpreter in a trial
    # (a segfault, a double free); a ** argument could pass either
    calls, found = 0, []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "splu" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                calls += 1
                found += [f"{name}:{node.lineno}: {kw.arg or '**'}" for kw in node.keywords
                          if kw.arg in (None, "relax", "panel_size")]
    assert calls and not found, (calls, found)


def test_operators_never_names_graph_hash():
    # the digest runs the pure-Python JSON encoder over the whole graph; the
    # builders of every bulk matrix live in operators, and reports get the
    # digest elsewhere
    trees = dict(_package_trees())
    found = [node.lineno for node in ast.walk(trees["operators.py"])
             if "graph_hash" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "value", None))]
    assert not found, found


def test_one_owner_for_the_pair_rule():
    # which corner a quadri vertex sits at and which side of a boundary pair
    # it lies on: derived records both by position, every other module reads
    # those arrays
    from isodimer import operators as op

    found = {}
    for name, tree in _package_trees():
        banned = {"quad_of", "corner_of", "kq_layout"} | (
            set() if name == "derived.py" else {"pair_role"})
        hits = banned & {n for node in ast.walk(tree)
                         for n in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "value", None), getattr(node, "name", None))}
        if hits:
            found[name] = sorted(hits)
    assert not found, found
    assert not hasattr(op._Layout, "bpos")


def _owned_nodes(tree):
    """(owner, node) for every node of a module, the owner being the name of
    the top-level function or ``Class.method`` it sits in, or None."""
    for top in tree.body:
        units = [(f"{top.name}.{m.name}", m) for m in top.body
                 if isinstance(m, ast.FunctionDef)] if isinstance(top, ast.ClassDef) else []
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for name, unit in units or [(owner, top)]:
            yield from ((name, node) for node in ast.walk(unit))


def test_fisher_builders_gather_by_position():
    # every builder hands TypedSparseMatrix coordinate arrays: no module names
    # the {(row, col): value} route ``of``, the key positions ``row_pos`` and
    # ``col_pos`` or the edge positions ``epos`` (edge ids are positions), and
    # only ``get`` reads the {(row, col): value} view
    found = []
    for name, tree in _package_trees():
        for owner, node in _owned_nodes(tree):
            named = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            found += [f"{name}:{node.lineno}: {owner} names {hit}"
                      for hit in sorted(named & {"of", "row_pos", "col_pos", "epos"})]
            if (isinstance(node, ast.Attribute) and node.attr == "entries"
                    and (name, owner) != ("operators.py", "TypedSparseMatrix.get")):
                found.append(f"{name}:{node.lineno}: {owner} reads entries")
    assert not found, found


def test_isoradial_graph_derived_once(monkeypatch):
    # make_isoradial splits the boundary edges of the graph it is given
    # rather than deriving the split graph again
    from isodimer import isoradial as iso

    for spec in ("square:3x3", "hex", "irregular"):
        calls, real = [], iso.PlanarGraph._derive

        def counting(g, real=real, calls=calls):
            calls.append(g)
            real(g)

        monkeypatch.setattr(iso.PlanarGraph, "_derive", counting)
        iso.make_isoradial(iso.builder_graph(spec))
        monkeypatch.undo()
        assert len(calls) == 1, spec


def test_bulk_queries_read_entries_by_position(monkeypatch):
    # the Green diagonal, the central edge and the Kenyon table never build
    # the {(row, col): value} view of a matrix
    from isodimer import derived as der
    from isodimer import elliptic as el
    from isodimer import inference as inf
    from isodimer import isoradial as iso
    from isodimer import operators as op

    def no_entries(m):
        raise AssertionError(f"{m.name}: entry dict built")

    ig = iso.make_isoradial(iso.builder_graph("square:8x8"))
    p = el.complete_integrals(0.6)
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    monkeypatch.setattr(op.TypedSparseMatrix, "entries", property(no_entries))
    assert inf.green_center_diagonal(ig, p)[0] > 0.0
    assert 0.0 < inf.center_edge_probability_gd(ig, p, u)[0] < 1.0
    assert len(inf.edge_probabilities_gd(der.build_double(ig), p, u).rows) > 0


def test_identities_and_formulas_read_entries_by_position(monkeypatch):
    # the Lemma, Dubedat's blocks and the inverse-operator formulas index the
    # layouts their builders fix and never build the {(row, col): value}
    # view of a matrix
    import numpy as np

    from isodimer import derived as der
    from isodimer import elliptic as el
    from isodimer import identities as idn
    from isodimer import inference as inf
    from isodimer import isoradial as iso
    from isodimer import operators as op

    def no_entries(m):
        raise AssertionError(f"{m.name}: entry dict built")

    p = el.complete_integrals(0.6)
    monkeypatch.setattr(op.TypedSparseMatrix, "entries", property(no_entries))
    for spec in ("square:2x2", "hex"):
        ig = iso.make_isoradial(iso.builder_graph(spec))
        dg, qg, fg = der.build_double(ig), der.build_quadri(ig), der.build_fisher(ig)
        u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=2)[1]
        ws = idn.Workspace(ig, p)
        assert idn.check_partition_function(ws, u).passed
        assert idn.check_dubedat(ws).passed
        formula, direct = inf.kd_inverse_formula(dg, p, u)[:2]
        assert np.abs(formula - direct).max() < 1e-9
        couplings = op.z_invariant_couplings(ig, p)
        cases = inf.kf_inverse_formula(fg, qg, couplings)
        assert max(abs(f - d) for rows in cases.values() for _r, _c, f, d in rows) < 1e-9
        assert max(inf.dotsenko_residuals(fg, qg, couplings), default=0.0) < 1e-9


def test_no_path_reads_the_double_graph_records(monkeypatch, tmp_path):
    # the double graph is a view of the Dirac layout: building it, the
    # battery, the reference matching and the Kenyon table read the layout
    # arrays, never the {(w, black): record} dict
    from isodimer import cli
    from isodimer import derived as der
    from isodimer import elliptic as el
    from isodimer import identities as idn
    from isodimer import inference as inf
    from isodimer import isoradial as iso

    def no_records(dg):
        raise AssertionError("double-graph records built")

    monkeypatch.setattr(der.DoubleGraph, "gd_edges", property(no_records), raising=False)
    ig = iso.make_isoradial(iso.builder_graph("square:2x2"))
    dg = der.build_double(ig)
    assert all(r.passed for r in idn.run_battery(ig, u_count=2))
    assert len(der.reference_matching_M1(dg)[0]) == len(dg.whites)

    ig = iso.make_isoradial(iso.builder_graph("square:8x8"))
    p = el.complete_integrals(0.6)
    u = iso.admissible_u(ig, p, "base", delta=p.bigK / 16, count=4)[1]
    assert len(inf.edge_probabilities_gd(der.build_double(ig), p, u).rows) > 0
    assert cli.main(["probabilities", "--builder", "square:8x8", "--k", "0.6",
                     "--out", str(tmp_path / "t.csv")]) == cli.EXIT_OK


def test_checked_paths_never_build_the_entry_dict(monkeypatch, tmp_path):
    # the battery (its gauges included), the CLI commands that check or
    # tabulate, and the inverse-operator formulas read coordinate arrays: with
    # the {(row, col): value} view and ``get`` made to raise, every output is
    # what it is without the patch
    from isodimer import cli
    from isodimer import derived as der
    from isodimer import elliptic as el
    from isodimer import identities as idn
    from isodimer import inference as inf
    from isodimer import isoradial as iso
    from isodimer import operators as op

    def outputs():
        out = []
        for spec in ("square:2x2", "hex"):
            ig = iso.make_isoradial(iso.builder_graph(spec))
            out.append([r.as_json_dict() for r in idn.run_battery(ig, u_count=2)])
            dg, qg, fg = der.build_double(ig), der.build_quadri(ig), der.build_fisher(ig)
            p = el.complete_integrals(0.6)
            couplings = op.z_invariant_couplings(ig, p)
            u = iso.admissible_u(ig, p, "doubleprime", delta=p.bigK / 16, count=2)[1]
            out.append(inf.kf_zinv_case1(fg, qg, p))
            out.append(inf.edge_probabilities_gf(fg, couplings).rows)
            out.append(inf.edge_probabilities_gq(qg, ig, p).rows)
            out.append(inf.kf_inverse_formula(fg, qg, couplings))
            out.append(inf.dotsenko_residuals(fg, qg, couplings))
            out.append([x.tolist() for x in inf.kd_inverse_formula(dg, p, u)[:2]])
        for cmd in (["verify"], ["probabilities"], ["partition", "--oracle"], ["oracle"],
                    ["matrices"]):
            path = tmp_path / f"{cmd[0]}.out"       # the path is in the artifact
            assert cli.main(cmd + ["--builder", "square:2x2", "--k", "0.6",
                                   "--out", str(path)]) == cli.EXIT_OK
            out.append(path.read_text())
        return out

    def no_entries(m, *_key):
        raise AssertionError(f"{m.name}: entry dict built")

    want = outputs()
    monkeypatch.setattr(op.TypedSparseMatrix, "entries", property(no_entries))
    monkeypatch.setattr(op.TypedSparseMatrix, "get", no_entries)
    assert outputs() == want
