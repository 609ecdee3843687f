"""CLI surface: exit codes, artifact schema, determinism."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest
from conftest import positions

from isodimer import derived as der
from isodimer import inference as inf
from isodimer import isoradial as iso
from isodimer import operators as op
from isodimer.cli import main
from isodimer.elliptic import complete_integrals


def run_cli(args):
    return main(args)


def test_gen_validate_roundtrip(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli(["gen", "--builder", "square:2x2", "--out", str(out)]) == 0
    rep = tmp_path / "val.json"
    assert run_cli(["validate", str(out), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["vertices"] == 17 and data["faces"] == 4
    assert data["euler_ok"]


def test_validate_bad_graph(tmp_path):
    bad = tmp_path / "bad.json"
    s = 2.0 * math.sqrt(2.0)
    bad.write_text(json.dumps({
        "radius": 2.0,
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": s, "y": 0},
                     {"id": 2, "x": s, "y": s}, {"id": 3, "x": 0, "y": s},
                     {"id": 4, "x": s / 2, "y": -1.0},
                     {"id": 5, "x": s / 2, "y": s + 1.0}],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5]],
    }))
    assert run_cli(["validate", str(bad)]) == 2
    assert run_cli(["validate", str(tmp_path / "missing.json")]) == 2


def _square_graph(**changes):
    s = 2.0 * math.sqrt(2.0)
    data = {"radius": 2.0,
            "vertices": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": s, "y": 0.0},
                         {"id": 2, "x": s, "y": s}, {"id": 3, "x": 0.0, "y": s}],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    data.update(changes)
    return data


@pytest.mark.parametrize("data", [
    _square_graph(radius=float("nan")),
    _square_graph(vertices=[{"id": 3, "x": 99.0, "y": -7.0}]
                  + _square_graph()["vertices"]),
    _square_graph(vertices=[dict(v, id=v["id"] + 0.7) if v["id"] == 1 else v
                            for v in _square_graph()["vertices"]]),
    # JSON booleans and strings are no numbers, though Python reads True as 1
    _square_graph(vertices=[dict(v, id=True) if v["id"] == 1 else v
                            for v in _square_graph()["vertices"]],
                  edges=[[0, True], [True, 2], [2, 3], [3, 0]]),
    _square_graph(vertices=[dict(v, x="0.0") if v["id"] == 0 else v
                            for v in _square_graph()["vertices"]]),
    _square_graph(vertices=[dict(v, x=False) if v["id"] == 0 else v
                            for v in _square_graph()["vertices"]]),
    _square_graph(radius="2.0"),
], ids=["nan-radius", "duplicate-id", "non-integral-id", "boolean-id", "string-x",
        "boolean-x", "string-radius"])
def test_validate_rejects_malformed_graph(tmp_path, capsys, data):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_subnormal_coordinate_validates_and_verifies(tmp_path):
    # the angle of the side from vertex 0 underflows; cmath.phase raised
    # OverflowError on it
    data = _square_graph()
    data["vertices"][0]["y"] = 5e-324
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", str(path)]) == 0
    assert run_cli(["verify", str(path), "--k", "0.5", "--u-count", "1"]) == 0


def test_huge_coordinate_is_not_inscribed(tmp_path, capsys):
    # squaring a side past about 1.3e154 raised OverflowError in _circumcenter
    data = json.loads(iso.dump_graph(iso.builder_graph("hex")))
    next(v for v in data["vertices"] if v["id"] == 2)["y"] = 1e200
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", str(path)]) == 2
    assert "IsoradialityError" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["verify", "--builder", "square:2x2", "--k", "0.5", "--u", "0"],
    ["partition", "--builder", "square:2x2", "--u", "0"],
    ["partition", "--builder", "square:2x2", "--u-level", "prime"],
], ids=["verify-u", "partition-u", "partition-prime"])
def test_excluded_doubleprime_u_is_an_input_error(capsys, args):
    # the log-products of the determinant checks take log sn(0) at an
    # excluded doubleprime direction
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "DomainError" in err and "excluded direction" in err and "doubleprime" in err


def _mutated(rng, base, nudges=(1e-12, 1e-6, 1e-3, 0.1, 1.0)):
    """A copy of the graph JSON ``base`` with one or two random mutations: a
    vertex nudged, sent to an extreme value or onto another vertex; an edge
    dropped, added or duplicated."""
    data = json.loads(json.dumps(base))
    verts, edges = data["vertices"], data["edges"]
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(("nudge", "extreme", "coincide", "drop", "add", "duplicate"))
        v = rng.choice(verts)
        axis = rng.choice("xy")
        if kind == "nudge":
            v[axis] += rng.choice(nudges) * rng.choice((-1, 1))
        elif kind == "extreme":
            v[axis] = rng.choice((5e-324, -5e-324, 1e200, -1e200, 1e154, 0.0))
        elif kind == "coincide":
            w = rng.choice(verts)
            v["x"], v["y"] = w["x"], w["y"]
        elif kind == "drop" and edges:
            edges.pop(rng.randrange(len(edges)))
        elif kind == "add":
            edges.append([v["id"], rng.choice(verts)["id"]])
        elif kind == "duplicate" and edges:
            a, b = rng.choice(edges)
            edges.append(rng.choice(([a, b], [b, a])))
    return data


def test_validate_exit_codes_under_fuzzed_graphs(tmp_path, capsys):
    # mutated builder graphs are either valid (0) or an input error (2),
    # never an uncaught exception
    rng = random.Random(2024)
    bases = [json.loads(iso.dump_graph(iso.builder_graph(spec))) for spec in ("square:2x2", "hex")]
    path = tmp_path / "g.json"
    codes = []
    for case in range(300):
        path.write_text(json.dumps(_mutated(rng, bases[case % 2])))
        codes.append(run_cli(["validate", str(path), "--out", str(tmp_path / "v.json")]))
    capsys.readouterr()
    assert set(codes) <= {0, 2}
    assert {0, 2} <= set(codes)


def test_commands_exit_codes_under_fuzzed_graphs(tmp_path, capsys):
    # past validate, every command keeps the exit-code contract on mutated
    # graphs: 0, a failed check 1 (a 1e-9 nudge validates but moves the
    # partition_function residual past its 1e-8 gate), an input error 2, an
    # oracle past its budget 3; never an uncaught exception
    rng = random.Random(2025)
    bases = [json.loads(iso.dump_graph(iso.builder_graph(spec)))
             for spec in ("square:2x2", "hex", "tripair")]
    commands = (["matrices"], ["probabilities"], ["partition", "--oracle"], ["oracle"],
                ["verify", "--u-count", "1"])
    path, out = tmp_path / "g.json", str(tmp_path / "out")
    codes = []
    for case in range(60):
        data = _mutated(rng, bases[case % 3], nudges=(1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0))
        path.write_text(json.dumps(data))
        codes += [run_cli([cmd, str(path), *rest, "--out", out]) for cmd, *rest in commands]
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    assert {0, 2} <= set(codes)


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_rejects_bad_tol(capsys, tol):
    assert run_cli(["verify", "--builder", "square:1x1", "--u-count", "1",
                    f"--tol={tol}"]) == 2
    assert "--tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--k", "abc"), ("--k", "nan"), ("--u", "inf"), ("--u", "0.1,x")])
def test_verify_rejects_bad_numbers(capsys, option, value):
    # a handled input error: exit code 2 and a one-line message, no traceback
    assert run_cli(["verify", "--builder", "square:1x1", "--u-count", "1",
                    f"{option}={value}"]) == 2
    assert f"DomainError: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "gen"])
@pytest.mark.parametrize("spec", ["square:ax1", "square:3", "square:1x1x1"])
def test_malformed_builder_spec_is_an_input_error(capsys, command, spec):
    assert run_cli([command, "--builder", spec]) == 2
    assert f"DomainError: builder spec {spec!r}" in capsys.readouterr().err


def test_verify_rejects_a_spectral_value_past_the_descent(capsys):
    # 2^N a_N u would overflow the Landen descent (tested in test_elliptic);
    # 1e308 is far past 8K, so the CLI rejects it first
    assert run_cli(["verify", "--builder", "square:1x1", "--u", "1e308"]) == 2
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("ks, u", [("0.5", "1e8"), ("0.5", "-13.5"), ("0,0.9", "13")])
def test_verify_rejects_u_past_the_period(capsys, ks, u):
    # every operator is 8K-periodic in u; 8K(0.5) = 13.486 and 8K(0) = 4 pi < 13,
    # so each u is past 8K at some k of --k
    assert run_cli(["verify", "--builder", "square:1x1", "--k", ks, "--u", u]) == 2
    assert "reduce u modulo 8K" in capsys.readouterr().err


@pytest.mark.parametrize("ks, u", [("0.9", "13"), ("0.5", "-13.4")])
def test_verify_accepts_u_within_the_period(ks, u):
    assert run_cli(["verify", "--builder", "square:1x1", "--k", ks, "--u", u]) == 0


def test_verify_passes_and_artifact_schema(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--builder", "square:2x2", "--k", "0.6",
                    "--u-count", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"config", "reports", "summary"}
    assert data["summary"]["fail"] == 0
    names = {r["name"] for r in data["reports"]}
    assert {"dirac_laplacian", "main_intertwiner", "det_tree_forest",
            "partition_function", "dubedat", "directed_laplacian_gauge",
            "z_invariance"} <= names
    for r in data["reports"]:
        assert "elapsed" not in r
        assert r["residual"] >= 0.0
        assert r["passed"] == (r["residual"] <= r["tolerance"])


def test_verify_negative_control(tmp_path):
    out = tmp_path / "neg.json"
    code = run_cli(["verify", "--builder", "square:2x2", "--k", "0.6",
                    "--u-count", "1", "--negative-control", "--out", str(out)])
    assert code == 0  # the control behaving (= checks failing) is success
    data = json.loads(out.read_text())
    assert data["summary"]["fail"] > 0


def test_verify_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    run_cli(["verify", "--builder", "square:1x1", "--k", "0.3",
             "--u-count", "2", "--out", str(out1)])
    first = out1.read_text().replace(str(out1), "OUT")
    out2 = tmp_path / "a.json"       # same path => identical config
    run_cli(["verify", "--builder", "square:1x1", "--k", "0.3",
             "--u-count", "2", "--out", str(out2)])
    second = out2.read_text().replace(str(out2), "OUT")
    assert first == second


def test_verify_artifact_independent_of_caches(tmp_path):
    # a run with cold elliptic caches and one with warm caches write the
    # same bytes; the edge tables hang on the graphs a run builds, so every
    # run starts without one and no process-wide table cache exists to clear
    from isodimer import elliptic as el

    out = tmp_path / "v.json"
    args = ["verify", "--builder", "square:2x2", "--k", "0.6",
            "--u-count", "2", "--out", str(out)]
    for cache in (el._landen_memo, el._agm_sequence):
        cache.cache_clear()
    assert run_cli(args) == 0
    cold = out.read_bytes()
    assert el._landen_memo.cache_info().currsize > 0
    assert run_cli(args) == 0
    assert out.read_bytes() == cold


def test_verify_jacobi_call_guard(tmp_path, monkeypatch):
    """Jacobi kernel calls of `verify --builder square:3x3 --k 0.3,0.6,0.9
    --u-count 4`: the per-edge builders made 55,446 calls of
    ``elliptic.jacobi`` for it; the edge table must make at most a tenth."""
    from isodimer import elliptic as el

    real, calls = el.jacobi, []

    def counting(u, p):
        calls.append(u)
        return real(u, p)

    monkeypatch.setattr(el, "jacobi", counting)
    assert run_cli(["verify", "--builder", "square:3x3", "--k", "0.3,0.6,0.9",
                    "--u-count", "4", "--out", str(tmp_path / "v.json")]) == 0
    assert 0 < len(calls) <= 55446 // 10


def test_partition_with_oracle(tmp_path):
    out = tmp_path / "p.json"
    code = run_cli(["partition", "--builder", "square:2x2", "--k", "0.5",
                    "--oracle", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["results"][0]["log_gap"] < 1e-9


def test_probabilities_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(["probabilities", "--builder", "square:1x1", "--k", "0.5",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "edge_id,role,p_kenyon,p_closed_form,gap"
    assert len(lines) > 1


def test_probabilities_csv_repeatable_and_exact(tmp_path):
    out = tmp_path / "t.csv"
    args = ["probabilities", "--builder", "square:3x3", "--k", "0.6", "--out", str(out)]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first
    # the CLI's default spectral value: the first "doubleprime" admissible u
    ig = iso.make_isoradial(iso.builder_graph("square:3x3"))
    dg = der.build_double(ig)
    p = complete_integrals(0.6)
    u = iso.admissible_u(ig, p, "doubleprime", count=4)[0]
    kd = op.dirac(dg, p, u, "plain")
    inv = inf.invert(kd.dense())
    row_at, col_at = positions(kd.rows), positions(kd.cols)
    edges = sorted(dg.gd_edges, key=str)
    rows = list(csv.reader(io.StringIO(first.decode())))
    assert rows[0] == ["edge_id", "role", "p_kenyon", "p_closed_form", "gap"]
    assert len(rows) == 1 + len(edges)
    assert all(len(row) == 5 for row in rows)
    for (w, b), row in zip(edges, rows[1:]):
        assert row[0] == str((w, b))
        ref = (kd.get(der.wkey(w), b) * inv[col_at[b], row_at[der.wkey(w)]]).real
        assert abs(float(row[2]) - ref) <= 1e-12


def test_oracle_command_and_budget(tmp_path):
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--builder", "square:1x1", "--k", "0.5",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    kinds = {o["kind"]: o for o in data["oracles"]}
    assert kinds["dst-pairs"]["count"] == 8
    assert abs(kinds["spins"]["weighted_sum"]
               - kinds["polygons"]["weighted_sum"]) < 1e-6
    # the spin frontier on 3x3 takes 43 states
    assert run_cli(["oracle", "--builder", "square:3x3", "--k", "0.5",
                    "--budget", "4"]) == 3


def test_oracle_budget_bounds_dst_pairs(capsys):
    # spins (17 frontier states) and polygons fit in 200; the dST-pair forest
    # sum needs 3,757 states, so the caller's budget stops it
    assert run_cli(["oracle", "--builder", "square:3x2", "--k", "0.5",
                    "--budget", "200"]) == 3
    assert "frontier sum exceeded 200 states" in capsys.readouterr().err
    ig = iso.make_isoradial(iso.builder_graph("square:3x2"))
    couplings = op.z_invariant_couplings(ig, complete_integrals(0.5))
    inf.brute_force_spins(ig, couplings, budget=200)
    inf.brute_force_polygons(ig, couplings, budget=200)


def test_matrices_dump(tmp_path):
    out = tmp_path / "m.txt"
    assert run_cli(["matrices", "--builder", "square:1x1", "--k", "0.5",
                    "--out", str(out)]) == 0
    text = out.read_text()
    assert "# dirac_plain" in text and "# kasteleyn_KF" in text


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "isodimer.cli", "gen",
                           "--builder", "tripair"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["radius"] == 2.0


@pytest.mark.parametrize("args", [
    ["matrices", "--k", "0.3,0.6"], ["matrices", "--u", "1.0,2.0"],
    ["probabilities", "--k", "0.3,0.6"], ["probabilities", "--u", "1.0,2.0"],
    ["oracle", "--k", "0.3,0.6"], ["partition", "--u", "1.0,2.0"],
], ids=lambda a: "-".join(a[:2]))
def test_a_second_value_where_one_is_read_is_an_input_error(capsys, args):
    command, flag = args[0], args[1]
    assert run_cli([*args, "--builder", "square:2x2"]) == 2
    assert f"DomainError: {command} reads one {flag} value" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["gen", "--k", "abc"], ["gen", "--root", "1"], ["validate", "--k", "0.5"],
    *(["probabilities", "--builder", "square:1x1", *flag] for flag in (
        ["--negative-control"], ["--oracle"], ["--seed", "3"], ["--tol", "1e-30"],
        ["--budget", "1"], ["--u-count", "9"])),
    ["matrices", "--u-count", "4"], ["partition", "--u-count", "100"],
    ["partition", "--seed", "1"], ["oracle", "--u", "1.0"], ["oracle", "--tol", "1e-8"],
    ["verify", "--u-level", "prime"], ["verify", "--oracle"],
], ids=" ".join)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # every line of the sh block under "## CLI" in README.md exits 0
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [words[1:] for words in lines if words and words[0] == "isodimer"]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert run_cli(argv) == 0, argv
    capsys.readouterr()
