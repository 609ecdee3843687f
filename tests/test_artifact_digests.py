"""Pinned SHA-256 digests of sixteen CLI artifacts, regenerated in process.

Every artifact is written with ``--out``; the output path it records is
replaced by ``"OUT"`` before hashing, so a digest does not depend on where
the test runs.  The digests sit in ``artifact_digests.json`` next to the
numpy/BLAS fingerprint that ``perfbench/run.py`` records, taken where they
were pinned.

The residuals and matrix entries depend on numpy, BLAS and libm.  Under a
fingerprint that differs from the pinned one, the test still runs every
command and checks its exit code, then skips the digest comparison, naming
the fields that differ.  A change that alters an artifact on purpose re-pins
the digests and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_artifact_digests.py --pin
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "artifact_digests.json")
# the fingerprint fields that can move a float of an artifact
FLOAT_FIELDS = ("blas", "machine", "numpy", "python", "scipy")

_VERIFY = ["--k", "0,0.3,0.6,0.9", "--tol", "1e-8"]
COMMANDS = {
    **{f"verify {g}": ["verify", "--builder", g, *_VERIFY]
       for g in ("square:1x1", "square:2x2", "square:3x3", "square:4x3", "hex", "tripair",
                 "irregular")},
    "verify square:2x2 negative control": ["verify", "--builder", "square:2x2", *_VERIFY,
                                           "--negative-control"],
    **{f"matrices {g}": ["matrices", "--builder", g, "--k", "0.6"]
       for g in ("square:2x2", "hex", "irregular")},
    **{f"probabilities {g}": ["probabilities", "--builder", g, "--k", "0.6"]
       for g in ("hex", "square:3x3")},
    "oracle square:2x2": ["oracle", "--builder", "square:2x2"],
    "partition square:3x3 oracle": ["partition", "--builder", "square:3x3",
                                    "--k", "0,0.3,0.6,0.9", "--oracle"],
    "validate hex": ["validate", "--builder", "hex"],
}


def fingerprint():
    """The float-relevant fields of ``perfbench``'s machine fingerprint."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(os.path.dirname(HERE), "perfbench", "run.py"))
    mod, path = importlib.util.module_from_spec(spec), list(sys.path)
    try:
        spec.loader.exec_module(mod)        # run.py puts the checkout on sys.path
    finally:
        sys.path[:] = path
    full = mod._fingerprint()
    return {k: full[k] for k in FLOAT_FIELDS}


def regenerate(out_dir):
    """{name: (exit code, SHA-256)} of every command, run through ``cli.main``."""
    from isodimer import cli

    got = {}
    for name, argv in COMMANDS.items():
        out = os.path.join(out_dir, name.replace(" ", "_").replace(":", "_"))
        code = cli.main([*argv, "--out", out])
        with open(out, "rb") as fh:
            blob = fh.read().replace(json.dumps(out).encode(), b'"OUT"')
        got[name] = (code, hashlib.sha256(blob).hexdigest())
    return got


def test_artifacts_match_pinned_digests(tmp_path, capsys):
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert sorted(pinned["artifacts"]) == sorted(COMMANDS)
    got = regenerate(str(tmp_path))
    capsys.readouterr()
    assert {n: c for n, (c, _d) in got.items()} == {
        n: a["exit"] for n, a in pinned["artifacts"].items()}
    here = fingerprint()
    moved = sorted(k for k in FLOAT_FIELDS if here[k] != pinned["fingerprint"][k])
    if moved:
        pytest.skip(f"digests pinned under another {', '.join(moved)}: "
                    f"{ {k: pinned['fingerprint'][k] for k in moved} } here "
                    f"{ {k: here[k] for k in moved} }")
    assert {n: d for n, (_c, d) in got.items()} == {
        n: a["sha256"] for n, a in pinned["artifacts"].items()}


def _pin():
    with tempfile.TemporaryDirectory() as out_dir:
        got = regenerate(out_dir)
    data = {"fingerprint": fingerprint(),
            "artifacts": {n: {"argv": " ".join(COMMANDS[n]), "exit": c, "sha256": d}
                          for n, (c, d) in got.items()}}
    with open(PINNED, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_artifact_digests.py --pin")
    _pin()
