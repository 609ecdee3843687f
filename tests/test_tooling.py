"""The benchmark's tracer against the package it traces."""

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
