"""Per-layer metrics from cProfile statistics, and what each should move.

A layer is one module of ``src/affine_hecke``.  ``checks`` is not a layer:
the tier-1 suite already times it.  Functions that dataclasses generate
(``__init__``, ``__eq__``, ``__hash__``) are compiled from ``<string>`` and
belong to no layer.

The traced window covers the package import, so every layer's module body
counts towards its own self time and call count, and after it only the
library calls an op makes: not input generation and not the op's checks.
"""

from __future__ import annotations

import importlib
import os
import sys

LAYERS = (
    "laurent", "weyl", "hecke", "parabolic", "bernstein", "modules",
    "example_n2", "pairing", "expr", "serialize", "cli",
)

# metric -> (layer, qualified function): total call count of that function
COUNTS = {
    "laurent.mul_calls": ("laurent", "LaurentPoly.__mul__"),
    "laurent.add_calls": ("laurent", "LaurentPoly.__add__"),
    "weyl.perm_constructions": ("weyl", "AffinePerm.__post_init__"),
    "weyl.compose_calls": ("weyl", "AffinePerm.__mul__"),
    "weyl.length_calls": ("weyl", "AffinePerm.length"),
    "weyl.rex_calls": ("weyl", "AffinePerm.to_rex"),
    "hecke.elt_mul_calls": ("hecke", "HeckeElt.__mul__"),
    "hecke.fold_steps": ("hecke", "_mul_terms_simple"),
    "hecke.kl_label_builds": ("hecke", "KLLabel.__post_init__"),
    "modules.det_calls": ("modules", "mat_det"),
    "bernstein.mul_calls": ("bernstein", "bernstein_mul"),
}

# metric -> (layer, qualified function): seconds spent inside that function
CUMULATIVE = {
    "hecke.form_s": ("hecke", "form"),
    "modules.induce_s": ("modules", "induce"),
    "modules.check_relations_s": ("modules", "module_check_relations"),
    "parabolic.coset_rep_s": ("parabolic", "min_coset_reps"),
    "bernstein.to_bernstein_s": ("bernstein", "to_bernstein"),
    "example_n2.u_reduce_s": ("example_n2", "u_reduce"),
}

# Which end-to-end metric, on which workload, each layer metric should
# move.  A layer saves at most its own share of ops_per_s on a workload,
# because the loop is closed and single-threaded.
PREDICTIONS = {
    "<layer>.self_s, <layer>.calls": "ops_per_s on the workload where that layer's share is high",
    "laurent.mul_calls, laurent.add_calls": "ops_per_s on rank2_kl and induction; no change on cli_cold",
    "weyl.perm_constructions, weyl.compose_calls, weyl.length_calls, weyl.rex_calls":
        "ops_per_s on rank2_kl; little effect on induction",
    "hecke.elt_mul_calls, hecke.fold_steps, hecke.kl_label_builds, hecke.form_s":
        "ops_per_s on rank2_kl; no effect on induction",
    "modules.det_calls, modules.induce_s, modules.check_relations_s, parabolic.coset_rep_s, "
    "bernstein.to_bernstein_s, bernstein.mul_calls":
        "op_p90_ms and ops_per_s on induction; no effect on rank2_kl",
    "example_n2.u_reduce_s": "ops_per_s on rank2_kl",
    "cli.import_s": "op_p50_ms on cli_cold and setup_s on every workload",
    "trace.overhead_ratio": "nothing: it is the cost of tracing itself",
}

COUNT_METRICS = tuple(f"{layer}.calls" for layer in LAYERS) + tuple(COUNTS)


def _code_key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno


def _resolve(layer, qualname):
    obj = importlib.import_module(f"affine_hecke.{layer}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return _code_key(obj.__code__)


def layer_metrics(stats):
    """Per-layer metrics from a pstats-style dict
    {(file, line, name): (primitive calls, calls, self s, cumulative s, callers)}."""
    import affine_hecke

    pkg_dir = os.path.dirname(os.path.realpath(affine_hecke.__file__))
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    targets = {}
    for table, field in ((COUNTS, 1), (CUMULATIVE, 3)):
        for metric, (layer, qualname) in table.items():
            out[metric] = 0 if field == 1 else 0.0
            key = _resolve(layer, qualname)
            if key is None:
                print(f"perfbench: {layer}.{qualname} not found; {metric} reads 0", file=sys.stderr)
            else:
                targets[key] = (metric, field)
    for (filename, line, _name), row in stats.items():
        path = os.path.realpath(filename)
        if os.path.dirname(path) == pkg_dir:
            layer = os.path.splitext(os.path.basename(path))[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += row[2]
                out[f"{layer}.calls"] += row[1]
        target = targets.get((path, line))
        if target is not None:
            metric, field = target
            out[metric] += row[field]
    return out
