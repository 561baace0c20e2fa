"""Per-layer metrics from a traced run, and the tracer's self-checks."""

from __future__ import annotations

import os
import sys

CONDITION_IDS = ("C1", "C2", "C3", "C4", "C5", "C2-m", "C5-m", "P1", "P2", "P3")

# (metric, kind, source): kind "ms" is summed self time of the span, "calls"
# its call count, "count" a counter, "ratio" a quotient of two counters.
LAYER_METRICS = [
    ("cli.main.ms", "ms", "cli.main"),
    ("cli.build_group.ms", "ms", "cli.build_group"),
    ("cli.emit.ms", "ms", "cli.emit"),
    ("cli.reports_changed", "count", "cli.reports_changed"),
    ("cli.known_defect_crashes", "count", "cli.known_defect_crashes"),
    ("groups.mul.free", "count", "groups.mul.free"),
    ("groups.mul.free_product", "count", "groups.mul.free_product"),
    ("groups.mul.finite", "count", "groups.mul.finite"),
    ("groups.mul.amalgam", "count", "groups.mul.amalgam"),
    ("groups.inv.finite", "count", "groups.inv.finite"),
    ("groups.inv.amalgam", "count", "groups.inv.amalgam"),
    ("groups.mul_us.free", "us", "free"),
    ("groups.mul_us.finite", "us", "finite"),
    ("groups.mul_us.amalgam", "us", "amalgam"),
    ("cayley.build_ball.calls", "calls", "cayley.build_ball"),
    ("cayley.build_ball.ms", "ms", "cayley.build_ball"),
    ("cayley.ball_vertices", "count", "cayley.ball_vertices"),
    ("cayley.dist.calls", "calls", "cayley.dist"),
    ("cayley.dist.ms", "ms", "cayley.dist"),
    ("cayley.geodesic.calls", "calls", "cayley.geodesic"),
    ("cayley.geodesic.ms", "ms", "cayley.geodesic"),
    ("geometry.measure_delta.ms", "ms", "geometry.measure_delta"),
    ("geometry.delta_triples", "count", "geometry.delta_triples"),
    ("geometry.thin_triangle_delta.calls", "calls", "geometry.thin_triangle_delta"),
    ("geometry.thin_triangle_delta.ms", "ms", "geometry.thin_triangle_delta"),
    ("geometry.is_quasigeodesic.calls", "calls", "geometry.is_quasigeodesic"),
    ("geometry.is_quasigeodesic.ms", "ms", "geometry.is_quasigeodesic"),
    ("geometry.gromov_product.ms", "ms", "geometry.gromov_product"),
    ("components.find_components.calls", "calls", "components.find_components"),
    ("components.find_components.ms", "ms", "components.find_components"),
    ("components.find_consecutive_backtracking.ms", "ms",
     "components.find_consecutive_backtracking"),
    ("shortcut.shortcut.ms", "ms", "shortcut.shortcut"),
    ("shortcut.is_tamable.ms", "ms", "shortcut.is_tamable"),
    ("shortcut.verify_shortcut_proposition.ms", "ms", "shortcut.verify_shortcut_proposition"),
    ("pathrep.minimize_type.calls", "calls", "pathrep.minimize_type"),
    ("pathrep.minimize_type.ms", "ms", "pathrep.minimize_type"),
    ("pathrep.type_of.calls", "calls", "pathrep.type_of"),
    ("pathrep.found_ratio", "ratio", ("pathrep.found", "pathrep.minimize_type")),
] + [
    ("conditions.check.%s.ms" % c, "ms", "conditions.check.%s" % c) for c in CONDITION_IDS
] + [
    ("conditions.quasiconvexity_epsilon.ms", "ms", "conditions.quasiconvexity_epsilon"),
    ("conditions.exact_verdict_ratio", "ratio",
     ("conditions.exact_passes", "conditions.passes")),
    ("stallings.subgroup_graph.calls", "calls", "stallings.subgroup_graph"),
    ("stallings.subgroup_graph.ms", "ms", "stallings.subgroup_graph"),
    ("stallings.fold_letters", "count", "stallings.fold_letters"),
    ("stallings.distinct_ratio", "ratio", ("stallings.distinct", "stallings.subgroup_graph")),
    ("stallings.pullback.calls", "calls", "stallings.pullback"),
    ("stallings.pullback.ms", "ms", "stallings.pullback"),
    ("rational.build.calls", "calls", "rational.build"),
    ("rational.build.ms", "ms", "rational.build"),
    ("rational.saturate.ms", "ms", "rational.saturate"),
    ("rational.nfa_states", "count", "rational.nfa_states"),
    ("rational.contains.calls", "calls", "rational.contains"),
    ("rational.contains.ms", "ms", "rational.contains"),
    ("membership.oracle.calls", "calls", "membership.oracle"),
    ("membership.oracle.ms", "ms", "membership.oracle"),
    ("quotients.search.calls", "calls", "quotients.search"),
    ("quotients.search.ms", "ms", "quotients.search"),
    ("quotients.found_ratio", "ratio", ("quotients.found", "quotients.search")),
    ("quotients.subgroup_closure.calls", "calls", "quotients.subgroup_closure"),
    ("quotients.subgroup_closure.ms", "ms", "quotients.subgroup_closure"),
    ("quotients.closure_elems", "count", "quotients.closure_elems"),
    ("quotients.verify_separation.calls", "calls", "quotients.verify_separation"),
    ("quotients.harness.ms", "ms", "quotients.harness"),
    ("quotients.harness_degree", "count", "quotients.harness_degree"),
    ("amalgams.product_member.calls", "calls", "amalgams.product_member"),
    ("amalgams.product_member.ms", "ms", "amalgams.product_member"),
    ("amalgams.reduce.ms", "ms", "amalgams.reduce"),
]
MODULES = ("cli", "groups", "cayley", "geometry", "components", "shortcut", "pathrep",
           "conditions", "stallings", "rational", "membership", "quotients", "amalgams")
LAYER_METRICS += [("%s.errors" % m, "errors", m) for m in MODULES]
LAYER_METRICS += [("trace.overhead_ratio", "trace", None), ("trace.self_sum_ratio", "trace", None)]

UNITS = {"ms": "ms", "calls": "count", "count": "count", "ratio": "ratio", "us": "us",
         "errors": "count", "trace": "ratio"}

# Spans each workload must hit: a wrapper that is never called there means
# the tracer missed a binding, and the run fails instead of reporting 0.
MUST_HIT = {
    "metric": [
        "cli.build_group", "cli.emit", "cayley.build_ball", "cayley.dist", "cayley.geodesic",
        "geometry.measure_delta", "geometry.thin_triangle_delta",
        "geometry.is_quasigeodesic", "geometry.gromov_product",
        "components.find_components", "components.find_consecutive_backtracking",
        "shortcut.shortcut", "shortcut.is_tamable", "shortcut.verify_shortcut_proposition",
    ],
    "separability": [
        "cli.build_group", "cli.emit", "stallings.subgroup_graph", "rational.build",
        "rational.saturate", "rational.contains", "quotients.search",
        "quotients.subgroup_closure", "quotients.verify_separation", "quotients.harness",
        "amalgams.product_member", "amalgams.reduce",
    ],
    "conditions": [
        "cli.build_group", "cli.emit", "cayley.build_ball", "cayley.geodesic",
        "pathrep.minimize_type", "pathrep.type_of", "conditions.quasiconvexity_epsilon",
        "stallings.subgroup_graph", "stallings.pullback", "rational.build",
        "rational.saturate", "rational.contains", "membership.oracle",
    ] + ["conditions.check.%s" % c for c in CONDITION_IDS],
}
# Metric prefixes that must stay at zero: the workload is meant to skip them.
MUST_SKIP = {
    "metric": ("pathrep.", "conditions.", "quotients."),
    "separability": ("geometry.", "shortcut.", "components.", "pathrep.", "conditions."),
    "conditions": ("quotients.", "groups.mul.finite", "groups.mul.amalgam",
                   "groups.inv.", "groups.mul_us.finite", "groups.mul_us.amalgam",
                   "amalgams."),
}
SKIP_EXEMPT = ("conditions.exact_verdict_ratio",)


def collect(tracer, workload, results, batch_s, changed, main, paths, reference, spans_path):
    """Reduce the tracer's spans and counters to the per-layer metrics.

    ``batch_s`` is the traced batch time as measured (the sum of job times).
    """
    from worker import check_probe, run_job, write_configs  # worker.py runs as __main__

    batch = len(results)
    roots = sum(tracer.span_end[i] - tracer.span_start[i]
                for i in range(len(tracer.span_start))
                if tracer.names[tracer.span_name[i]] == "cli.main" and tracer.span_job[i] < batch)
    # Every metric but the error counts covers the timed batch alone, so
    # take them before the probes run.
    ms = tracer.self_ms()
    calls = dict(tracer.calls)
    counts = dict(tracer.counts)
    counts["cli.reports_changed"] = changed
    counts["stallings.distinct"] = len(tracer.distinct_folds)
    samples = {family: list(s) for family, s in tracer.samples.items()}

    # Named-defect probes run after the batch, outside its timing; they feed
    # only cli.known_defect_crashes and the <module>.errors counts.
    problems = []
    crashes = 0
    probes = reference.get("probes", [])
    probe_dir = os.path.join(os.path.dirname(next(iter(paths.values()))), "probes")
    os.makedirs(probe_dir)
    probe_paths = write_configs(probes, probe_dir)
    for i, entry in enumerate(probes):
        tracer.job = batch + i
        rc, out, error, _ = run_job(main, entry, probe_paths[entry["id"]],
                                    lambda m, argv: tracer.call("cli.main", m, (argv,), {}))
        crashes += error is not None
        msg = check_probe(entry, rc, out, error)
        if msg is not None:
            problems.append("defect probe %s: %s" % (entry["id"], msg))
    counts["cli.known_defect_crashes"] = crashes

    tracer.uninstall()
    tracer.samples = samples
    groups = sys.modules["relhyp.groups"]
    us = tracer.replay_us({"free": groups.FreeGroup.mul, "finite": groups.FiniteGroup.mul,
                           "amalgam": groups.Amalgam.mul})
    ratio_base = dict(calls)
    ratio_base.update(counts)

    metrics = {}
    for name, kind, src in LAYER_METRICS:
        if kind == "ms":
            value = ms.get(src, 0.0)
        elif kind == "calls":
            value = calls.get(src, 0)
        elif kind == "count":
            value = counts.get(src, 0)
        elif kind == "us":
            value = us[src]
        elif kind == "errors":
            value = tracer.errors.get(src, 0)
        elif kind == "ratio":
            num, den = src
            d = ratio_base.get(den, 0)
            value = ratio_base.get(num, 0) / d if d else 0.0
        else:
            continue
        metrics[name] = {"value": value, "unit": UNITS[kind]}
    metrics["trace.self_sum_ratio"] = {"value": roots / batch_s, "unit": "ratio"}

    for span in MUST_HIT[workload]:
        if not calls.get(span):
            problems.append("wrapped %s was never hit on %s" % (span, workload))
    for name, value in metrics.items():
        if name.startswith(MUST_SKIP[workload]) and not name.endswith(".errors") \
                and name not in SKIP_EXEMPT and value["value"]:
            problems.append("%s is %r on %s, which should skip it" % (name, value["value"], workload))
    if abs(roots / batch_s - 1.0) > 0.05:
        problems.append("module self times sum to %.3f of the traced batch time" % (roots / batch_s))
    if spans_path:
        tracer.dump(spans_path)
    return {"metrics": metrics, "problems": problems, "spans": len(tracer.span_start)}
