"""The benchmark's metric catalogue and the per-layer values of a traced run.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a test checks
that they agree).  README.md maps each layer metric to the end-to-end metric
and workload it should move.
"""
from __future__ import annotations

#: the six suites ``gausslip --suite all`` runs, in its order
SUITES = ("eigen", "kernel-bound", "forward-diff", "fractional", "lipschitz", "boundedness")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("req_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "ratio", "higher", 0.05),
)

# (name, unit, better)
PER_LAYER = (
    ("quadrature.halfline.calls", "count", "lower"),
    ("quadrature.halfline.nodes", "count", "lower"),
    ("quadrature.halfline.payload_values", "count", "lower"),
    ("quadrature.halfline.busy_s", "s", "lower"),
    ("quadrature.halfline.self_s", "s", "lower"),
    ("quadrature.halfline.convergence_errors", "count", "lower"),
    ("quadrature.integrate_gaussian.busy_s", "s", "lower"),
    ("quadrature.tensor_nodes.calls", "count", "lower"),
    ("quadrature.tensor_cache.size", "count", "lower"),
    ("semigroup.integrand.busy_s", "s", "lower"),
    ("semigroup.ph_kernel_apply.points", "count", "lower"),
    ("semigroup.ph_kernel_apply.busy_s", "s", "lower"),
    ("semigroup.ph_kernel_apply.self_s", "s", "lower"),
    ("semigroup.ou_kernel_apply.busy_s", "s", "lower"),
    ("semigroup.ph_subordination_apply.busy_s", "s", "lower"),
    ("semigroup.kernel_derivative_l1.busy_s", "s", "lower"),
    ("semigroup.subordination_multiplier.lookups", "count", "lower"),
    ("semigroup.subordination_multiplier.hit_ratio", "ratio", "higher"),
    ("hermite.project.busy_s", "s", "lower"),
    ("hermite.eval_expansion.calls", "count", "lower"),
    ("hermite.eval_expansion.points", "count", "lower"),
    ("hermite.eval_expansion.busy_s", "s", "lower"),
    ("hermite.scale_by_level.calls", "count", "lower"),
    ("hermite.scale_by_level.busy_s", "s", "lower"),
    ("hermite.hermite_eval.points", "count", "lower"),
    ("hermite.hermite_eval.busy_s", "s", "lower"),
    ("lipschitz.sup_norm_estimate.calls", "count", "lower"),
    ("lipschitz.sup_norm_estimate.busy_s", "s", "lower"),
    ("lipschitz.seminorm_estimate.busy_s", "s", "lower"),
    ("lipschitz.seminorm_estimate.self_s", "s", "lower"),
    ("lipschitz.operator_boundedness_probe.busy_s", "s", "lower"),
    ("fractional.apply_fractional.busy_s", "s", "lower"),
    ("fractional.apply_fractional.self_s", "s", "lower"),
    ("fractional.integrand.busy_s", "s", "lower"),
    ("fractional.integral_eigenvalue.lookups", "count", "lower"),
    ("fractional.integral_eigenvalue.hit_ratio", "ratio", "higher"),
    ("forward_diff.forward_difference.calls", "count", "lower"),
    ("forward_diff.forward_difference.busy_s", "s", "lower"),
    ("forward_diff.cancellation_warnings", "count", "lower"),
    ("forward_diff.forward_difference_curve.calls", "count", "lower"),
    ("forward_diff.forward_difference_curve.busy_s", "s", "lower"),
) + tuple((f"suites.{s}.busy_s", "s", "lower") for s in SUITES) + (
    ("suites.rows_failed", "count", "lower"),
    ("suites.rows_flagged", "count", "lower"),
    ("report.write_report.busy_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("fail_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.client_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _hit_ratio(cached) -> tuple:
    info = cached.cache_info()
    lookups = info.hits + info.misses
    return lookups, (info.hits / lookups if lookups else 0.0)


def layer_metrics(tracer, result: dict) -> dict:
    """Per-layer values of one traced sample (run-level ones are added later)."""
    from gausslip import fractional, quadrature, semigroup

    busy, self_s, calls, counts = tracer.busy, tracer.self_s, tracer.calls, tracer.counts
    out = {
        "quadrature.halfline.calls": calls["quadrature.integrate_halfline"],
        "quadrature.halfline.nodes": counts["quadrature.halfline.nodes"],
        "quadrature.halfline.payload_values": counts["quadrature.halfline.payload_values"],
        "quadrature.halfline.busy_s": busy["quadrature.integrate_halfline"],
        "quadrature.halfline.self_s": self_s["quadrature.integrate_halfline"],
        "quadrature.halfline.convergence_errors": counts["quadrature.halfline.convergence_errors"],
        "quadrature.integrate_gaussian.busy_s": busy["quadrature.integrate_gaussian"],
        "quadrature.tensor_nodes.calls": calls["quadrature.tensor_nodes"],
        "quadrature.tensor_cache.size": len(quadrature._TENSOR_CACHE),
        "semigroup.integrand.busy_s": busy["semigroup.integrand"],
        "semigroup.ph_kernel_apply.points": counts["semigroup.ph_kernel_apply.points"],
        "semigroup.ph_kernel_apply.busy_s": busy["semigroup.ph_kernel_apply"],
        "semigroup.ph_kernel_apply.self_s": self_s["semigroup.ph_kernel_apply"],
        "semigroup.ou_kernel_apply.busy_s": busy["semigroup.ou_kernel_apply"],
        "semigroup.ph_subordination_apply.busy_s": busy["semigroup.ph_subordination_apply"],
        "semigroup.kernel_derivative_l1.busy_s": busy["semigroup.kernel_derivative_l1"],
        "hermite.project.busy_s": busy["hermite.project"],
        "hermite.eval_expansion.calls": calls["hermite.eval_expansion"],
        "hermite.eval_expansion.points": counts["hermite.eval_expansion.points"],
        "hermite.eval_expansion.busy_s": busy["hermite.eval_expansion"],
        "hermite.scale_by_level.calls": calls["hermite.scale_by_level"],
        "hermite.scale_by_level.busy_s": busy["hermite.scale_by_level"],
        "hermite.hermite_eval.points": counts["hermite.hermite_eval.points"],
        "hermite.hermite_eval.busy_s": busy["hermite.hermite_eval"],
        "lipschitz.sup_norm_estimate.calls": calls["lipschitz.sup_norm_estimate"],
        "lipschitz.sup_norm_estimate.busy_s": busy["lipschitz.sup_norm_estimate"],
        "lipschitz.seminorm_estimate.busy_s": busy["lipschitz.seminorm_estimate"],
        "lipschitz.seminorm_estimate.self_s": self_s["lipschitz.seminorm_estimate"],
        "lipschitz.operator_boundedness_probe.busy_s": busy["lipschitz.operator_boundedness_probe"],
        "fractional.apply_fractional.busy_s": busy["fractional.apply_fractional"],
        "fractional.apply_fractional.self_s": self_s["fractional.apply_fractional"],
        "fractional.integrand.busy_s": busy["fractional.integrand"],
        "forward_diff.forward_difference.calls": calls["forward_diff.forward_difference"],
        "forward_diff.forward_difference.busy_s": busy["forward_diff.forward_difference"],
        "forward_diff.cancellation_warnings": counts["forward_diff.cancellation_warnings"],
        "forward_diff.forward_difference_curve.calls": calls["forward_diff.forward_difference_curve"],
        "forward_diff.forward_difference_curve.busy_s": busy["forward_diff.forward_difference_curve"],
        "suites.rows_failed": counts["suites.rows_failed"],
        "suites.rows_flagged": counts["suites.rows_flagged"],
        "report.write_report.busy_s": busy["report.write_report"],
        "report.bytes": counts["report.bytes"],
        "cli.main.busy_s": busy["cli.main"],
        "trace.wall_s": result["wall_s"],
        "trace.client_s": result["wall_s"] - tracer.root_time(),
        # with client_s this accounts for trace.wall_s
        "trace.self_sum_s": sum(self_s.values()) + tracer.integrand_self_s,
        "trace.spans": len(tracer.spans),
    }
    for suite in SUITES:
        out[f"suites.{suite}.busy_s"] = busy[f"suites.{suite}"]
    for name, cached in (("semigroup.subordination_multiplier", semigroup._subordination_multiplier),
                         ("fractional.integral_eigenvalue", fractional._integral_eigenvalue)):
        out[name + ".lookups"], out[name + ".hit_ratio"] = _hit_ratio(cached)
    return out
