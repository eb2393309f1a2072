"""Metric names, units and how the per-layer values come out of a traced pass.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; the smoke test
checks that the two agree.  ``QUALITY`` lists the end-to-end quality
metrics that are printed beside the timed ones but are not gated, because
they are 0 or undefined on some workloads and move with the seed.
"""

from __future__ import annotations

from spans import LAYERS

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

QUALITY = (
    ("failed_ops_ratio", "1"),
    ("violation_ratio", "1"),
    ("tightness_log10", "1"),
    ("mc_rel_stderr", "1"),
    ("crossing_t_mean", "steps"),
)

CLI_FLAVORS = (
    "exact_ar1", "gauss_affine", "projected", "sliced_gauss", "generic",
    "generic_diag", "sliced_generic", "parallel", "empirical_mean",
)
CLI_EXIT_CODES = (0, 2, 3, 4, 5, 6)

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("sim.paths_s", "s", "lower"),
    ("sim.stationary_s", "s", "lower"),
    ("sim.path_draws", "count", "lower"),
    ("sim.stationary_draws", "count", "lower"),
    ("sim.truncation_T", "steps", "lower"),
    ("sim.draws_per_s", "1/s", "higher"),
    ("sim.kept_bytes", "bytes", "lower"),
    ("wasserstein.sliced_s", "s", "lower"),
    ("wasserstein.sorted_values", "count", "lower"),
    ("wasserstein.sort_values_per_s", "1/s", "higher"),
    ("wasserstein.gaussian_w2_s", "s", "lower"),
    ("wasserstein.gaussian_w2_calls", "count", "lower"),
    ("bounds.report_s", "s", "lower"),
    ("bounds.reports", "count", "lower"),
    ("bounds.us_per_report", "us", "lower"),
    ("bounds.law_at_s", "s", "lower"),
    ("bounds.search_steps", "count", "lower"),
    ("linalg.star_norm_s", "s", "lower"),
    ("linalg.star_norm_calls", "count", "lower"),
    ("linalg.stationary_cov_s", "s", "lower"),
    ("linalg.eigen_s", "s", "lower"),
    ("linalg.schur_residual_max", "1", "lower"),
    ("model.build_s", "s", "lower"),
    ("model.json_roundtrip_s", "s", "lower"),
    ("model.moment_s", "s", "lower"),
    ("model.moment_calls", "count", "lower"),
    ("stability.verdict_s", "s", "lower"),
    ("stability.calls", "count", "lower"),
    ("asymptotics.jordan_s", "s", "lower"),
    ("asymptotics.jordan_calls", "count", "lower"),
    ("asymptotics.lyapunov_s", "s", "lower"),
    ("cli.stability_s", "s", "lower"),
    ("cli.bounds_s", "s", "lower"),
    ("cli.validate_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    *((f"cli.bounds.{f}_s", "s", "lower") for f in CLI_FLAVORS),
    ("cli.rows_out", "count", "higher"),
    ("cli.bytes_out", "bytes", "lower"),
    *((f"cli.exit_{c}", "count", "higher" if c == 0 else "lower") for c in CLI_EXIT_CODES),
    ("cli.uncaught", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_values(tracer, extra_counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_s``.

    A layer the workload never calls reads 0.
    """
    span = tracer.totals()
    counts = dict(tracer.counts)
    counts.update(extra_counts)

    def s(name):
        return span.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    sim_s = s("sim.paths") + s("sim.stationary")
    out = {
        "sim.paths_s": s("sim.paths"),
        "sim.stationary_s": s("sim.stationary"),
        "sim.path_draws": c("sim.path_draws"),
        "sim.stationary_draws": c("sim.stationary_draws"),
        "sim.truncation_T": c("sim.truncation_T"),
        "sim.draws_per_s": _ratio(c("sim.path_draws") + c("sim.stationary_draws"), sim_s),
        "sim.kept_bytes": c("sim.kept_bytes"),
        "wasserstein.sliced_s": s("wasserstein.sliced"),
        "wasserstein.sorted_values": c("wasserstein.sorted_values"),
        "wasserstein.sort_values_per_s": _ratio(
            c("wasserstein.sorted_values"), s("wasserstein.sliced")
        ),
        "wasserstein.gaussian_w2_s": s("wasserstein.gaussian_w2"),
        "wasserstein.gaussian_w2_calls": c("wasserstein.gaussian_w2_calls"),
        "bounds.report_s": s("bounds.report"),
        "bounds.reports": c("bounds.reports"),
        "bounds.us_per_report": 1e6 * _ratio(s("bounds.report"), c("bounds.reports")),
        "bounds.law_at_s": s("bounds.law_at"),
        "bounds.search_steps": c("bounds.search_steps"),
        "linalg.star_norm_s": s("linalg.star_norm"),
        "linalg.star_norm_calls": c("linalg.star_norm_calls"),
        "linalg.stationary_cov_s": s("linalg.stationary_cov"),
        "linalg.eigen_s": s("linalg.eigen"),
        "linalg.schur_residual_max": c("linalg.schur_residual_max"),
        "model.build_s": s("model.build"),
        "model.json_roundtrip_s": s("model.json_roundtrip"),
        "model.moment_s": s("model.moment"),
        "model.moment_calls": c("model.moment_calls"),
        "stability.verdict_s": s("stability.verdict"),
        "stability.calls": c("stability.calls"),
        "asymptotics.jordan_s": s("asymptotics.jordan"),
        "asymptotics.jordan_calls": c("asymptotics.jordan_calls"),
        "asymptotics.lyapunov_s": s("asymptotics.lyapunov"),
        "cli.stability_s": s("cli.stability"),
        "cli.bounds_s": sum(v for k, v in span.items() if k.startswith("cli.bounds.")),
        "cli.validate_s": s("cli.validate"),
        "cli.simulate_s": s("cli.simulate"),
        "cli.rows_out": c("cli.rows_out"),
        "cli.bytes_out": c("cli.bytes_out"),
        "cli.uncaught": c("cli.uncaught"),
    }
    for f in CLI_FLAVORS:
        out[f"cli.bounds.{f}_s"] = s(f"cli.bounds.{f}")
    for code in CLI_EXIT_CODES:
        out[f"cli.exit_{code}"] = c(f"cli.exit_{code}")
    for layer, value in tracer.layer_self_times().items():
        out[f"{layer}.self_s"] = value
    return out
