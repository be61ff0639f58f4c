"""Pure helpers of the RAT benchmark: percentile rule, ladder knee,
derived layer metrics, metric-name checks and run-to-run spread.

Nothing here touches processes, sockets or files; test_metrics.py
covers every function.
"""

import re
import statistics

# At least this many samples must lie beyond a reported percentile.
MIN_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def percentile_supported(samples, pct, min_beyond=MIN_BEYOND):
    """True when `samples` values leave at least `min_beyond` above `pct`."""
    return samples * (100.0 - pct) / 100.0 >= min_beyond


def achieved_ratio(step):
    """Achieved rate of one load step over the rate its Poisson schedule
    realized. The achieved rate also counts the drain of the last
    responses, so a short step reads a little below 1 even when the
    generator kept up."""
    return step["achieved_hz"] / step["offered_real_hz"]


def combine_parts(parts):
    """The fixed-rate step from its equal sub-steps: medians of the
    sub-steps' p50 and p99 (each sub-step supports its own p99), summed
    counts and the mean achieved ratio."""
    return {"p50_ms": statistics.median(p["p50_ms"] for p in parts),
            "p99_ms": statistics.median(p["p99_ms"] for p in parts),
            "samples": sum(p["samples"] for p in parts),
            "offered_real_hz": statistics.median(p["offered_real_hz"] for p in parts),
            "achieved_ratio": statistics.fmean(achieved_ratio(p) for p in parts)}


def step_failures(step):
    """Requests of one load step that failed: error answers and lost ones."""
    return step["errors"] + step["lost"]


def step_passes(step, p99_limit_ms, min_ratio):
    """A ladder step meets the workload's limit: no failures, no timeout,
    a p99 the sample supports and within the limit, and achieved close
    to offered."""
    return (step_failures(step) == 0
            and not step["timed_out"]
            and percentile_supported(step["samples"], 99.0)
            and step["p99_ms"] <= p99_limit_ms
            and achieved_ratio(step) >= min_ratio)


def knee(ladder, p99_limit_ms, min_ratio, base_hz):
    """Offered rate, as the step's schedule realized it, of the highest
    passing step of an ascending ladder that stopped at its first failing
    step. `base_hz` (the already validated fixed-rate step) is the knee
    when the first step fails."""
    best = base_hz
    for step in ladder:
        if not step_passes(step, p99_limit_ms, min_ratio):
            break
        best = step["offered_real_hz"]
    return best


def remainder_ms(p50_ms, eval_us):
    """What client latency spends outside the in-process evaluation:
    svc.server.transport_ms on direct_hot, svc.router.hop_ms on
    routed_cold."""
    return p50_ms - eval_us / 1000.0


def overhead_pct(traced, untraced):
    """Tracing overhead: traced over untraced end-to-end value, in %."""
    return 100.0 * (traced - untraced) / untraced


def stage_budget(self_us, stages, eval_us):
    """Sum of the stage self-time medians on the path and its share of
    the in-process round trip; the budget closes within 10%."""
    total = sum(self_us[s] for s in stages)
    closure = total / eval_us
    return {"sum_us": total, "eval_us": eval_us, "closure": closure,
            "closes": abs(closure - 1.0) <= 0.10}


def check_metric(name, unit):
    """Raise ValueError unless name and unit fit the benchmark's rules."""
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r} for {name}")


def check_metric_set(declared, reported):
    """`declared` maps names to units; `reported` maps names to
    {"value", "unit"}. Raise ValueError unless they match one to one."""
    for name, unit in declared.items():
        check_metric(name, unit)
    missing = sorted(set(declared) - set(reported))
    extra = sorted(set(reported) - set(declared))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, entry in reported.items():
        if entry["unit"] != declared[name]:
            raise ValueError(f"{name}: unit {entry['unit']} != {declared[name]}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name}: value {value!r} is not a number")


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
