"""Run one workload in this (fresh) process and print its result as JSON.

Started by run.py, never imported.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (--trace 0): warm up, then make a fixed number of whole passes over
the workload's operations, set by S and the workload alone (``pass_count``), and
report the end-to-end figures from each call's best time over the passes.
Times are process CPU time, scaled by the host's speed next to each call
(``hostspeed``).
Traced (--trace 1): make each call twice, once untraced and once with spans
installed, right after each other; report per-layer figures and the
difference in CPU time between the two as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"  # traced runs write their spans here
# Seconds of one pass, roughly, on the baseline host.  A run makes
# max(1, S // PASS_S) passes (at S = 20: one of scan and tight, two of
# queries and crosscheck), whatever the speed of the host or the program, so
# every run and every commit uses the same estimator.
PASS_S = {"scan": 15.0, "tight": 18.0, "queries": 8.0, "crosscheck": 9.0}
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import rssinfo  # noqa: E402
import rssinfo.cli  # noqa: E402,F401  (not imported by the package itself)
from tracer import Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def timed(op):
    clock = time.process_time
    t = clock()
    try:
        res = op.run()
    except Exception as exc:  # an operation that raises is a measured outcome
        res = exc
    return clock() - t, res


def run_pass(ops):
    """Time every operation; returns [(scaled CPU seconds, result)].

    A short burst of ``hostspeed``'s fixed loop runs before the first call
    and after each one.  Each call's time is scaled by the mean of the bursts
    in the narrowest window of calls around it whose other calls took at
    least as long as it did (or the whole pass): next to a call of
    milliseconds, that is the bursts on either side of it; for a call of
    seconds, the bursts of the seconds around it.
    """
    times, results = [], []
    bursts = [hostspeed.burst()]
    for op in ops:
        dt, res = timed(op)
        times.append(dt)
        results.append(res)
        bursts.append(hostspeed.burst())
    done = np.concatenate(([0.0], np.cumsum(times)))  # CPU seconds before each call
    out = []
    for i, dt in enumerate(times):
        lo, hi = i, i + 1  # calls lo..hi-1, between bursts lo..hi
        while done[hi] - done[lo] < 2 * dt and (lo > 0 or hi < len(times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        out.append((dt * hostspeed.REFERENCE_S / float(np.mean(bursts[lo:hi + 1])), results[i]))
    return out


def run_paired(ops, tracer):
    """Each call untraced and traced, one right after the other, in turn
    first; returns (untraced results, traced results, untraced CPU seconds,
    traced CPU seconds)."""
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for k, op in enumerate(ops):
        tracer.op_id = k
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
                try:
                    dt, res = timed(op)
                finally:
                    tracer.uninstall()
                traced.append((dt, res))
                traced_s += dt
            else:
                dt, res = timed(op)
                plain.append((dt, res))
                plain_s += dt
    return plain, traced, plain_s, traced_s


def judge(ops, passes):
    """Outcomes of every operation of every pass, plus failed gate messages."""
    outcomes, gates = [], []
    first = None
    for results in passes:
        judged = [op.judge(res) for op, (_, res) in zip(ops, results)]
        if first is None:
            first = judged
        else:
            gates.extend(
                f"result differs between passes over the same inputs: {op.label}"
                for op, now, before in zip(ops, judged, first)
                if [o.value for o in now] != [o.value for o in before]
            )
        for js in judged:
            outcomes.extend(js)
            gates.extend(o.gate for o in js if o.gate)
    return outcomes, gates


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    return s[-11], 100.0 * (len(s) - 10) / len(s), 10


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def end_to_end(ops, passes):
    # Every pass runs the same calls, so each call's best time over the
    # passes (seconds apart) is its time with the least interference left.
    best = [min(results[k][0] for results in passes) for k in range(len(ops))]
    lat = [dt / op.points for dt, op in zip(best, ops) for _ in range(op.points)]
    value, pct, beyond = tail(lat)
    return {
        "ops_per_s": len(lat) / sum(best),
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_tail_ms": 1e3 * value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(lat),
    }


def per_layer(tracer, points, untraced_s, traced_s):
    c = tracer.counts
    self_s = tracer.self_times()
    s = lambda layer: self_s.get(layer, 0.0)
    integrals, subdivs = c["quadrature.integrals"], c["quadrature.subdivisions"]
    mc_time = tracer.inclusive_time("mc_oracle")
    return {
        "quadrature.integrals": integrals,
        "quadrature.subdivisions": subdivs,
        "quadrature.integrand_points": c["quadrature.integrand_points"],
        "quadrature.budget_exhausted": c["quadrature.budget_exhausted"],
        "quadrature.converged_ratio": c["quadrature.converged"] / integrals if integrals else 0.0,
        "quadrature.self_s": s("quadrature"),
        "quadrature.us_per_subdiv": 1e6 * s("quadrature") / subdivs if subdivs else 0.0,
        "quadrature.us_per_integral": 1e6 * s("quadrature") / integrals if integrals else 0.0,
        "order_stats.judged_calls": c["order_stats.judged_calls"],
        "order_stats.kernel_calls": c["order_stats.kernel_calls"],
        "order_stats.self_s": s("order_stats"),
        "distributions.calls": c["distributions.calls"],
        "distributions.points": c["distributions.points"],
        "distributions.self_s": s("distributions"),
        "measures.calls": c["measures.calls"],
        "measures.closed_form_ratio": c["measures.closed_form"] / c["measures.calls"] if c["measures.calls"] else 0.0,
        "measures.self_s": s("measures"),
        "closed_form.calls": c["closed_form.calls"],
        "closed_form.self_s": s("closed_form"),
        "cli.calls": c["cli.calls"],
        "cli.self_s": s("cli"),
        "cli.renyi_calls_per_point": c["measures.renyi_calls"] / points,
        "mc_oracle.draws": c["mc_oracle.draws"],
        "mc_oracle.draws_per_s": c["mc_oracle.draws"] / mc_time if mc_time else 0.0,
        "mc_oracle.self_s": s("mc_oracle"),
        "trace.ops": points,
        "trace.spans": len(tracer.start),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    warnings.simplefilter("ignore")

    wl = BUILDERS[args.workload](args.seed, rssinfo)
    wl.warmup()
    ops = wl.ops
    points = sum(op.points for op in ops)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "calls_per_pass": len(ops),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        tracer = Tracer(rssinfo)
        plain, traced, untraced_s, traced_s = run_paired(ops, tracer)
        runs = [plain, traced]
        result["layers"] = per_layer(tracer, points, untraced_s, traced_s)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path, [op.label for op in ops])
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        hostspeed.burst()  # the first burst in a process runs cold
        t = time.perf_counter()
        runs = [run_pass(ops) for _ in range(pass_count(args.workload, args.seconds))]
        result["measured_s"] = time.perf_counter() - t
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(end_to_end(ops, runs))
    outcomes, gates = judge(ops, runs)
    n = len(outcomes)
    result.update(
        passes=len(runs),
        attempted=n,
        failed=sum(o.error for o in outcomes),
        error_frac=sum(o.error for o in outcomes) / n,
        nonconverged_frac=sum(o.nonconverged for o in outcomes) / n,
        wrong_frac=sum(o.wrong for o in outcomes) / n,
        gates=gates[:20],
        gate_count=len(gates),
    )
    print(json.dumps(result), file=sys.__stdout__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
