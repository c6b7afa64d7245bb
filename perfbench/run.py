"""rssinfo benchmark launcher.

    python3 perfbench/run.py --workload scan|tight|queries|crosscheck|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/rssinfo``.  Each
workload runs in its own fresh worker process, serially, with BLAS and OpenMP
threads capped at the number of cores.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass; the last line of standard output is always one JSON object.  What the
workloads are and why is in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "tight", "queries", "crosscheck")
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 160

# Time from a fresh interpreter to the first result: import the package,
# build the parser, answer one closed-form query.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); from rssinfo import cli; cli.build_parser(); "
    "sys.exit(cli.main(['measure', 'shannon', '--design', 'rss:2', '--dist', 'exp:1']))"
)

END_TO_END = (  # name, unit, how it is shown
    ("setup_s", "s", "median of {setup_runs} fresh processes"),
    ("ops_per_s", "ops/s", "{samples} operations per pass, best time of each over {passes} pass(es) ({measured_s:.2f} s wall)"),
    ("op_p50_ms", "ms", ""),
    ("op_tail_ms", "ms", "p{tail_percentile:.2f}: {tail_beyond} of {samples} samples beyond"),
    ("error_frac", "ratio", "raised, or exit 2/3"),
    ("nonconverged_frac", "ratio", "converged: False, or exit 3"),
    ("wrong_frac", "ratio", "converged but refuted by a reference"),
    ("peak_rss_mb", "MB", "worker process, whole run"),
)
# A reported metric must never read 0 (a bound relative to a median of 0 is
# meaningless), so each failure share is reported as the share of operations
# that did not fail that way.
SHARES = {"completed_frac": "error_frac", "converged_frac": "nonconverged_frac", "not_wrong_frac": "wrong_frac"}
LAYER_UNITS = {"self_s": "s", "us_per_subdiv": "us", "us_per_integral": "us", "draws_per_s": "1/s",
               "converged_ratio": "ratio", "closed_form_ratio": "ratio", "renyi_calls_per_point": "ratio",
               "untraced_s": "s", "traced_s": "s", "overhead_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(env) -> list[float]:
    """CPU seconds of fresh-process set-ups; the first one (compiling
    bytecode) is discarded.  They are not scaled by the host's speed: how
    long an import takes does not follow ``hostspeed``'s loop."""
    times = []
    for k in range(SETUP_RUNS + 1):
        t = child_cpu_s()
        rc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        dt = child_cpu_s() - t
        if rc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {rc.stderr.decode(errors='replace')[-400:]}")
        if k:
            times.append(dt)
    return times


def run_workload(name, args, env) -> dict:
    setup = measure_setup(env) if not args.trace else None
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    res = json.loads(lines[-1])
    if setup is not None:
        res["setup_s"] = statistics.median(setup)
        res["setup_runs"] = len(setup)
    return res


def report(res, args, cores) -> dict:
    env = res["env"]
    print(f"== {res['workload']}  seed={args.seed} seconds={args.seconds} trace={args.trace}  "
          f"(nproc={cores}, Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']})")
    calls = (f"each of {res['calls_per_pass']} calls untraced and traced" if args.trace else
             f"{res['passes']} pass(es) of {res['calls_per_pass']} calls")
    print(f"   {calls}; attempted {res['attempted']}, failed {res['failed']}; "
          f"correct: {'yes' if not res['gate_count'] else 'NO'}")
    for msg in res["gates"]:
        print(f"   check failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics = {}
        for name, value in res["layers"].items():
            unit = LAYER_UNITS.get(name.split(".", 1)[1], "count")
            metrics[name] = {"value": value, "unit": unit}
            print(f"   {name:30s} {value:14.6g} {unit}")
        print(f"   spans written to {res['spans_file']}")
        return metrics
    for name, unit, note in END_TO_END:
        print(f"   {name:18s} {res[name]:14.6g} {unit:6s} {note.format(**res)}")
    metrics = {name: {"value": res[name], "unit": unit} for name, unit, _ in END_TO_END if name in
               ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
    for share, frac in SHARES.items():
        metrics[share] = {"value": 1.0 - res[frac], "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rssinfo" / "__init__.py").is_file():
        print(f"error: no rssinfo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    cores = len(os.sched_getaffinity(0))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        try:
            res = run_workload(name, args, env)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = report(res, args, cores)
        summary[name] = {"correct": not res["gate_count"], "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": metrics}
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
