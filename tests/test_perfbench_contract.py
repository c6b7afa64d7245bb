"""The benchmark's tracer (perfbench/tracer.py) wraps rssinfo's public
functions by name and reads the quadrature result's fields, and its workloads
(perfbench/workloads.py) call the package's public API.  A refactor that drops
a name or changes those fields breaks ``perfbench/run.py``; these tests catch
it without running the benchmark, reading perfbench/ and changing nothing there."""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np

import rssinfo
import rssinfo.cli  # noqa: F401  (the tracer wraps cli names; the package does not import cli)
from rssinfo.distributions import Exponential
from rssinfo.measures import Design, renyi, shannon
from rssinfo.quadrature import QuadratureConfig, integrate

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _perfbench_module("tracer")


def test_every_traced_name_exists():
    tracer = _tracer_module()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.PUBLIC.items()
        for name in names
        if not callable(getattr(getattr(rssinfo, layer), name, None))
    ]
    assert not missing


def test_integrate_result_fields_the_tracer_reads():
    for f in (lambda u: u * u, lambda u: np.stack([u, u * u])):
        res = integrate(f, 0.0, 1.0)
        assert type(res.converged) is bool
        assert type(res.subdivisions_used) is int


def test_measure_result_fields_the_judges_read(monkeypatch):
    # workloads._converged counts a result with neither field as converged, so a rename would pass unseen
    design, law = Design("rss", 3), Exponential(1.0)
    closed, numeric = shannon(design, law), shannon(design, law, force_numeric=True)
    assert (closed.method, numeric.method) == ("closed-form", "quadrature")
    for res in (closed, numeric):
        assert type(res.converged) is bool
        assert type(res.subdivisions_used) is int
    monkeypatch.syspath_prepend(str(_PERFBENCH))  # workloads imports its references module by name
    workloads = _perfbench_module("workloads")
    starved = shannon(design, law, QuadratureConfig(max_subdivisions=1), force_numeric=True)
    assert workloads._converged(numeric) is True
    assert workloads._converged(starved) is False


def test_traced_measure_runs_and_counts():
    tracer = _tracer_module().Tracer(rssinfo)
    tracer.install()
    try:
        res = renyi(Design("rss", 3), Exponential(1.0), 2.0, force_numeric=True)
    finally:
        tracer.uninstall()
    assert res.converged
    assert tracer.counts["quadrature.integrals"] == 1
    assert tracer.counts["quadrature.integrand_points"] > 0
    assert not hasattr(rssinfo.quadrature.integrate, "_perfbench_traced")  # uninstalled


def test_traced_monte_carlo_counts_its_draws():
    # the tracer's mc_oracle hook binds ``design`` or ``design_x`` by name and reads its ``n``
    mc, law, rss = rssinfo.mc_oracle, Exponential(1.0), Design("rss", 3)
    sim = mc.SimConfig(replications=10_000, seed=1)
    tracer = _tracer_module().Tracer(rssinfo)
    tracer.install()
    try:
        entropy = mc.mc_entropy(rss, law, sim)
        kl = mc.mc_kl(design_x=Design("srs", 3), dist_f=law, design_y=rss, dist_g=law, sim=sim)
    finally:
        tracer.uninstall()
    assert math.isfinite(entropy.estimate) and math.isfinite(kl.estimate)
    assert tracer.counts["mc_oracle.draws"] == 2 * sim.replications * rss.n


def test_tracer_wraps_the_cached_parser(capsys):
    cli = rssinfo.cli
    cached, parser = cli.build_parser, cli.build_parser()
    tracer = _tracer_module().Tracer(rssinfo)
    tracer.install()
    try:
        assert cli.build_parser is not cached
        for _ in range(2):
            assert cli.main(["measure", "shannon", "--design", "rss:2", "--dist", "exp:1"]) == cli.EXIT_OK
        assert cli.build_parser() is parser  # the wrapper still runs the cached parser
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("cli.main") == 2
    assert tracer.counts["cli.calls"] == 3  # the two main calls and the direct build_parser call
    assert spans.count("cli.build_parser") == 3  # main reaches the wrapped name
    assert spans.count("cli.cmd_measure") == 2  # and dispatches to the wrapped command
    assert cli.build_parser is cached
    assert cli.build_parser() is parser


def _label_kind(label: str) -> str:
    """An operation label up to its first digit: 'tight H(U(', 'tight d_',
    'measure kl --design rss:', 'crosscheck renyi irss:', 'vasicek uniform n='."""
    return re.split(r"\d", label, maxsplit=1)[0]


def test_every_workload_builds_warms_up_and_runs_one_op_of_each_kind(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))  # workloads imports its references module by name
    workloads = _perfbench_module("workloads")
    for name, build in workloads.BUILDERS.items():
        workload = build(1, rssinfo)
        workload.warmup()
        first = {}
        for op in workload.ops:
            first.setdefault(_label_kind(op.label), op)
        for kind, op in first.items():
            outcomes = op.judge(op.run())
            assert outcomes, (name, op.label)
            assert not any(o.error or o.gate for o in outcomes), (name, op.label, outcomes)
