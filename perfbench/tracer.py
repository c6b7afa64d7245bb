"""Spans and work counters around rssinfo's layers, installed from outside.

``Tracer.install`` replaces each layer's public functions with a wrapper that
records a span (name, start, end, parent span, operation id) and the layer's
work counts, under every name a module of the package binds them to
(``quadrature.integrate`` is also ``measures.integrate``, ``judged_pdf`` is
also bound in ``measures`` and ``mc_oracle``).  The integrand handed to the
quadrature engine is wrapped too, so its evaluation points are counted and
its time is charged to the module that defined it rather than to the engine.
``Tracer.uninstall`` puts every original back.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "measures", "closed_form", "quadrature", "order_stats", "distributions", "mc_oracle")

PUBLIC = {
    "cli": ("main", "build_parser", "parse_design", "parse_matrix", "run_conjecture_scan", "cmd_measure", "_emit"),
    "measures": (
        "shannon", "renyi", "renyi_gap_binomial", "kl_srs_vs_design", "kl_two_sample",
        "kld_symmetric", "a_n", "result_record",
    ),
    "closed_form": ("h_uniform_order", "k_direct", "k_recursive", "d_n", "psi_bound", "eta", "exp_shannon", "exp_renyi"),
    "quadrature": ("integrate", "integrate_half_line", "integrate_full_line", "integrate_support", "entropy_integral"),
    "order_stats": (
        "judged_pdf", "judged_beta_mixture_pdf", "order_stat_pdf", "order_stat_log_pdf",
        "beta_order_pdf", "beta_order_log_pdf",
    ),
    "mc_oracle": ("mc_entropy", "mc_renyi", "mc_kl", "vasicek_entropy", "sample_order_stat", "sample_judged"),
}
DIST_METHODS = ("pdf", "log_pdf", "cdf", "survival", "quantile", "pdf_at_quantile", "log_pdf_at_quantile")
JUDGED = {"judged_pdf", "judged_beta_mixture_pdf"}
KERNELS = {"order_stat_log_pdf", "beta_order_log_pdf"}  # the *_pdf forms call these


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._name_ids[name]

    def _boundary(self, layer: str) -> bool:
        """True when the innermost open span belongs to another layer."""
        return not self.stack or self.name_layer[self.name[self.stack[-1]]] != layer

    def _spanned(self, name: str, layer: str, fn, before=None, after=None):
        nid = self._name_id(name, layer)
        start, end, names, parents, ops, stack = self.start, self.end, self.name, self.parent, self.op, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._boundary(layer)
            if before is not None:
                args, kwargs = before(outer, args, kwargs)
            idx = len(start)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(outer, args, kwargs, result)
            return result

        wrapper._perfbench_traced = True
        return wrapper

    def _integrand(self, f, count_points: bool):
        """Span around an integrand, charged to the module that defined it."""
        if getattr(f, "_perfbench_traced", False) and not count_points:
            return f
        module = getattr(f, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith(self.pkg.__name__ + ".") else "bench"
        counts = self.counts

        def points(outer, args, kwargs):
            if count_points:
                counts["quadrature.integrand_points"] += int(np.size(args[0]))
            return args, kwargs

        return self._spanned(f"{layer}.integrand", layer, f, before=points)

    # -- per-layer hooks -----------------------------------------------------

    def _hooks(self, layer: str, fname: str):
        """(before, after) hooks that keep the layer's counts.  Calls are
        counted on entry, so a call that raises still counts."""
        c = self.counts

        def counted(name, outside_only=False):
            def before(outer, args, kwargs):
                c[name] += outer or not outside_only
                return args, kwargs

            return before

        before = after = None
        if layer == "quadrature":
            is_core = fname == "integrate"

            def before(outer, args, kwargs):
                c["quadrature.integrals"] += is_core
                if args and callable(args[0]):
                    args = (self._integrand(args[0], is_core),) + tuple(args[1:])
                return args, kwargs

            if is_core:
                default_cfg = self.pkg.quadrature.DEFAULT_CONFIG

                def after(outer, args, kwargs, res):
                    cfg = args[3] if len(args) > 3 else kwargs.get("cfg", default_cfg)
                    c["quadrature.subdivisions"] += res.subdivisions_used
                    c["quadrature.converged"] += bool(res.converged)
                    c["quadrature.budget_exhausted"] += res.subdivisions_used >= cfg.max_subdivisions

        elif layer == "order_stats":
            if fname in JUDGED:
                before = counted("order_stats.judged_calls")
            elif fname in KERNELS:
                before = counted("order_stats.kernel_calls")

        elif layer == "measures" and fname != "result_record":
            def before(outer, args, kwargs):
                c["measures.renyi_calls"] += fname == "renyi"
                c["measures.calls"] += outer
                return args, kwargs

            def after(outer, args, kwargs, res):
                c["measures.closed_form"] += outer and res.method == "closed-form"

        elif layer == "mc_oracle":
            sig = inspect.signature(getattr(self.pkg.mc_oracle, fname))
            default_sim = self.pkg.mc_oracle.SimConfig()

            def after(outer, args, kwargs, res):
                if not outer:
                    return
                bound = sig.bind(*args, **kwargs).arguments
                if fname in ("mc_entropy", "mc_renyi", "mc_kl"):
                    design = bound.get("design") or bound["design_x"]
                    c["mc_oracle.draws"] += bound.get("sim", default_sim).replications * design.n
                elif fname.startswith("sample_"):
                    size = bound.get("size")
                    c["mc_oracle.draws"] += 1 if size is None else int(size)

        elif layer in ("cli", "closed_form"):
            before = counted(f"{layer}.calls", outside_only=True)

        return before, after

    # -- install / uninstall -------------------------------------------------

    def _modules(self):
        return [self.pkg] + [getattr(self.pkg, m) for m in LAYERS]

    def install(self) -> None:
        modules = self._modules()
        for layer, fnames in PUBLIC.items():
            home = getattr(self.pkg, layer)
            for fname in fnames:
                orig = getattr(home, fname)
                before, after = self._hooks(layer, fname)
                wrapped = self._spanned(f"{layer}.{fname}", layer, orig, before, after)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        c = self.counts
        for cls in [self.pkg.distributions.Distribution, *self.pkg.distributions.Distribution.__subclasses__()]:
            for meth in DIST_METHODS:
                if meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]

                def count(outer, args, kwargs):
                    if outer:
                        c["distributions.calls"] += 1
                        c["distributions.points"] += int(np.size(args[1]))
                    return args, kwargs

                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._spanned(f"distributions.{cls.__name__}.{meth}", "distributions", orig, count))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        layers = sorted(set(self.name_layer))
        code_of_name = np.array([layers.index(layer) for layer in self.name_layer], dtype=np.int64)
        return dur, parent, layers, code_of_name[np.frombuffer(self.name, dtype=np.int32)]

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer, excluding time in child spans."""
        if not len(self.start):
            return {}
        dur, parent, layers, code = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        per_layer = np.bincount(code, weights=dur - child, minlength=len(layers))
        return dict(zip(layers, per_layer.tolist()))

    def inclusive_time(self, layer: str) -> float:
        """Seconds inside the outermost spans of ``layer``."""
        if layer not in self.name_layer:
            return 0.0
        dur, parent, layers, code = self._arrays()
        mine = layers.index(layer)
        parent_code = np.where(parent >= 0, code[np.maximum(parent, 0)], -1)
        return float(dur[(code == mine) & (parent_code != mine)].sum())

    def write(self, path, op_labels) -> None:
        """A '#' line naming each operation, then one tab-separated line per
        span: op, span, parent, name, start_us, end_us."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for k, label in enumerate(op_labels):
                out.write(f"# op {k}: {label}\n")
            out.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for idx in range(len(self.start)):
                out.write(
                    f"{self.op[idx]}\t{idx}\t{self.parent[idx]}\t{self.names[self.name[idx]]}\t"
                    f"{(self.start[idx] - t0) * 1e6:.1f}\t{(self.end[idx] - t0) * 1e6:.1f}\n"
                )
