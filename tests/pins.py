"""Every bit-for-bit pin of the tests: one case table, one data file, one bar rule.

A case is a named callable returning its record, a dict of fields: float.hex
strings, counts, labels, bools or lists of them.  The pin tests compare each
case's record with its entry in pins.json, bit for bit.  ``python tests/pins.py``
recomputes every case, prints one line per moved field (``moves``) and rewrites
pins.json only if each moved field stays within its bar; a case new to the table
is added and one gone from it dropped.  Otherwise it writes nothing and exits 1.
A moved field with no bar names the table/case entry to delete from pins.json, so
that the next run records the case anew.
"""

import json
import math
import operator
import sys
from functools import cache, partial
from itertools import product
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # as pyproject's pythonpath does for pytest; tests, this file's directory, is already first
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from rssinfo import mc_oracle as mc
from rssinfo import measures
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential, Normal, Uniform, Weibull, parse_distribution
from rssinfo.measures import Design, kl_srs_vs_design, renyi
from rssinfo.order_stats import beta_order_pdf, order_stat_pdf
from rssinfo.quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    entropy_integral,
    integrate,
    integrate_full_line,
    integrate_half_line,
    integrate_unit,
)
from rssinfo.reports import DEFAULT_SCAN_FAMILIES, ScanGrid, run_conjecture_scan, run_errata_checks

PATH = Path(__file__).with_name("pins.json")


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def _quadrature(run) -> dict:
    r = run()
    return {"value": _hex(r.value), "error": _hex(r.error_estimate), "subdivisions": r.subdivisions_used, "converged": r.converged}


def _scan_cell(family: str, n: int, alpha: float) -> dict:
    """One record per DEFAULT_SCAN_MATRICES entry of the scan's (family, n, alpha) cell."""
    records = run_conjecture_scan(ScanGrid(families=(family,), ns=(n,), alphas=(alpha,)), DEFAULT_CONFIG).records
    fields = {k: [r[k] for r in records] for k in ("matrix", "converged")}
    return fields | {k: [r[k].hex() for r in records] for k in ("renyi_srs", "renyi_rss", "renyi_irss", "error_budget")}


def _engine_of(measure):
    """The one integrate_unit result a measure call makes."""
    seen = []
    with mock.patch.object(measures, "integrate_unit", lambda *a, **k: seen.append(integrate_unit(*a, **k)) or seen[-1]):
        measure()
    (r,) = seen
    return r


def _mc(estimate) -> dict:
    """Estimate and std_error at seeds 7 and 2024, with two blocks per component."""
    got = [estimate(mc.SimConfig(replications=mc._BLOCK + 1001, seed=seed)) for seed in (7, 2024)]
    return {"estimate": [g.estimate.hex() for g in got], "std_error": [g.std_error.hex() for g in got]}


IDENTITY_ROWS = ((64, 1), (64, 40), (65, 33), (65, 65))


def _identity_row(n: int, i: int) -> dict:
    """order_stat_pdf of exp:1 at four points, and sample_order_stat of norm:0,1 from default_rng(7), size 3."""
    draws = mc.sample_order_stat(Normal(), n, i, np.random.default_rng(7), size=3)
    return {"pdf": _hex(order_stat_pdf(Exponential(1.0), n, i, np.array([0.01, 0.5, 2.0, 6.0]))), "draws": _hex(draws)}


def _errata() -> dict:
    """(printed, corrected, oracle) of each errata row; the printed forms are computed in the report."""
    return {row["check"]: _hex([row["printed"], row["corrected"], row["oracle"]]) for row in run_errata_checks()}


_TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
_ENGINE = {
    "tight H(U(1:8))": lambda: entropy_integral(lambda u: beta_order_pdf(8, 1, u), Uniform.support, _TIGHT),
    "tight H(U(4:8))": lambda: entropy_integral(lambda u: beta_order_pdf(8, 4, u), Uniform.support, _TIGHT),
    "forced d_2": lambda: _engine_of(lambda: kl_srs_vs_design(Design("rss", 2), cfg=_TIGHT, force_numeric=True)),
    "vector renyi": lambda: _engine_of(lambda: renyi(Design("irss", 3, re.blend(3, 0.5)), parse_distribution("norm:0,1"), 2.0)),
    "25-split renyi": lambda: _engine_of(
        lambda: renyi(Design("irss", 2, re.two_by_two(0.7182)), parse_distribution("exp:0.00579263"), 0.2026)
    ),
    "direct with breaks": lambda: integrate(
        lambda x: np.stack([np.log(x), np.sqrt(x) * np.cos(3 * x)]), 0.0, 2.0, breaks=(0.5, 1.0, 1.5)
    ),
    "half line": lambda: integrate_half_line(lambda x: x**2 * np.exp(-x) / (1 + x), 1.0),
    "full line": lambda: integrate_full_line(lambda x: np.exp(-0.5 * x * x) * np.cos(x) ** 2),
    "x shannon": lambda: measures.shannon_x(re.blend(4, 0.5), parse_distribution("norm:0,1")),
    "tight x kl unif": lambda: measures.kl_srs_vs_design_x(Design("rss", 3), Uniform(), _TIGHT),
    "x kl weibull": lambda: measures.kl_srs_vs_design_x(re.blend(3, 0.5), parse_distribution("weibull:0.7,1")),
}
# a first call that converges or spends the budget is the result, with the bits the loop gave
_FIRST_CALL = {
    "scalar-converges": lambda: integrate(np.cos, 0.0, 1.0),
    "vector-converges": lambda: integrate(lambda x: np.stack([np.exp(x), x**2, np.sin(x)]), 0.0, 2.0, breaks=(0.5, 1.0)),
    "budget-spent": lambda: integrate(np.log, 0.0, 1.0, QuadratureConfig(max_subdivisions=3), breaks=(0.25, 0.5, 0.75)),
}
_WIDE = mc._NETWORK_MAX_N + 2  # ordered by numpy's row sort, not the network
_ZERO_ENTRIES = re.RankingErrorMatrix([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
_blend = lambda n: Design("irss", n, re.blend(n, 0.5))
# identity, uniform, blend and zero-entry rows; n = 2, 3 and above the network; all four families,
# standard and not; two blocks per component.  Any changed bit of the scoring fails
_MC = {
    "entropy-rss2-exp": lambda s: mc.mc_entropy(Design("rss", 2), Exponential(1.0), s),
    "entropy-srs3-weibull": lambda s: mc.mc_entropy(Design("srs", 3), Weibull(2.0, 1.0), s),
    "entropy-blend3-norm": lambda s: mc.mc_entropy(_blend(3), Normal(0.0, 1.0), s),
    "entropy-zero3-weibull": lambda s: mc.mc_entropy(Design("irss", 3, _ZERO_ENTRIES), Weibull(2.0, 1.0), s),
    "entropy-rss8-norm12": lambda s: mc.mc_entropy(Design("rss", _WIDE), Normal(1.0, 2.0), s),
    "renyi0.5-rss3-norm": lambda s: mc.mc_renyi(Design("rss", 3), Normal(0.0, 1.0), 0.5, s),
    "renyi2-blend8-exp": lambda s: mc.mc_renyi(_blend(_WIDE), Exponential(1.0), 2.0, s),
    "renyi2-srs2-weibull": lambda s: mc.mc_renyi(Design("srs", 2), Weibull(2.0, 1.0), 2.0, s),
    "renyi5-zero3-unif": lambda s: mc.mc_renyi(Design("irss", 3, _ZERO_ENTRIES), Uniform(), 5.0, s),
    "renyi5-rss2-exp2": lambda s: mc.mc_renyi(Design("rss", 2), Exponential(2.0), 5.0, s),
    "kl-srs3-zero3-norm": lambda s: mc.mc_kl(Design("srs", 3), Normal(0.0, 1.0), Design("irss", 3, _ZERO_ENTRIES), Normal(0.0, 1.0), s),
    "kl-rss8-srs8-exp": lambda s: mc.mc_kl(Design("rss", _WIDE), Exponential(1.0), Design("srs", _WIDE), Exponential(1.0), s),
    # equal laws, not one object: a -0.0 location and standard copies take the same-law path
    "kl-srs3-zero3-norm-equal-laws": lambda s: mc.mc_kl(
        Design("srs", 3), Normal(-0.0, 1.0), Design("irss", 3, _ZERO_ENTRIES), Normal(0.0, 3.0).standard(), s
    ),
    "kl-rss8-srs8-exp-equal-laws": lambda s: mc.mc_kl(
        Design("rss", _WIDE), Exponential(3.0).standard(), Design("srs", _WIDE), Exponential(1.0), s
    ),
    "kl-srs2-weibull-rss2-exp": lambda s: mc.mc_kl(Design("srs", 2), Weibull(2.0, 1.0), Design("rss", 2), Exponential(1.0), s),
    "kl-blend3-norm-rss3-norm0.5,2": lambda s: mc.mc_kl(_blend(3), Normal(0.0, 1.0), Design("rss", 3), Normal(0.5, 2.0), s),
}

# table -> case name -> callable returning the case's record
CASES = {
    "scan": {str(cell): partial(_scan_cell, *cell) for cell in product(DEFAULT_SCAN_FAMILIES, (2, 5, 8), (1.1, 10.0))},
    "engine": {name: partial(_quadrature, run) for name, run in _ENGINE.items()},
    "first_call": {name: partial(_quadrature, run) for name, run in _FIRST_CALL.items()},
    "mc": {name: partial(_mc, estimate) for name, estimate in _MC.items()},
    "identity_row": {f"{n}-{i}": partial(_identity_row, n, i) for n, i in IDENTITY_ROWS},
    "errata": {"rows": _errata},
}

# a field with a bar: the field holding it, and the bar of a move from its old to its new value:
# a quadrature value's old error plus its new one, and 4 combined standard errors of a Monte
# Carlo estimate, criterion 8's rule.  Bars and counts move freely; a converged may not turn
# False, and any other field, a value with no bar or a label, may not move
_BARS = {
    "value": ("error", operator.add),
    **dict.fromkeys(("renyi_srs", "renyi_rss", "renyi_irss"), ("error_budget", operator.add)),
    "estimate": ("std_error", lambda old, new: 4.0 * math.hypot(old, new)),
}
_FREE = {bar for bar, _ in _BARS.values()} | {"subdivisions"}


def _list(field) -> list:
    return field if isinstance(field, list) else [field]


def moves(old: dict, new: dict) -> list[tuple[str, bool]]:
    """(line, refused) for each field of ``old`` (table -> case -> record) that ``new`` moves,
    refused if the move leaves its bar."""
    out = []
    for table, cases in old.items():
        for name, was in cases.items():
            now = new.get(table, {}).get(name)
            if now is None:
                continue
            if now.keys() != was.keys() or any(len(_list(now[k])) != len(_list(was[k])) for k in was):
                out.append((f"{table} {name}: its fields changed shape", True))
                continue
            for field in was:
                for k, (a, b) in enumerate(zip(_list(was[field]), _list(now[field]))):
                    where = f"{table} {name} {field}[{k}]: {a} -> {b}"
                    if a == b:
                        continue
                    if field in _FREE:
                        out.append((f"{where}, moves freely", False))
                    elif field == "converged":
                        out.append((f"{where}, converged turned {b}", not b))
                    elif field not in _BARS:
                        out.append((f"{where}, a field with no bar: delete the {table}/{name} entry to re-record the case", True))
                    else:
                        bar_field, bar_of = _BARS[field]
                        bar = bar_of(float.fromhex(_list(was[bar_field])[k]), float.fromhex(_list(now[bar_field])[k]))
                        moved = abs(float.fromhex(b) - float.fromhex(a))
                        refused = not moved <= bar
                        verdict = "beyond" if refused else "within"
                        out.append((f"{where}, moved {moved:.3g} {verdict} its bar {bar:.3g} ({bar_field})", refused))
    return out


def dumps(pins: dict) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def record(path: Path = PATH, cases: dict = CASES) -> list[tuple[str, bool]]:
    """Recompute every case and write the records to ``path`` unless a move leaves its bar.
    Returns the ``moves``; a refused run leaves ``path`` as it was."""
    old = json.loads(path.read_text()) if path.exists() else {}
    new = {table: {name: case() for name, case in named.items()} for table, named in cases.items()}
    moved = moves(old, new)
    if not any(refused for _, refused in moved):
        path.write_text(dumps(new))
    return moved


def main(path: Path = PATH, cases: dict = CASES) -> int:
    """``record``, printing each move to stderr as "moved: " or "refused: " and its line; 1 if refused."""
    moved = record(path, cases)
    for line, refused in moved:
        print(f"{'refused' if refused else 'moved'}: {line}", file=sys.stderr)
    refused = any(r for _, r in moved)
    print(f"{path.name}: {'nothing written' if refused else 'recorded'}", file=sys.stderr)
    return 1 if refused else 0


@cache
def _stored() -> dict:
    return json.loads(PATH.read_text())


def stored(table: str, name: str) -> dict:
    return _stored()[table][name]


if __name__ == "__main__":
    sys.exit(main())
