"""Scanning the alpha > 1 Renyi ordering — and finding a counterexample.

For 0 < alpha < 1 the ordering H_a(RSS) <= H_a(imperfect RSS) <= H_a(SRS) is
provable.  For alpha > 1 only the conjectured ordering is available, so the
package ships a grid scanner.  On most of the grid the ordering holds, but
for a skewed parent at large alpha with moderate misranking the upper
inequality genuinely fails: the imperfectly ranked sample carries MORE Renyi
entropy of high order than the simple random sample.  The scan reports such
points as violations (and the CLI exits with code 4).
"""

from rssinfo import reports
from rssinfo.quadrature import QuadratureConfig

grid = reports.ScanGrid(
    families=("unif", "exp:1"),
    ns=(2, 3),
    alphas=(1.5, 2.0, 5.0, 10.0),
    matrices=("identity", "blend=0.5", "uniform"),
)
report = reports.run_conjecture_scan(grid, QuadratureConfig())

print(f"{len(report.records)} grid points scanned, {len(report.violations)} violations\n")
print("dist    n  alpha  matrix      lower margin  upper margin")
for rec in report.records:
    flag = " <-- upper ordering violated" if rec["margin_irss_srs"] < -1e-9 else ""
    print(
        f"{rec['dist']:<7s}{rec['n']:<3d}{rec['alpha']:<7g}{rec['matrix']:<12s}"
        f"{rec['margin_rss_irss']:>12.6f}{rec['margin_irss_srs']:>14.6f}{flag}"
    )

print(
    "\nEvery violation sits on the upper inequality; the lower one"
    "\n(H_a(RSS) <= H_a(imperfect)) held at every point ever scanned."
    "\nThe exponential / alpha >= 5 violations are real, not numerical:"
    "\nthey are confirmed by an independent Monte Carlo oracle."
)
