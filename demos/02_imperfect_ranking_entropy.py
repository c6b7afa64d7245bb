"""How ranking errors erode the information advantage of ranked set sampling.

For an exponential parent with set size 2 the sample entropy under imperfect
ranking has a closed form in the misranking probability p12.  As p12 moves
from 0 (perfect ranking) to 1/2 (coin-flip ranking) the entropy climbs from
the ranked-set value to the simple-random-sample value; the advantage is
fully erased at p12 = 1/2 and recovers symmetrically beyond it.
"""

from rssinfo import closed_form as cf
from rssinfo import ranking_error as re

h_srs = cf.exp_shannon(re.uniform(2), 1.0)
h_rss = cf.exp_shannon(re.identity(2), 1.0)
print(f"H(SRS) = {h_srs:.6f}  H(RSS) = {h_rss:.6f}  advantage = {h_srs - h_rss:.6f}\n")

print("p12     H(imperfect)   advantage retained")
for k in range(11):
    p12 = k / 10.0
    h = cf.exp_shannon(re.two_by_two(p12), 1.0)
    retained = (h_srs - h) / (h_srs - h_rss)
    print(f"{p12:4.2f}   {h:12.6f}   {retained:18.1%}")

print(
    "\nThe interpolation runs through eta(a), which is defined so that the"
    "\nimperfect entropy collapses to the ranked-set value at p12 = 0 and to"
    f"\nthe SRS value at p12 = 1/2 (eta(0) = {cf.eta(0.0)}, eta(0.5) = {cf.eta(0.5):.6f})."
)
