"""One sha256 per (seed, benchmark workload) over every operation's label and result.

``python tests/digest.py`` builds the ``perfbench`` workloads at seeds 1 and 2,
runs each workload's warm-up and then each operation once, in order, and prints
one line per (seed, workload): the seed, the workload's name and the sha256 of
its operations' labels and results.  A float is hashed as ``float.hex``, an
array elementwise, a dataclass by its fields and a raised exception by its type
and message, so two checkouts print equal lines only if every operation kept
its bits.  Run it in both checkouts and compare the output.
"""

import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # perfbench/ is read, never written

import numpy as np  # noqa: E402

import rssinfo  # noqa: E402
import rssinfo.cli  # noqa: E402,F401  (the workloads read rssinfo.cli; the package does not import it)
from workloads import BUILDERS  # noqa: E402

SEEDS = (1, 2)


def canonical(x):
    """``x`` as nested lists and strings that name its bits."""
    if isinstance(x, BaseException):
        return ["raised", type(x).__name__, str(x)]
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return ["array", list(x.shape), [canonical(v) for v in x.ravel().tolist()]]
    if isinstance(x, np.generic):
        return canonical(x.item())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__, [[f.name, canonical(getattr(x, f.name))] for f in dataclasses.fields(x)]]
    if isinstance(x, dict):
        return ["dict", [[canonical(k), canonical(v)] for k, v in x.items()]]
    if isinstance(x, (list, tuple)):
        return [type(x).__name__, [canonical(v) for v in x]]
    return repr(x)


def digest(name: str, seed: int) -> str:
    workload = BUILDERS[name](seed, rssinfo)
    workload.warmup()
    h = hashlib.sha256()
    for op in workload.ops:
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is hashed by what it raised
            result = exc
        h.update(repr([op.label, canonical(result)]).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    warnings.simplefilter("ignore")
    for seed in SEEDS:
        for name in BUILDERS:
            print(f"seed {seed} {name} {digest(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
