"""Spurious retries of fault-free net downloads as the array grows.

Usage (from the root of a checkout)::

    python3 perfbench/net_retry_onset.py

Runs ``DOWNLOADS`` balanced downloads of ``ELL`` bits over the net
backend (task mode, chaos proxy with no faults, the client's default
0.5 s request timeout) for each ``n`` in ``NS`` and prints, per ``n``: retries per download (median,
min, max) and the download time's median and quartile spread.  On a
fault-free proxy every retry is spurious: the request timed out while
its answer was still on its way.  The README records the figures.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

ELL = 65536
NS = (8, 12, 16)
DOWNLOADS = 5
SEED = 1


def main() -> int:
    from perfbench.workloads import op_seed, use_short_socket_dir
    from repro.net import run_net_download

    use_short_socket_dir()
    print(f"ell={ELL}, {DOWNLOADS} downloads per n")
    print("n\tretries median [min, max]\ttime median s\ttime IQR/median")
    for n in NS:
        retries, walls = [], []
        for index in range(DOWNLOADS):
            start = time.perf_counter()
            result = run_net_download(n=n, ell=ELL,
                                      protocol="balanced",
                                      seed=op_seed(SEED, index),
                                      mode="task")
            walls.append(time.perf_counter() - start)
            retries.append(result.retries)
            if not result.download_correct:
                print(f"n={n} download {index} is wrong", file=sys.stderr)
                return 1
        quartiles = statistics.quantiles(walls, n=4)
        median = statistics.median(walls)
        print(f"{n}\t{statistics.median(retries)} [{min(retries)}, "
              f"{max(retries)}]\t{median:.3f}\t"
              f"{(quartiles[2] - quartiles[0]) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
