"""Do one workload's set-up in a fresh interpreter, then exit.

``run.py`` times this script end to end, several times per run, to report
``setup_s``: interpreter start, importing the program and building the
workload's first inputs, which is what a user pays before any work starts.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <work-dir>``
"""

from __future__ import annotations

import os
import sys


def main(argv: list) -> int:
    workload, seed, work_dir = argv[0], int(argv[1]), argv[2]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import campaign_matrix, ga_bbr_stall

    modules = {ga_bbr_stall.NAME: ga_bbr_stall, campaign_matrix.NAME: campaign_matrix}
    modules[workload].setup(seed, work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
