"""Set-up probe: import pldlab and build one run's inputs, then exit.

    python3 perfbench/probe.py <seed> <directory>

The benchmark times whole probe processes to measure set-up time.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(int(sys.argv[1]), Path(sys.argv[2]), workloads.GROUPS)
