"""Print the set-up time of one workload, measured in this fresh process.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>

Set-up is ``import serwalk`` plus building the workload's inputs; the
scratch directory it makes is removed again.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import workloads

if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=out))
    try:
        _, seconds = workloads.setup(sys.argv[1], int(sys.argv[2]), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(seconds))
