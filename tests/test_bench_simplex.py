"""benchmarks/bench_simplex.py: the kernel digest runs from a bare checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_simplex.py"


def test_digest_runs_on_the_checkout_sources(tmp_path):
    # no PYTHONPATH and another working directory: the script finds the
    # package itself. Hashes are not pinned, since BLAS bits can depend
    # on the CPU.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--digest"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    total = [re.fullmatch(r"digest [0-9a-f]{64} \((\d+) kernel calls\)", ln) for ln in lines]
    total = [int(match[1]) for match in total if match]
    groups = [re.fullmatch(r"  \S.*\S +[0-9a-f]{64} \((\d+) kernel calls\)", ln) for ln in lines]
    groups = [int(match[1]) for match in groups if match]
    assert len(total) == 1 and len(groups) == 4
    assert sum(groups) == total[0] > 0
