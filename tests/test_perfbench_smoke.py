"""The benchmark's own smoke test, run against this checkout's library, so a
library change that breaks `perfbench/` fails here and not only when the
benchmark runs. It takes a few seconds and leaves `perfbench/out/` behind."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_test_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke_test.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke test passed" in proc.stdout
