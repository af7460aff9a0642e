import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
# sha256 of each demo's stdout; a change to any printed number must update it on purpose
DIGESTS = json.loads((REPO / "tests" / "reports" / "demo_digests.json").read_text(encoding="utf-8"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(demo):
    src = str(REPO / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == DIGESTS[demo.stem]
