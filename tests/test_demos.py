"""Each demo prints what it printed when its golden file was recorded.

A demo runs as a user runs it, ``python -W error demos/<name>.py`` with the
package on the path, and its stdout must equal ``tests/golden/<name>.txt``.
The one value that differs between runs, a report's ``wall_time_ms``, is
masked on both sides.  To re-record a golden file after a deliberate
change of a demo's output, run the demo the same way and mask that line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"
_WALL_TIME = re.compile(r'("wall_time_ms": )\d+')


def masked(text: str) -> str:
    return _WALL_TIME.sub(r"\1<masked>", text)


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_matches_its_golden_file(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert masked(done.stdout) == (GOLDEN / f"{demo.stem}.txt").read_text()
