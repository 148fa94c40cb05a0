"""The quick demos run to completion; demo 04's output is pinned.

Demo 04 prints congestion costs read at single edge ids from the cost
models' arrays over a small open map, so its exact output guards those
numbers. Demos 06 and 07 run full simulations for 15-20 s each and are
left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted(ROOT.glob("demos/0[1-5]_*.py"))

DEMO_04_OUTPUT = """\
edge            unit  p_v2  c_e  fcost
(11, 12)           1     1    1      3
(12, 11)           1     1    1      3
(12, 13)           1     1    0      2
(10, 11)           1     1    0      2

execution history with decay gamma = 0.9:
  after a congested window: pcost(11->12) = 4.000
  after 10 quiet windows:   pcost(11->12) = 4.000
  (the W/N ratio survives decay; fresh observations dominate mixes)
  after one wait-free pass: pcost(11->12) = 2.157
"""


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_quick_demos_are_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("04_"):
        assert proc.stdout == DEMO_04_OUTPUT
