"""numpy is imported by the numeric apps that compute with it, and nowhere
else: a process that imports the package surface (the API, the experiment
registry with every app, the service, the CLI) and runs no numeric app never
loads it.  It is checked in a fresh interpreter, since the test session
itself has long loaded numpy.  The dependency is declared, as the ``apps``
extra, and CI installs it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import repro.api, repro.experiments, repro.serve, repro.cli
print("numpy" in sys.modules)
from repro.api import Session
report = Session(app="jacobi").run()
print("numpy" in sys.modules, report.app_correct, report.consistent)
"""


def test_numpy_loads_with_the_first_numeric_app():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split("\n") == ["False", "True True True", ""]


def test_numpy_is_the_apps_extra_and_ci_installs_it():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^apps = \["numpy"\]$', pyproject, re.MULTILINE)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    installs = re.findall(r"pip install -e (\S+)", ci)
    assert installs and set(installs) == {".[dev,apps]"}
