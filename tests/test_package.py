"""The package's entry points and the public names its modules export."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wicklab
from wicklab.cli import main

SRC = Path(wicklab.__file__).resolve().parents[1]
MODULES = ["wicklab", *(m.name for m in pkgutil.walk_packages(wicklab.__path__, "wicklab."))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_python_dash_m_runs_the_command_line(capsys):
    argv = ["all", "--quick", "--seed", "42"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wicklab", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    reports = [json.loads(proc.stdout), json.loads(capsys.readouterr().out)]
    for rep in reports:
        del rep["wall_time_s"]
    assert reports[0] == reports[1]
