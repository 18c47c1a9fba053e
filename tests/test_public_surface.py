"""Guards for the public surface that code outside the package relies on."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramseylab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_traced_names_exist():
    # bench/tracer.py wraps these functions by name; a missing one breaks --trace 1
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"ramseylab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ramseylab.{layer}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(ramseylab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
