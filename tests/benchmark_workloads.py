"""The benchmark's document generators, perfbench/workloads.py, loaded for
the tests that run its documents, and the paths they need."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")


def workloads():
    """The benchmark's document generators, read from perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
