"""Only a flow loads ``scipy.linalg``.

Each check runs in a fresh interpreter, since a module once imported stays
in ``sys.modules`` for the rest of the process.  The package imports plain
``scipy``; its ``linalg`` subpackage is loaded on the first
``scipy.linalg`` lookup, which only the matrix exponentials of an
``r-plus-cube`` action make.
"""

import json
import math
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints its findings as one JSON line; "linalg" is whether scipy.linalg is loaded
GALLERY_RUN = """
import json, os, sys, tempfile
from neveukit import cli, scenarios

flow = sys.argv[1] == "flow"
data = os.path.join(os.path.dirname(scenarios.__file__), "data")
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in scenarios.gallery_names():
        path = os.path.join(data, name + ".scn")
        with open(path, encoding="utf-8") as fh:
            kind = json.load(fh)["action"]["scheme"]["kind"]
        if (kind == "r-plus-cube") == flow:
            out = os.path.join(tmp, name + ".json")
            codes[name] = cli.main(["run", "--scenario", path, "--out", out])
print(json.dumps({"codes": codes, "linalg": "scipy.linalg" in sys.modules}))
"""

DOCUMENT_RUN = """
import json, sys
from neveukit import scenarios

doc = json.load(sys.stdin)
report = scenarios.run(scenarios.scenario_from_dict(doc, origin=doc["name"]))
text = scenarios.render(report, "report-json")
canonical = report.canonical_bytes()
print(json.dumps({
    "verdicts": report.data["verdicts"],
    "sizes": [len(text), len(canonical)],
    "linalg": "scipy.linalg" in sys.modules,
}))
"""


def fresh(code, *args, stdin=None):
    """The JSON last line printed by ``code`` in a fresh interpreter that
    imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def star_damping_doc():
    """Heisenberg star amplitude damping on M_3 + C, damping 1/2."""
    s = math.sqrt(0.5)
    zero = [[0.0, 0.0]] * 3

    def entry(v):
        return [v, 0.0]

    k0 = [[entry(1.0), entry(0.0), entry(0.0)],
          [entry(0.0), entry(s), entry(0.0)],
          [entry(0.0), entry(0.0), entry(s)]]
    k1 = [[entry(0.0), entry(s), entry(0.0)], zero, zero]
    k2 = [[entry(0.0), entry(0.0), entry(s)], zero, zero]
    # the C summand is fixed: K_0 = 1 there and the other operators vanish
    operators = [[k0, [[entry(1.0)]]], [k1, [[entry(0.0)]]], [k2, [[entry(0.0)]]]]
    return {
        "schema_version": "1.0",
        "name": "star-damping-M3+C",
        "algebra": {"blocks": [3, 1], "weights": [0.25, 0.25], "normalized": True},
        "action": {
            "picture": "heisenberg",
            "scheme": {"kind": "zplus-box", "d": 1},
            "generators": [{"source": "kraus", "payload": {"operators": operators}}],
        },
        "tasks": ["decompose", "mean", "certify", "stochastic"],
        "schedule": [1, 2, 4, 8, 16, 32, 64],
        "seed": 0,
    }


def test_import_leaves_scipy_linalg_unloaded():
    code = "import json, sys, neveukit\nprint(json.dumps('scipy.linalg' in sys.modules))"
    assert fresh(code) is False


def test_non_flow_gallery_runs_leave_scipy_linalg_unloaded():
    found = fresh(GALLERY_RUN, "non-flow")
    assert len(found["codes"]) == 7
    assert set(found["codes"].values()) == {0}
    assert found["linalg"] is False


def test_report_pipeline_of_a_heisenberg_document_leaves_scipy_linalg_unloaded():
    found = fresh(DOCUMENT_RUN, stdin=json.dumps(star_damping_doc()))
    assert found["verdicts"] == dict.fromkeys(
        ["decompose", "mean", "certify", "stochastic"], "pass"
    )
    assert min(found["sizes"]) > 0
    assert found["linalg"] is False


def test_a_flow_run_passes_and_loads_scipy_linalg():
    found = fresh(GALLERY_RUN, "flow")
    assert found["codes"] == {"lindblad-rplus": 0}
    assert found["linalg"] is True
