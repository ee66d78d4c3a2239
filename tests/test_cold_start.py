"""A cold start loads neither ``scipy`` nor ``jsonschema``, and a run does
not load ``numpy.ma``.

Each check runs in a fresh interpreter, since a module once imported stays
in ``sys.modules`` for the rest of the process.  The package depends on
numpy alone: the flow averages of an ``r-plus-cube`` action take the
package's own matrix exponential, and scenario documents are checked
against the shipped schema by the package itself.  So no run imports scipy
or jsonschema, and every gallery scenario also runs in an interpreter that
refuses to import scipy.  numpy loads ``numpy.ma`` on the first call of
``np.unique``, which costs a fresh process tens of milliseconds; no run
needs it.
"""

import json
import math
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints its findings as one JSON line; "scipy" is whether any scipy module
# is loaded, "jsonschema" whether jsonschema is, "numpy_ma" whether numpy.ma
# is.  The runs taken are named by
# the first argument: "flow" (the r-plus-cube scenarios), "non-flow" or "all".
LOADED = """
import sys

def loaded(top):
    return any(m == top or m.startswith(top + ".") for m in sys.modules)
"""

GALLERY_RUN = LOADED + """
import json, os, tempfile
from neveukit import cli, scenarios

which = sys.argv[1]
data = os.path.join(os.path.dirname(scenarios.__file__), "data")
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in scenarios.gallery_names():
        path = os.path.join(data, name + ".scn")
        with open(path, encoding="utf-8") as fh:
            kind = json.load(fh)["action"]["scheme"]["kind"]
        flow = "flow" if kind == "r-plus-cube" else "non-flow"
        if which in ("all", flow):
            out = os.path.join(tmp, name + ".json")
            codes[name] = cli.main(["run", "--scenario", path, "--out", out])
print(json.dumps({
    "codes": codes,
    "scipy": loaded("scipy"),
    "jsonschema": loaded("jsonschema"),
    "numpy_ma": loaded("numpy.ma"),
}))
"""

# a finder ahead of every other one on sys.meta_path that refuses scipy
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"no module named {name!r} here", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
"""

DOCUMENT_RUN = LOADED + """
import json
from neveukit import scenarios

doc = json.load(sys.stdin)
report = scenarios.run(scenarios.scenario_from_dict(doc, origin=doc["name"]))
text = scenarios.render(report, "report-json")
canonical = report.canonical_bytes()
print(json.dumps({
    "verdicts": report.data["verdicts"],
    "sizes": [len(text), len(canonical)],
    "scipy": loaded("scipy"),
    "jsonschema": loaded("jsonschema"),
    "numpy_ma": loaded("numpy.ma"),
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
    # every test here also finds jsonschema unloaded
    code = LOADED + (
        "import json, neveukit\n"
        "print(json.dumps([loaded('scipy'), loaded('jsonschema')]))"
    )
    assert fresh(code) == [False, False]


def test_non_flow_gallery_runs_leave_scipy_linalg_unloaded():
    found = fresh(GALLERY_RUN, "non-flow")
    assert len(found["codes"]) == 7
    assert set(found["codes"].values()) == {0}
    assert found["scipy"] is False
    assert found["jsonschema"] is False
    assert found["numpy_ma"] is False


def test_a_flow_run_passes_and_leaves_scipy_unloaded():
    found = fresh(GALLERY_RUN, "flow")
    assert found["codes"] == {"lindblad-rplus": 0}
    assert found["scipy"] is False
    assert found["jsonschema"] is False
    assert found["numpy_ma"] is False


def test_report_pipeline_of_a_heisenberg_document_leaves_scipy_linalg_unloaded():
    found = fresh(DOCUMENT_RUN, stdin=json.dumps(star_damping_doc()))
    assert found["verdicts"] == dict.fromkeys(
        ["decompose", "mean", "certify", "stochastic"], "pass"
    )
    assert min(found["sizes"]) > 0
    assert found["scipy"] is False
    assert found["jsonschema"] is False
    assert found["numpy_ma"] is False


def test_every_gallery_scenario_runs_where_scipy_cannot_be_imported():
    probe = REFUSE_SCIPY + (
        "import json\n"
        "try:\n"
        "    import scipy.linalg\n"
        "except ImportError:\n"
        "    print(json.dumps('refused'))\n"
    )
    assert fresh(probe) == "refused"
    found = fresh(REFUSE_SCIPY + GALLERY_RUN, "all")
    assert len(found["codes"]) == 8
    assert set(found["codes"].values()) == {0}
    assert found["scipy"] is False
