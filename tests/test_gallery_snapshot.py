"""Gallery snapshot: every shipped scenario against recorded verdicts and numbers.

Verdicts and ranks must match exactly.  Decay points, the kappa of the
group-inverse certificate, projection residuals, the invariant-density
spectrum and the stochastic rows must match at rtol 1e-9 / atol 1e-12, so a
refactor cannot drift the numbers unseen.

The data file is written by running this module as a script from the
repository root:

    PYTHONPATH=src python tests/test_gallery_snapshot.py
"""

import json
import os

import numpy as np
import pytest

from neveukit.scenarios import gallery, gallery_names, run

SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data", "gallery_snapshot.json")
RTOL = 1e-9
ATOL = 1e-12


def snapshot(report):
    """The verdicts, ranks and key numbers of one report."""
    res = report.data["results"]
    out = {"verdicts": report.verdicts}
    if "invariant_density" in res["spectrum"]:
        out["invariant_density_spectrum"] = res["spectrum"]["invariant_density"]
    if "decompose" in res:
        dec = res["decompose"]
        out["decompose"] = {
            "verdicts": dec["verdicts"],
            "e1_ranks": dec["e1_ranks"],
            "e2_ranks": dec["e2_ranks"],
            "fixed_rank": dec["detail"]["fixed_rank"],
            "decay": dec["decay"],
            "slope": dec["slope"],
            "residuals": dec["detail"]["mean_residuals"],
            "cross_validation": dec["detail"]["cross_validation"],
        }
    if "mean" in res:
        mean = res["mean"]
        out["mean"] = {
            "rank": mean["rank"],
            "residuals": mean["residuals"],
            "cross_validation": mean["cross_validation"],
        }
    if "certify" in res:
        cert = res["certify"]
        out["certify"] = {
            "measure": {
                "verdict": cert["measure"]["verdict"],
                "n0": cert["measure"]["n0"],
                "rows": cert["measure"]["rows"],
            },
            "bau": {
                "verdict": cert["bau"]["verdict"],
                "witness_ranks": cert["bau"]["witness_ranks"],
                "tail": cert["bau"]["tail"],
            },
        }
    if "stochastic" in res:
        sto = res["stochastic"]
        out["stochastic"] = {
            "verdicts": sto["verdicts"],
            "burn_in": sto["burn_in"],
            "rows": sto["rows"],
            "bau_witness_ranks": sto["bau"]["witness_ranks"],
        }
    return out


def assert_matches(expected, actual, where="snapshot"):
    """Floats within RTOL/ATOL; everything else, and every shape, exactly."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert np.isclose(actual, expected, rtol=RTOL, atol=ATOL), (where, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, (where, actual, expected)


def _load():
    with open(SNAPSHOT_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_covers_the_gallery():
    assert sorted(_load()) == sorted(gallery_names())


@pytest.mark.parametrize("scenario", gallery(), ids=lambda sc: sc.name)
def test_gallery_matches_snapshot(scenario):
    expected = _load()[scenario.name]
    actual = json.loads(json.dumps(snapshot(run(scenario))))
    assert_matches(expected, actual, scenario.name)


if __name__ == "__main__":
    data = {sc.name: snapshot(run(sc)) for sc in gallery()}
    os.makedirs(os.path.dirname(SNAPSHOT_PATH), exist_ok=True)
    with open(SNAPSHOT_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")
