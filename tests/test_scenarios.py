import copy
import dataclasses
import gc
import json
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmark_workloads import SRC, WORKLOADS, workloads
from neveukit import neveu, scenarios
from neveukit.algebra import trace
from neveukit.cli import build_parser, main
from neveukit.dynamics import SemigroupAction, _square
from neveukit.maps import SuperOperator
from neveukit.neveu import mean_ergodic_projection
from neveukit.scenarios import (
    GALLERY_NAMES,
    PAYLOAD_KEYS,
    Report,
    ScenarioError,
    emit,
    gallery,
    gallery_names,
    load_report,
    load_scenario,
    render,
    run,
    scenario_from_dict,
)


def two_summand_star_doc(seed=1):
    """Star amplitude damping on M_4 + M_4, whose blocks no Kraus operator
    couples: two uncoupled summands."""
    rng = np.random.default_rng(seed)
    return workloads().star_damping_doc("M4+M4", [4, 4], [1 / 8, 1 / 8], rng)


def base_doc():
    """A minimal valid amplitude-damping scenario document."""
    g = 0.5
    k0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.sqrt(1 - g), 0.0]]]
    k1 = [[[0.0, 0.0], [np.sqrt(g), 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return {
        "schema_version": "1.0",
        "name": "damping-test",
        "algebra": {"blocks": [2], "weights": [0.5], "normalized": True},
        "action": {
            "picture": "heisenberg",
            "scheme": {"kind": "zplus-box", "d": 1},
            "generators": [{"source": "kraus", "payload": {"operators": [[k0], [k1]]}}],
        },
        "tasks": ["decompose"],
        "schedule": [1, 2, 4, 8, 16, 32, 64],
        "seed": 3,
    }


def noncommuting_doc():
    doc = base_doc()
    doc["name"] = "noncommuting-test"
    swap = [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]
    doc["action"]["scheme"]["d"] = 2
    doc["action"]["generators"].append(
        {"source": "conjugation", "payload": {"unitary": swap}}
    )
    return doc


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_valid_document_loads():
    sc = scenario_from_dict(base_doc())
    assert sc.name == "damping-test"
    assert sc.algebra.blocks == (2,)
    assert sc.tasks == ["decompose"]


def test_schema_error_names_field_path():
    doc = base_doc()
    del doc["algebra"]["weights"]
    with pytest.raises(ScenarioError, match="algebra"):
        scenario_from_dict(doc)


def test_schema_rejects_unknown_keys():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_schema_rejects_bad_picture():
    doc = base_doc()
    doc["action"]["picture"] = "interaction"
    with pytest.raises(ScenarioError, match="picture"):
        scenario_from_dict(doc)


def test_schema_validator_is_built_once(monkeypatch):
    """The schema file is read on the first validation only, and a bad
    document gets the same message before and after a valid one."""
    from neveukit import scenarios

    reads = []
    data_root = scenarios._data_root
    monkeypatch.setattr(scenarios, "_data_root", lambda: reads.append(1) or data_root())
    scenarios._validator.cache_clear()
    bad = base_doc()
    bad["action"]["picture"] = "interaction"
    messages = []
    for doc in (bad, base_doc(), bad):
        try:
            scenario_from_dict(doc)
        except ScenarioError as exc:
            messages.append(str(exc))
    assert len(reads) == 1
    assert len(messages) == 2 and messages[0] == messages[1]


GALLERY_DOCS = [scenarios._gallery_doc(name) for name in GALLERY_NAMES]
# replacement values: every JSON type, edge numbers, strings the schema's
# enums and pattern accept and reject, empty and nonempty containers
MUTANTS = [None, True, False, 0, -1, 1, 7, 1.0, 0.0, -0.0, 2.5, -1.5,
           float("nan"), float("inf"), float("-inf"), "", "x", "1.x", "2.0",
           "heisenberg", "kraus", "mean", [], {}, [1], [0.5, 2], ["mean"],
           {"kind": "zplus-box"}, {"a": 1}]
EXTRA_KEYS = ["zz", "aa", "Name", "tasks", "kind"]


@pytest.fixture(scope="module")
def reference_validator():
    """jsonschema's validator of the shipped schema, the oracle of the
    package's own check; jsonschema is needed by this test only."""
    jsonschema = pytest.importorskip("jsonschema")
    with (scenarios._data_root() / "scenario.schema.json").open() as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def _doc_paths(node, path=()):
    """Every path into a scenario document; a payload is one leaf."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "payload":
                yield path + (key,)
            else:
                yield from _doc_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _doc_paths(value, path + (i,))


def _mutant(data):
    """A gallery document with one to three values replaced, keys or items
    deleted, or extra keys added."""
    doc = copy.deepcopy(data.draw(st.sampled_from(GALLERY_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_doc_paths(doc))
        # half the time a path of the top two levels, where the few scalar
        # fields would otherwise be drawn rarely
        if data.draw(st.booleans()):
            paths = [p for p in paths if len(p) <= 2]
        path = data.draw(st.sampled_from(paths))
        op = data.draw(st.sampled_from(["replace", "delete", "extra"]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else doc
        # half the time a value of the same type, which the keywords on
        # values (pattern, minimum, enum, ...) see
        like = [v for v in MUTANTS if type(v) is type(target)] or MUTANTS
        value = copy.deepcopy(data.draw(st.sampled_from(like) | st.sampled_from(MUTANTS)))
        if op == "extra" and isinstance(target, dict):
            target[data.draw(st.sampled_from(EXTRA_KEYS))] = value
        elif not path:
            doc = value
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_schema_errors_match_jsonschema(reference_validator, data):
    """Every schema error of a mutated gallery document, in order, and the
    message of the first, are byte-identical to jsonschema's."""
    doc = _mutant(data)
    expected = sorted(
        reference_validator.iter_errors(doc), key=lambda e: list(e.absolute_path)
    )
    found = sorted(scenarios._validator()(doc), key=lambda e: e[0])
    assert found == [(tuple(e.absolute_path), e.message) for e in expected]
    if expected:
        where = "/".join(map(str, expected[0].absolute_path)) or "<root>"
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc, origin="mutant")
        assert str(exc.value) == f"mutant: at {where}: {expected[0].message}"


def test_schema_with_an_unsupported_keyword_is_refused(tmp_path, monkeypatch):
    """A schema keyword the package does not implement fails the build of
    the validator, not a later check."""
    with (scenarios._data_root() / "scenario.schema.json").open() as fh:
        schema = json.load(fh)
    schema["properties"]["seed"] = {"oneOf": [{"type": "integer"}, {"type": "null"}]}
    (tmp_path / "scenario.schema.json").write_text(json.dumps(schema))
    monkeypatch.setattr(scenarios, "_data_root", lambda: tmp_path)
    scenarios._validator.cache_clear()
    try:
        with pytest.raises(NotImplementedError, match="oneOf"):
            scenarios._validator()
    finally:
        scenarios._validator.cache_clear()


def test_kernel_row_sum_error_names_row():
    doc = base_doc()
    doc["algebra"] = {"blocks": [1, 1], "weights": [0.5, 0.5], "normalized": True}
    doc["action"]["generators"] = [
        {"source": "classical-kernel", "payload": {"kernel": [[0.9, 0.6], [0.0, 1.0]]}}
    ]
    with pytest.raises(ScenarioError, match="row 0"):
        scenario_from_dict(doc)


def test_schedule_must_be_ascending():
    # a repeated point is rejected too: schedules are strictly ascending
    for schedule in ([1, 4, 2], [1, 1, 2, 4]):
        doc = base_doc()
        doc["schedule"] = schedule
        with pytest.raises(ScenarioError, match="ascending|increasing"):
            scenario_from_dict(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_entries_rejected_with_json_path(bad):
    doc = base_doc()
    doc["algebra"] = {"blocks": [1, 1], "weights": [0.5, 0.5], "normalized": True}
    doc["action"]["generators"] = [
        {"source": "classical-kernel", "payload": {"kernel": [[bad, 0.0], [0.0, 1.0]]}}
    ]
    with pytest.raises(ScenarioError, match=r"action\.generators\[0\]\.kernel\[0\]\[0\]: .*finite"):
        scenario_from_dict(doc)
    # the imaginary half of a [re, im] pair is checked as well
    doc = base_doc()
    doc["action"]["generators"][0]["payload"]["operators"][1][0][1][0] = [0.0, bad]
    with pytest.raises(ScenarioError, match=r"operators\[1\]\.block0\[1\]\[0\]: .*finite"):
        scenario_from_dict(doc)
    # tolerances and trace weights: the schema rejects -inf, NaN and +inf
    # are caught after it (a weight even when "normalized" is not declared)
    for key in ("eps", "decay_tol"):
        doc = base_doc()
        doc["tolerances"] = {key: bad}
        with pytest.raises(ScenarioError, match=rf"tolerances[./]{key}"):
            scenario_from_dict(doc)
    doc = base_doc()
    doc["algebra"] = {"blocks": [2], "weights": [bad]}
    with pytest.raises(ScenarioError, match="algebra.*(finite|minimum)"):
        scenario_from_dict(doc)


_NUMBER = (
    st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, 2**53 + 1, 2**63])
)
_COMPLEX_PAIR = st.tuples(_NUMBER, _NUMBER).map(list)
_BAD_ENTRY = st.sampled_from(
    [float("nan"), float("-inf"), [0.0, float("inf")], "1", None, [1.0], [1, 2, 3], {}]
)
_ENTRIES = {
    "numbers": _NUMBER,
    "pairs": _COMPLEX_PAIR,
    "mixed": _NUMBER | _COMPLEX_PAIR,
    "bad": _NUMBER | _COMPLEX_PAIR | _BAD_ENTRY,
}


@st.composite
def _payload_matrices(draw):
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(_ENTRIES[kind]) for _ in range(m)] for _ in range(n)]
    if kind == "bad" and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))].append(draw(_NUMBER))
    return rows


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(rows=_payload_matrices())
@example(rows=[[[-0.0, 1.0], [0.0, -0.0]], [[-0.0, -2.0], [True, 3]]])
@example(rows=[[True, False, -0.0, 2]])
@example(rows=[[1.0, [-0.0, 1.0]], [[2, 0], -0.0]])
@example(rows=[[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0]]])
@example(rows=[[1.0, 2.0], [3.0, float("nan")]])
def test_decode_matrix_is_bitwise_the_entry_walk(rows):
    """One np.array call decodes a payload matrix bitwise as the per-entry
    walk does, and a bad one fails with the walk's message."""

    def outcome(decode):
        try:
            mat = decode(rows, "kernel")
        except ScenarioError as exc:
            return str(exc)
        assert mat.dtype == complex
        return mat.shape, mat.tobytes()

    assert outcome(scenarios._decode_matrix) == outcome(scenarios._decode_entries)


def test_unnormalized_weights_rejected():
    doc = base_doc()
    doc["algebra"]["weights"] = [0.7]
    with pytest.raises(ScenarioError, match="normali"):
        scenario_from_dict(doc)


def test_generator_shape_mismatch_reports_both_shapes():
    doc = base_doc()
    doc["action"]["generators"] = [
        {
            "source": "matrix",
            "payload": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        }
    ]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_load_scenario_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.scn"
    path.write_text("")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/never.scn")


def test_flow_generator_requires_continuous_scheme():
    doc = base_doc()
    doc["action"]["generators"] = [
        {
            "source": "flow-generator",
            "payload": {"matrix": [[[0.0, 0.0]] * 4 for _ in range(1)][0]},
        }
    ]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "payload",
    [
        {"operatorz": [[[[1.0, 0.0]]]]},
        {"operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
         "operatorz": []},
    ],
)
def test_payload_takes_exactly_its_source_key(tmp_path, capsys, payload):
    doc = base_doc()
    doc["action"]["generators"][0]["payload"] = payload
    with pytest.raises(ScenarioError, match=r"action\.generators\[0\]\.payload"):
        scenario_from_dict(doc)
    assert main(["run", "--scenario", write_doc(tmp_path, doc)]) == 2
    assert "action.generators[0].payload" in capsys.readouterr().err


def test_shipped_scenarios_use_one_payload_key_per_generator():
    for sc in gallery():
        for spec in sc.raw["action"]["generators"]:
            assert set(spec["payload"]) == {PAYLOAD_KEYS[spec["source"]]}


def test_cli_scenario_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b'{"name": "caf\xe9\xff"}')
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_run_produces_passing_report():
    report = run(scenario_from_dict(base_doc()))
    assert report.passed
    dec = report.data["results"]["decompose"]
    assert dec["e1_ranks"] == [1]
    assert dec["e2_ranks"] == [1]
    assert report.data["scenario_name"] == "damping-test"


def test_decompose_mean_certify_share_one_schrodinger_projection(monkeypatch):
    doc = base_doc()
    doc["tasks"] = ["decompose", "mean", "certify"]
    sc = scenario_from_dict(doc)
    (s,) = sc.action.to_picture("schrodinger").matrices
    density_g = s - np.eye(4)
    shapes, matches = [], []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        matches.append(a.shape == (4, 4) and np.allclose(a, density_g, atol=1e-15))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = run(sc)
    assert report.passed
    # one SVD of the density-picture G = S - 1 for the single generator:
    # decompose and certify share the Schroedinger projection, mean reads
    # its dual, and every other SVD is of a 2 x 2 algebra block
    assert shapes.count((4, 4)) == sum(matches) == 1
    assert set(shapes) <= {(4, 4), (2, 2)}


def near_degenerate_kernel_doc(tasks):
    """A two-state kernel whose second eigenvalue 1 - 1e-7 lies within a
    tol_fixed of 1e-6 of 1, so the mean projection fails its residuals."""
    eps = 5e-8
    doc = base_doc()
    doc["algebra"] = {"blocks": [1, 1], "weights": [0.5, 0.5], "normalized": True}
    doc["action"]["generators"] = [
        {
            "source": "classical-kernel",
            "payload": {"kernel": [[1 - eps, eps], [eps, 1 - eps]]},
        }
    ]
    doc["tasks"] = tasks
    doc["tolerances"] = {"tol_fixed": 1e-6}
    return doc


@pytest.mark.parametrize(
    "tasks", [["stochastic"], ["decompose", "stochastic"], ["mean", "stochastic"]]
)
def test_stochastic_uses_the_scenario_tol_fixed(tasks):
    report = run(scenario_from_dict(near_degenerate_kernel_doc(tasks)))
    errors = {report.data["results"][t]["error"] for t in tasks}
    assert set(report.verdicts.values()) == {"fail"}
    assert len(errors) == 1
    assert "projector residuals above 1e-9" in errors.pop()


def test_decompose_and_mean_record_the_density_projection_error():
    """A Heisenberg mean task reads the density-picture projection of the
    run context, so when that raises, it records the decomposition's error."""
    report = run(scenario_from_dict(near_degenerate_kernel_doc(["decompose", "mean"])))
    results = report.data["results"]
    assert report.verdicts == {"decompose": "fail", "mean": "fail"}
    assert results["decompose"] == results["mean"]
    assert results["mean"]["error_type"] == "MeanErgodicValidationError"
    assert "projector residuals above 1e-9" in results["mean"]["error"]


def test_a_failed_projection_is_computed_once_and_its_error_kept(monkeypatch):
    """The run context keeps the error of its failed mean projection: one
    computation, and every task that needs it records the same error."""
    tasks = ["decompose", "mean", "certify", "stochastic"]
    calls = []
    original = neveu.mean_ergodic_projection

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(neveu, "mean_ergodic_projection", counting)
    report = run(scenario_from_dict(near_degenerate_kernel_doc(tasks)))
    results = report.data["results"]
    assert len(calls) == 1
    assert report.verdicts == dict.fromkeys(tasks, "fail")
    errors = {(results[t]["error"], results[t]["error_type"]) for t in tasks}
    assert len(errors) == 1
    error, error_type = errors.pop()
    assert error_type == "MeanErgodicValidationError"
    assert "projector residuals above 1e-9" in error


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"decay_tol": float("nan"), "eps": float("nan")}, "eps"),
        ({"tol_fixed": float("inf")}, "tol_fixed"),
        ({"delta": float("-inf")}, "delta"),
    ],
)
def test_run_rejects_nonfinite_tolerance_overrides(overrides, key):
    sc = next(s for s in gallery() if s.name == "amplitude-damping")
    with pytest.raises(
        ScenarioError, match=f"amplitude-damping: tolerances.{key}: must be finite"
    ):
        run(sc, tolerances=overrides)


def test_run_is_deterministic_modulo_wall_clock():
    sc = scenario_from_dict(base_doc())
    r1 = run(sc)
    r2 = run(sc)
    assert r1.canonical_bytes() == r2.canonical_bytes()
    # wall clock is present but excluded from the canonical form
    assert "wall_clock_s" in r1.data["meta"]


def test_run_seed_changes_echo_only_not_verdicts():
    # on M_3 in a rotated basis, level 2 decays (with loss) into a conserved
    # M_2 corner, so invariant densities vary with the initial one and the
    # spectral work rounds: a random density drawn from the seed would move
    # the numbers
    w, _ = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3) * (2.0 + 1.0j))
    kraus = [np.diag([1.0, 1.0, np.sqrt(0.4)]), np.zeros((3, 3))]
    kraus[1][0, 2] = np.sqrt(0.5)
    doc = base_doc()
    doc["algebra"] = {"blocks": [3], "weights": [1 / 3], "normalized": True}
    doc["action"]["generators"][0]["payload"]["operators"] = [
        [[[[z.real, z.imag] for z in row] for row in w @ k @ w.conj().T]] for k in kraus
    ]
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    sc = scenario_from_dict(doc)
    r1 = run(sc, seed=11)
    r2 = run(sc, seed=12)
    assert r1.passed
    assert r1.verdicts == r2.verdicts
    assert r1.data["seed"] == 11
    assert r2.data["seed"] == 12
    # no run draws from the seed: the reports differ in that field alone
    masked = [Report({**r.data, "seed": None}).canonical_bytes() for r in (r1, r2)]
    assert masked[0] == masked[1]


def test_run_reports_the_support_margin_of_the_invariant_density():
    """On every gallery scenario with an invariant density Y, the cutoff of
    support(Y) lies below the smallest eigenvalue of Y that e1 keeps and at
    or above the largest it drops, which is null exactly when Y is faithful;
    without an invariant density the margin is null."""
    for sc in gallery():
        report = run(sc)
        dec = report.data["results"]["decompose"]
        margin = dec["detail"]["support_margin"]
        lam = report.data["results"]["spectrum"]["invariant_density"]
        cutoff = margin["cutoff"]
        kept = [v for v in lam if v > cutoff]
        assert margin["kept_min"] == min(kept) > cutoff, sc.name
        assert len(kept) == sum(dec["e1_ranks"]), sc.name
        if sum(dec["e2_ranks"]) == 0:
            assert margin["dropped_max"] is None, sc.name
        else:
            assert cutoff >= margin["dropped_max"] == max(v for v in lam if v <= cutoff)
    doc = base_doc()
    doc["algebra"] = {"blocks": [1, 1], "weights": [0.5, 0.5], "normalized": True}
    leak = {"kernel": [[0.25, 0.25], [0.25, 0.25]]}
    doc["action"]["generators"] = [{"source": "classical-kernel", "payload": leak}]
    report = run(scenario_from_dict(doc))
    assert report.verdicts == {"decompose": "pass"}
    dec = report.data["results"]["decompose"]
    assert dec["invariant_density"] is None
    assert dec["detail"]["support_margin"] is None


def test_run_noncommuting_records_failure_and_continues():
    sc = scenario_from_dict(noncommuting_doc())
    report = run(sc)
    assert not report.passed
    assert report.verdicts["decompose"] == "fail"
    assert "error" in report.data["results"]["decompose"]


def test_run_decay_matches_geometric_formula():
    report = run(scenario_from_dict(base_doc()))
    decay = dict(
        (int(a), float(n)) for a, n in report.data["results"]["decompose"]["decay"]
    )
    g = 0.5
    for a, norm in decay.items():
        want = (1.0 - (1.0 - g) ** a) / (a * g)
        assert abs(norm - want) <= 1e-10


def test_run_all_tasks_on_one_scenario():
    doc = base_doc()
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    report = run(scenario_from_dict(doc))
    assert report.passed
    for task in doc["tasks"]:
        assert task in report.data["results"]


def test_run_schedule_override_is_echoed():
    sc = scenario_from_dict(base_doc())
    report = run(sc, schedule=[1, 2, 4])
    assert report.data["schedule"] == [1, 2, 4]
    decay = report.data["results"]["decompose"]["decay"]
    assert [int(a) for a, _ in decay] == [1, 2, 4]


# ---------------------------------------------------------------------------
# emission and reloading
# ---------------------------------------------------------------------------


def test_emit_report_json_round_trips(tmp_path):
    report = run(scenario_from_dict(base_doc()))
    out = tmp_path / "r.json"
    emit(report, "report-json", out)
    again = load_report(out)
    assert again.canonical_bytes() == report.canonical_bytes()


def decode_element(algebra, blocks):
    return algebra.operator([scenarios._unpack(m) for m in blocks])


def test_emitted_mean_factors_rebuild_the_projector(tmp_path):
    """E(y) = sum_i tau(psi_i y) x_i from the fixed and dual bases of a
    reloaded report equals the projection of the scenario's action."""
    for sc in gallery():
        out = tmp_path / f"{sc.name}.json"
        emit(run(sc), "report-json", out)
        report = load_report(out)
        assert report.data["schema_version"] == "2.0"
        mean = report.data["results"]["mean"]
        algebra = sc.algebra
        units = [algebra.from_vec(u) for u in np.eye(algebra.dim)]
        rebuilt = np.zeros((algebra.dim, algebra.dim), dtype=complex)
        for x, psi in zip(mean["fixed_basis"], mean["dual_basis"], strict=True):
            x, psi = decode_element(algebra, x), decode_element(algebra, psi)
            row = [trace(psi @ u) for u in units]
            rebuilt += np.outer(x.vec(), row)
        want = mean_ergodic_projection(sc.action).superop.matrix
        assert np.linalg.norm(rebuilt - want, "fro") <= 1e-12
        assert mean["factor_residual"] <= 1e-12


def test_run_dualises_a_heisenberg_action_once(monkeypatch):
    """Every task of a run reads the one density picture of the context:
    one dual() builds a new action, and the density picture gives back the
    scenario's action."""
    doc = base_doc()
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    sc = scenario_from_dict(doc)
    calls = []
    dual = SemigroupAction.dual

    def counting_dual(self):
        out = dual(self)
        if out._origin is self:
            calls.append(self.picture)
        return out

    monkeypatch.setattr(SemigroupAction, "dual", counting_dual)
    assert run(sc).passed
    assert calls == ["heisenberg"]


def test_heisenberg_run_computes_one_mean_projection(monkeypatch):
    """The Heisenberg mean task reads the dual of the run's density-picture
    projection instead of computing its own."""
    doc = base_doc()
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    sc = scenario_from_dict(doc)
    calls = []
    project = neveu.mean_ergodic_projection

    def counting_projection(action, **kwargs):
        calls.append(action.picture)
        return project(action, **kwargs)

    monkeypatch.setattr(neveu, "mean_ergodic_projection", counting_projection)
    assert run(sc).passed
    assert calls == ["schrodinger"]


def test_heisenberg_run_scans_each_picture_for_summands_once(monkeypatch):
    """The split into uncoupled summands is cached on each action: a
    Heisenberg run of every task scans the density picture once, though the
    projection and the fixed space both read the split, and its own action
    not at all: the dual projection of this discrete scheme bounds its
    residuals on the whole matrices (a flow's takes its scale per summand),
    and no spectrum is taken per summand."""
    (sc,) = [s for s in gallery() if s.name == "classical-transient-chain"]
    scans = []
    scan = SemigroupAction._scan_summands

    def counting_scan(self):
        scans.append(self.picture)
        return scan(self)

    monkeypatch.setattr(SemigroupAction, "_scan_summands", counting_scan)
    report = run(sc)
    assert {"decompose", "mean", "certify", "stochastic"} <= set(report.data["results"])
    assert scans == ["schrodinger"]
    assert len(sc.action._summands()) == 2


def test_heisenberg_run_dualises_the_mean_projection_once(monkeypatch):
    """The Heisenberg mean task reads one dual of the density-picture
    projection; the decomposition's wandering verdict reads the factors of
    E and takes none."""
    from neveukit import maps, scenarios

    sources = []

    def counting_dual(s):
        sources.append(s.source)
        return maps.dual(s)

    monkeypatch.setattr(neveu, "dual", counting_dual)
    monkeypatch.setattr(scenarios, "dual", counting_dual)
    for tasks, duals in ((["decompose", "mean"], 1), (["decompose"], 0)):
        doc = base_doc()
        doc["tasks"] = tasks
        sc = scenario_from_dict(doc)
        sources.clear()
        assert run(sc).passed
        assert sources.count("mean-ergodic-projection") == duals


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_run_decomposes_by_neveu_decompose(name):
    """A run's decomposition is neveu_decompose with the run's projection:
    the same payload from the scenario's action, in either picture."""
    (sc,) = [s for s in gallery() if s.name == name]
    proj = mean_ergodic_projection(
        sc.action.to_picture("schrodinger"), tol_fixed=sc.tolerances["tol_fixed"]
    )
    dec = neveu.neveu_decompose(
        sc.action, sc.schedule, decay_tol=sc.tolerances["decay_tol"], projection=proj
    )
    ctx = type("Ctx", (), {"decomposition": dec})()
    want = scenarios._run_decompose(ctx, {"spectrum": {}})[0]
    doc = copy.deepcopy(sc.raw)
    doc["tasks"] = ["decompose"]
    got = run(scenario_from_dict(doc)).data["results"]["decompose"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_heisenberg_mean_refuses_a_wrong_dual_basis(monkeypatch):
    """A corrupted dual basis of the density-picture projection fails the
    Heisenberg mean task by its factor check; the tasks that read the dense
    projector still pass."""
    doc = base_doc()
    doc["tasks"] = ["decompose", "mean", "certify"]
    project = neveu.mean_ergodic_projection

    def corrupted(action, **kwargs):
        proj = project(action, **kwargs)
        return dataclasses.replace(
            proj, dual_basis=[psi * 2.0 for psi in proj.dual_basis]
        )

    monkeypatch.setattr(neveu, "mean_ergodic_projection", corrupted)
    report = run(scenario_from_dict(doc))
    assert report.verdicts == {"decompose": "pass", "mean": "fail", "certify": "pass"}
    mean = report.data["results"]["mean"]
    assert mean["error_type"] == "MeanErgodicValidationError"
    assert "not the fixed space" in mean["error"]


def test_emit_decay_csv_contents(tmp_path):
    report = run(scenario_from_dict(base_doc()))
    out = tmp_path / "d.csv"
    emit(report, "decay-csv", out)
    lines = out.read_text().splitlines()
    assert lines[0] == "a,norm"
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows[10 if 10 in rows else 16] > 0
    g = 0.5
    for a, norm in rows.items():
        assert abs(norm - (1.0 - (1.0 - g) ** a) / (a * g)) <= 1e-10


def test_emit_decay_csv_empty_decay_is_header_only(tmp_path):
    # the identity gallery item has a zero wandering corner: no decay rows
    sc = gallery()[0]
    report = run(sc)
    out = tmp_path / "d.csv"
    emit(report, "decay-csv", out)
    assert out.read_text() == "a,norm\n"


def test_emit_spectrum_csv(tmp_path):
    doc = base_doc()
    doc["tasks"] = ["mean", "decompose"]
    report = run(scenario_from_dict(doc))
    out = tmp_path / "s.csv"
    emit(report, "spectrum-csv", out)
    lines = out.read_text().splitlines()
    assert lines[0] == "object,index,re,im"
    assert "generators" not in report.data["results"]["spectrum"]
    (gap_row,) = [l for l in lines if l.startswith("gap,")]
    name, index, re, im = gap_row.split(",")
    # the damping channel has the spectrum 1, sqrt(1/2) (twice) and 1/2:
    # the gap of G = S - 1 is 1 - sqrt(1/2)
    assert (index, float(im)) == ("0", 0.0)
    assert float(re) == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-9)
    density = [l for l in lines if l.startswith("invariant-density,")]
    assert len(density) == 2 and len(lines) == 4


def test_emit_uses_lf_endings_and_17_digits(tmp_path):
    report = run(scenario_from_dict(base_doc()))
    out = tmp_path / "d.csv"
    emit(report, "decay-csv", out)
    raw = out.read_bytes()
    assert b"\r" not in raw
    # a = 16: (1 - 0.5^16) / 8 printed with 17 significant digits
    assert b"0.12499809265136719" in raw


def test_emit_leaves_no_temp_files(tmp_path):
    report = run(scenario_from_dict(base_doc()))
    emit(report, "report-json", tmp_path / "r.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_emit_writes_through_a_named_pipe_and_leaves_it_a_pipe(tmp_path):
    # a rename over the target would replace the pipe by a regular file and
    # leave the reader waiting for a writer that never comes
    report = run(scenario_from_dict(base_doc()))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    emit(report, "report-json", fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [render(report, "report-json").encode("utf-8")]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_emit_through_a_symlink_keeps_the_link(tmp_path):
    report = run(scenario_from_dict(base_doc()))
    target, link = tmp_path / "r.json", tmp_path / "link.json"
    target.write_text("old", encoding="utf-8")
    link.symlink_to(target)
    emit(report, "report-json", link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == render(report, "report-json").encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "r.json"]


_EDGE_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 0.1]
)
_FLOATS = st.floats() | _EDGE_FLOATS
_TEXT = st.text() | st.sampled_from(
    ['say "hi"', "back\\slash", "\x00\x1f\n\t", "é \U0001f600"]
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
_PAIR = st.tuples(_FLOATS, _FLOATS).map(list)
_LEAVES = (
    _SCALARS
    # an encoded matrix row: [float, float] pairs
    | st.lists(_PAIR, max_size=4)
    # mixed rows: pairs among shorter or longer lists and scalars
    | st.lists(
        _PAIR | st.lists(_FLOATS | st.integers(), max_size=3) | _SCALARS, max_size=4
    )
    # pairs holding an int
    | st.lists(st.tuples(st.integers(), _FLOATS).map(list), min_size=1, max_size=3)
)
_DOCS = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4)
    | st.dictionaries(st.integers(), kids, max_size=3),
    max_leaves=30,
)
# a report is a dict; its meta is missing, empty, a dict with or without the
# wall clock, or not a dict at all
_FIELDS = st.dictionaries(_TEXT, _DOCS, max_size=5)
_META = (
    st.dictionaries(_TEXT, _DOCS, max_size=3)
    | st.fixed_dictionaries({"wall_clock_s": _FLOATS}, optional={"other": _DOCS})
    | _DOCS
)
_REPORT_DOCS = _FIELDS | st.builds(lambda d, m: {**d, "meta": m}, _FIELDS, _META)


def _compact(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_REPORT_DOCS)
def test_report_json_and_canonical_bytes_are_the_stdlib_compact_dump(doc):
    report = Report(doc)
    assert render(report, "report-json") == _compact(doc) + "\n"
    if isinstance(doc.get("meta"), dict):
        meta = {k: v for k, v in doc["meta"].items() if k != "wall_clock_s"}
        doc = {**doc, "meta": meta}
    assert report.canonical_bytes() == _compact(doc).encode()


class _CountingDict(dict):
    """A dict that counts how often an encoder reads its items."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def test_report_json_and_canonical_bytes_encode_each_field_once(tmp_path):
    data = run(scenario_from_dict(base_doc())).data
    fields = {k: _CountingDict(v) for k, v in data.items() if isinstance(v, dict)}
    del fields["meta"]
    report = Report({**data, **fields})
    out = emit(report, "report-json", tmp_path / "r.json")
    canonical = report.canonical_bytes()
    assert render(report, "report-json") == _compact(data) + "\n"
    assert report.canonical_bytes() == canonical
    assert {k: v.reads for k, v in fields.items()} == dict.fromkeys(fields, 1)
    # the emitted text reads back to the same canonical bytes
    assert load_report(out).canonical_bytes() == canonical


def test_emit_unknown_format():
    report = run(scenario_from_dict(base_doc()))
    with pytest.raises(ValueError, match="format"):
        emit(report, "yaml", "/tmp/x")


def test_load_report_rejects_unknown_major_version(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": "3.0", "verdicts": {}}))
    with pytest.raises(ValueError, match="3.0"):
        load_report(path)


# ---------------------------------------------------------------------------
# packed matrices
# ---------------------------------------------------------------------------

# signed zeros, the smallest subnormals, a subnormal at half the normal
# floor, and doubles near the top of the range
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e300, -1e300]


@st.composite
def packable_matrices(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entries = st.lists(
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False)),
        min_size=n * m, max_size=n * m,
    )
    re = np.array(draw(entries), dtype=float).reshape(n, m)
    if not draw(st.booleans()):
        return re
    z = np.empty((n, m), dtype=complex)
    z.real, z.imag = re, np.array(draw(entries), dtype=float).reshape(n, m)
    return z


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(packable_matrices())
def test_a_packed_matrix_unpacks_bitwise(m):
    packed = json.loads(json.dumps(scenarios._pack(m)))
    assert packed["shape"] == list(m.shape)
    got = scenarios._unpack(packed)
    assert got.dtype == np.complex128
    assert same_bits(got, m.astype(complex))
    if m.dtype == float:
        assert same_bits(got.real, m) and not np.signbit(got.imag).any()


@pytest.mark.parametrize(
    "bad",
    [
        {"c16le": "!!not base64!!", "shape": [1, 1]},
        {"c16le": "AAAA", "shape": [1, 1]},  # 3 bytes
        {"c16le": scenarios._pack(np.eye(2))["c16le"][:-8], "shape": [2, 2]},
        {"c16le": scenarios._pack(np.eye(2))["c16le"], "shape": [2, 3]},
        {"c16le": "", "shape": [2]},
        {"c16le": "", "shape": [0, -1]},
        {"c16le": "", "shape": [2.0, 0]},
        {"c16le": "", "shape": [True, 0]},
        {"c16le": "", "shape": "0x0"},
        {"c16le": 0, "shape": [0, 0]},
        {"shape": [1, 1]},
        [[[1.0, 0.0]]],  # a block as rows of [re, im] pairs
    ],
)
def test_unpack_refuses_a_malformed_blob(bad):
    with pytest.raises(ValueError, match="packed matrix"):
        scenarios._unpack(bad)


def listed_scenario(echo):
    """The scenario document of a report's echo: each packed payload matrix
    back as rows of [re, im] pairs, every other field as it is."""

    def rows(packed):
        m = scenarios._unpack(packed)
        return np.stack((m.real, m.imag), -1).tolist()

    generators = []
    for spec in echo["action"]["generators"]:
        ((key, value),) = spec["payload"].items()
        if spec["source"] == "kraus":
            value = [[rows(b) for b in op] for op in value]
        elif spec["source"] == "conjugation":
            value = [rows(b) for b in value]
        else:
            value = rows(value)
        generators.append({**spec, "payload": {key: value}})
    return {**echo, "action": {**echo["action"], "generators": generators}}


def reproducible_docs():
    """The shipped gallery scenarios and the large-d documents at seed 1,
    without the gallery-item task, which compares the raw document with
    the shipped file."""
    docs = [scenarios._gallery_doc(name) for name in GALLERY_NAMES]
    docs += workloads().generated_docs("large-d", 1)
    return [
        {**doc, "tasks": [t for t in doc["tasks"] if t != "gallery-item"]} for doc in docs
    ]


@pytest.mark.parametrize("doc", reproducible_docs(), ids=lambda doc: doc["name"])
def test_a_report_reproduces_its_run(doc):
    """The echoed scenario of a report, decoded back to lists, runs to the
    same canonical bytes."""
    report = run(scenario_from_dict(doc))
    echo = json.loads(report.canonical_bytes())["scenario"]
    assert echo["action"]["generators"] != doc["action"]["generators"]
    again = run(scenario_from_dict(listed_scenario(echo)))
    assert again.canonical_bytes() == report.canonical_bytes()


def test_packed_elements_are_the_runs_own_operators(monkeypatch):
    """Every packed block of a result element decodes bitwise to the block
    of the operator the run computed, and every packed payload block to the
    array decoded from the scenario's lists."""
    contexts, limits, xbars = [], [], []

    class Recording(scenarios._RunContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    certify, stochastic = scenarios.convergence._certify, scenarios.convergence._stochastic_run

    def certify_recording(algebra, walk, target, *args):
        limits.append(target)
        return certify(algebra, walk, target, *args)

    def stochastic_recording(*args):
        rep = stochastic(*args)
        xbars.append(rep.xbar)
        return rep

    monkeypatch.setattr(scenarios, "_RunContext", Recording)
    monkeypatch.setattr(scenarios.convergence, "_certify", certify_recording)
    monkeypatch.setattr(scenarios.convergence, "_stochastic_run", stochastic_recording)

    def same(packed, x):
        assert len(packed) == len(x.block_mats)
        return all(same_bits(scenarios._unpack(p), m) for p, m in zip(packed, x.block_mats))

    docs = [two_summand_star_doc()] + [scenarios._gallery_doc(name) for name in GALLERY_NAMES]
    for doc in docs:
        for kept in (contexts, limits, xbars):
            kept.clear()
        results = run(scenario_from_dict(doc)).data["results"]
        (ctx,) = contexts
        if "decompose" in results:
            dec, got = ctx.decomposition, results["decompose"]
            assert same(got["e1"], dec.e1) and same(got["e2"], dec.e2), doc["name"]
            if dec.invariant_density is not None:
                assert same(got["invariant_density"], dec.invariant_density)
        if "mean" in results:
            heisenberg = doc["action"]["picture"] == "heisenberg"
            proj = ctx.heisenberg_projection if heisenberg else ctx.projection
            for key in ("fixed_basis", "dual_basis"):
                packed, want = results["mean"][key], getattr(proj, key)
                assert len(packed) == len(want)
                assert all(same(p, x) for p, x in zip(packed, want)), (doc["name"], key)
        if "certify" in results:
            assert same(results["certify"]["limit"], limits[0]), doc["name"]
        if "stochastic" in results:
            assert same(results["stochastic"]["xbar"], xbars[0]), doc["name"]
        for spec, raw in zip(
            ctx.scenario.echo["action"]["generators"], doc["action"]["generators"], strict=True
        ):
            ((key, value),) = spec["payload"].items()
            raw = raw["payload"][key]
            if spec["source"] in ("kraus", "conjugation"):
                ops = value if spec["source"] == "kraus" else [value]
                raws = raw if spec["source"] == "kraus" else [raw]
                pairs = [(p, r) for op, rop in zip(ops, raws) for p, r in zip(op, rop)]
            else:
                pairs = [(value, raw)]
            for p, r in pairs:
                assert same_bits(scenarios._unpack(p), scenarios._decode_matrix(r, "payload"))


# ---------------------------------------------------------------------------
# the gallery
# ---------------------------------------------------------------------------


def test_gallery_has_the_eight_fixtures():
    names = gallery_names()
    assert len(names) >= 8
    assert names == list(GALLERY_NAMES)
    for want in (
        "identity",
        "amplitude-damping",
        "depolarizing",
        "swap-automorphism",
        "classical-transient-chain",
        "zplus2-two-channels",
        "lindblad-rplus",
        "non-lamperti-witness",
    ):
        assert want in names


def test_gallery_scenarios_all_validate():
    for sc in gallery():
        assert sc.name in GALLERY_NAMES
        assert sc.tasks


def _canonical_by_round_trip(report):
    """The canonical form built by a JSON round trip, the reference."""
    doc = json.loads(json.dumps(report.data))
    doc.get("meta", {}).pop("wall_clock_s", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def test_gallery_runs_end_to_end():
    # every shipped fixture must produce an all-pass report
    for sc in gallery():
        report = run(sc)
        assert report.passed, (sc.name, report.verdicts)
        assert report.canonical_bytes() == _canonical_by_round_trip(report), sc.name
        expected = _compact(report.data) + "\n"
        assert render(report, "report-json") == expected, sc.name
        assert "wall_clock_s" in report.data["meta"]


def test_gallery_zplus2_generators_commute():
    sc = next(s for s in gallery() if s.name == "zplus2-two-channels")
    assert sc.action.checks["commuting"].passed


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def write_doc(tmp_path, doc, name="case.scn"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_decompose_exit_zero(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["decompose"] == "pass"


def test_cli_exit_one_on_failing_verdict(tmp_path, capsys):
    path = write_doc(tmp_path, noncommuting_doc())
    code = main(["decompose", "--scenario", path])
    assert code == 1


def matrix_doc(matrix):
    doc = base_doc()
    doc["name"] = "matrix-test"
    doc["action"]["generators"] = [
        {"source": "matrix", "payload": {"matrix": np.asarray(matrix).tolist()}}
    ]
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    return doc


def test_cli_exit_two_on_a_generator_that_is_no_contraction(tmp_path, capsys):
    """2 * 1 on M_2 fails its contraction check: a load error that names the
    generator, not a failed verdict."""
    doc = matrix_doc(2 * np.eye(4))
    doc["action"]["scheme"]["d"] = 2
    doc["action"]["generators"].insert(0, base_doc()["action"]["generators"][0])
    path = write_doc(tmp_path, doc)
    assert main(["run", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}: action.generators[1]: not a contraction" in err
    assert "Traceback" not in err


def test_a_generator_of_unknown_contraction_loads_and_runs():
    """The transpose map is positive but not completely positive, so its
    contraction check stays unknown: the scenario loads and runs."""
    sc = scenario_from_dict(matrix_doc(np.eye(4)[[0, 2, 1, 3]]))
    assert sc.action.checks["contraction"].verdict == "unknown"
    assert run(sc).passed


def flow_doc(matrix, picture):
    """lindblad-rplus on M_2 with the flow generator ``matrix``."""
    doc = scenarios._gallery_doc("lindblad-rplus")
    doc["name"] = "flow-test"
    doc["action"]["picture"] = picture
    matrix = np.asarray(matrix, dtype=complex)
    pairs = np.stack([matrix.real, matrix.imag], axis=-1)
    doc["action"]["generators"][0]["payload"]["matrix"] = pairs.tolist()
    doc["tasks"] = ["decompose", "mean", "certify"]
    return doc


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_cli_exit_two_on_a_flow_that_is_no_contraction_semigroup(tmp_path, capsys, picture):
    """e^{t/2} grows: L = 1/2 has L_h(1) = 1/2 > 0, a load error that names
    the generator, in either picture."""
    path = write_doc(tmp_path, flow_doc(0.5 * np.eye(4), picture))
    assert main(["run", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}: action.generators[0]: not a contraction" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_a_flow_of_uncertified_positivity_loads_and_runs(picture):
    """The transpose flow e^{t(T - 1)} is a positive contraction semigroup
    that is not completely positive: L(1) = 0, so it loads, with the
    contraction only "unknown", as does the shipped flow."""
    transpose = np.eye(4)[[0, 2, 1, 3]]
    sc = scenario_from_dict(flow_doc(transpose - np.eye(4), picture))
    assert sc.action.checks["contraction"].verdict == "unknown"
    assert run(sc).passed
    shipped = scenario_from_dict(scenarios._gallery_doc("lindblad-rplus"))
    assert shipped.action.checks["contraction"].verdict == "unknown"


def gkls(h, ks, picture):
    """The vec-coordinate GKLS generator with hamiltonian h and jump
    operators ks on one full matrix block, vec(A X B) = (B.T kron A) vec(X):
    L(x) = i[h, x] + sum K* x K - {K*K, x}/2, or its trace dual."""
    one = np.eye(len(h))
    if picture == "heisenberg":
        out = 1j * (np.kron(one, h) - np.kron(h.T, one))
        for k in ks:
            kk = k.conj().T @ k
            out += np.kron(k.T, k.conj().T) - (np.kron(one, kk) + np.kron(kk.T, one)) / 2
    else:
        out = -1j * (np.kron(one, h) - np.kron(h.T, one))
        for k in ks:
            kk = k.conj().T @ k
            out += np.kron(k.conj(), k) - (np.kron(one, kk) + np.kron(kk.T, one)) / 2
    return out


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_a_flow_with_large_rates_loads_with_an_unknown_contraction(picture):
    """A GKLS flow with rates near 1e8 has L_h(1) = 0 exactly, but its
    rounding grows with ||L|| past an absolute 1e-9; the slack is scaled by
    the generator, so the flow loads, with the contraction only "unknown"."""
    rng = np.random.default_rng(26)
    g = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    h = 1e8 * (g[0] + g[0].conj().T)
    ks = [1e4 * g[1], 1e4 * g[2]]
    gen = gkls(h, ks, picture)
    # L_h(1) as the load reads it rounds to an eigenvalue above 1e-9
    unit = (gen if picture == "heisenberg" else gen.T) @ np.eye(2).reshape(-1)
    assert np.linalg.eigvalsh(unit.reshape(2, 2))[-1] > 1e-9
    sc = scenario_from_dict(flow_doc(gen, picture))
    assert sc.action.checks["contraction"].verdict == "unknown"


def test_cli_exit_two_on_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("{not json")
    code = main(["decompose", "--scenario", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, where, message",
    [
        (["name"], 5, "name", "5 is not of type 'string'"),
        (["action", "picture"], "interaction", "action/picture",
         "'interaction' is not one of ['heisenberg', 'schrodinger']"),
        (["algebra"], {"blocks": [2]}, "algebra", "'weights' is a required property"),
        (["action", "scheme", "zz"], 1, "action/scheme",
         "Additional properties are not allowed ('zz' was unexpected)"),
        (["tasks"], [], "tasks", "[] should be non-empty"),
        (["name"], "", "name", "'' should be non-empty"),
        (["schedule"], [0, 1], "schedule/0", "0 is less than the minimum of 1"),
        (["tolerances"], {"eps": 0}, "tolerances/eps",
         "0 is less than or equal to the minimum of 0"),
        (["schema_version"], "2.0", "schema_version", "'2.0' does not match '^1\\\\.'"),
    ],
    ids=["type", "enum", "required", "additionalProperties", "minItems",
         "minLength", "minimum", "exclusiveMinimum", "pattern"],
)
def test_cli_schema_error_exits_two_naming_the_json_path(
    tmp_path, capsys, path, value, where, message
):
    doc = base_doc()
    _set(doc, path, value)
    scn = write_doc(tmp_path, doc)
    assert main(["run", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {scn}: at {where}: {message}\n"


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # --scenario is required
    assert exc.value.code == 2


def test_cli_singular_z_symmetric_generator_exits_two_naming_it(tmp_path, capsys):
    """Amplitude damping at g = 1 is singular: no inverse walk exists."""
    doc = base_doc()
    one = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    k0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    k1 = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc["action"]["scheme"] = {"kind": "z-symmetric-box", "d": 2}
    doc["action"]["generators"] = [
        {"source": "conjugation", "payload": {"unitary": [one]}},
        {"source": "kraus", "payload": {"operators": [[k0], [k1]]}},
    ]
    scn = write_doc(tmp_path, doc, "zsym.scn")
    assert main(["run", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert f"{scn}: action.generators[1]: " in err
    assert "Traceback" not in err


def test_cli_declared_normalized_algebra_with_tau_one_off_exits_two(tmp_path, capsys):
    doc = base_doc()
    doc["algebra"]["weights"] = [0.375]
    scn = write_doc(tmp_path, doc)
    assert main(["run", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert f"{scn}: algebra: declared normalized but tau(1) = 0.75" in err
    assert "Traceback" not in err


def test_cli_out_writes_report(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    out = tmp_path / "report.json"
    code = main(["run", "--scenario", path, "--out", str(out)])
    assert code == 0
    assert load_report(out).passed


def test_cli_n_max_replaces_schedule(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path, "--n-max", "100"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schedule"] == [1, 2, 4, 8, 16, 32, 64, 100]


def test_cli_n_max_zero_exits_two(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path, "--n-max", "0"])
    assert code == 2
    assert "--n-max must be >= 1" in capsys.readouterr().err


def test_cli_out_into_missing_directory_exits_two(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    out = tmp_path / "missing" / "r.json"
    code = main(["run", "--scenario", path, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--tol-fixed", "--decay-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_nonfinite_tolerance_exits_two(tmp_path, capsys, flag, value):
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path, flag, value])
    assert code == 2
    assert f"{flag} must be finite" in capsys.readouterr().err


def test_cli_gallery_out_onto_a_file_exits_two(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    for extra in ([], ["--run"]):
        code = main(["gallery", "--out", str(out), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err
        assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_cli_n_max_too_short_to_certify_fails_honestly(tmp_path, capsys):
    # five preasymptotic points cannot establish the C/a decay slope
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path, "--n-max", "10"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["schedule"] == [1, 2, 4, 8, 10]
    assert out["verdicts"]["decompose"] == "fail"


def test_cli_decay_csv_to_stdout(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path, "--format", "decay-csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,norm"
    assert len(lines) == 8


def test_cli_seed_override_recorded(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    code = main(["decompose", "--scenario", path, "--seed", "99"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 99


def test_cli_successive_calls_share_no_options(tmp_path, capsys):
    # main parses with one parser per process; a call's flags must not
    # reach the next call
    assert build_parser() is build_parser()
    doc = base_doc()
    path = write_doc(tmp_path, doc)
    code = main(["decompose", "--scenario", path, "--seed", "99", "--n-max", "10"])
    assert code == 1
    first = json.loads(capsys.readouterr().out)
    assert (first["seed"], first["schedule"]) == (99, [1, 2, 4, 8, 10])
    assert main(["mean", "--scenario", path]) == 0
    second = json.loads(capsys.readouterr().out)
    assert (second["seed"], second["schedule"]) == (doc["seed"], doc["schedule"])
    assert list(second["verdicts"]) == ["mean"]


def test_cli_gallery_lists_names(capsys):
    code = main(["gallery"])
    assert code == 0
    out = capsys.readouterr().out
    for name in GALLERY_NAMES:
        assert name in out


def test_cli_gallery_exports_scn_files(tmp_path, capsys):
    code = main(["gallery", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(f"{n}.scn" for n in GALLERY_NAMES)
    # exported copies are loadable and identical to the shipped fixtures
    sc = load_scenario(tmp_path / "identity.scn")
    assert sc.name == "identity"


def test_cli_stochastic_subcommand(tmp_path, capsys):
    doc = base_doc()
    doc["tasks"] = ["gallery-item"]  # the subcommand must override this
    path = write_doc(tmp_path, doc)
    code = main(["stochastic", "--scenario", path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert "stochastic" in out["results"]
    assert out["verdicts"]["stochastic"] == "pass"


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_cli_run_leaves_no_cyclic_garbage(tmp_path, capsys, name):
    main(["gallery", "--out", str(tmp_path)])
    path = str(tmp_path / f"{name}.scn")
    main(["run", "--scenario", path])  # first calls fill import-time caches
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(["run", "--scenario", path])
        gc.collect()
        cyclic = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == 0


PLAIN = (dict, list, str, int, float, bool, type(None))


def impure(value, where="data"):
    """The first path in ``value`` that is not exactly a dict with string
    keys, a list, a str, an int, a float, a bool or None (an np.float64, a
    tuple or a numpy array fails), or None."""
    if type(value) not in PLAIN:
        return f"{where}: {type(value).__name__}"
    if isinstance(value, dict):
        for key, item in value.items():
            bad = impure(key, f"{where} key") if type(key) is not str else None
            bad = bad or (f"{where} key {key!r}" if type(key) is not str else None)
            bad = bad or impure(item, f"{where}.{key}")
            if bad:
                return bad
    if isinstance(value, list):
        for i, item in enumerate(value):
            bad = impure(item, f"{where}[{i}]")
            if bad:
                return bad
    return None


def test_report_data_holds_plain_json_types_only():
    """Every value of report.data is exactly one of the JSON types, so the
    payloads that skip _plain hold no numpy scalar: every gallery report
    and a run of all four tasks on two uncoupled summands."""
    assert impure({"a": [1, 2.0, None]}) is None
    assert impure({"a": [np.float64(1.0)]}) == "data.a[0]: float64"
    assert impure({"a": (1, 2)}) == "data.a: tuple"
    reports = [run(sc) for sc in gallery()]
    star = scenario_from_dict(two_summand_star_doc())
    assert len(star.action._summands()) == 2
    reports.append(run(star))
    for report in reports:
        assert set(report.verdicts.values()) == {"pass"}
        assert impure(report.data) is None, report.data["scenario_name"]


def density_picture_depolarizing_doc():
    """The gallery's depolarizing channel, unital and trace preserving, as a
    density-picture action."""
    doc = scenarios._gallery_doc("depolarizing")
    doc["name"] = "depolarizing-density"
    doc["action"]["picture"] = "schrodinger"
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    return doc


def complex_square_holders(maps):
    """The maps among ``maps`` that hold a complex D x D array, D their
    algebra's dimension."""
    return [
        m for m in maps
        if any(
            isinstance(v, np.ndarray) and np.iscomplexobj(v) and v.shape == (m.algebra.dim,) * 2
            for v in vars(m).values()
        )
    ]


def test_a_run_holds_no_complex_square_matrix(monkeypatch):
    """After run() on a two-summand Heisenberg Kraus document, a density-
    picture document and a flow document, no map held by the action, its
    other picture, the summands of either or the run's projections holds a
    complex D x D array: each holds its real hermitian-basis matrix alone.
    Reading a vec matrix keeps nothing, a summand's is the slice of the
    whole, and E applies to phi0 bitwise as before the read."""
    contexts = []
    init = scenarios._RunContext.__init__

    def recording(self, *args):
        init(self, *args)
        contexts.append(self)

    monkeypatch.setattr(scenarios._RunContext, "__init__", recording)
    docs = (
        two_summand_star_doc(),
        density_picture_depolarizing_doc(),
        scenarios._gallery_doc("lindblad-rplus"),
    )
    for doc in docs:
        sc = scenario_from_dict(doc)
        assert run(sc).passed, doc["name"]
        ctx = contexts[-1]
        ctx.heisenberg_projection  # the observable-picture E, also where the run took none
        actions = [ctx.schr, ctx.schr.dual()]
        maps = [g for act in actions for g in act.generators]
        maps += [g for act in actions for _, sub in act._summands() for g in sub.generators]
        for kept in ctx._kept.values():
            if dataclasses.is_dataclass(kept):
                maps += [v for v in vars(kept).values() if isinstance(v, SuperOperator)]
        assert ctx.projection.superop in maps and ctx.heisenberg_projection.superop in maps
        assert complex_square_holders(maps) == [], doc["name"]
        before = ctx.projection(ctx.phi0)
        assert ctx.projection.superop.matrix.shape == (sc.algebra.dim,) * 2
        assert complex_square_holders(maps) == [], doc["name"]
        after = ctx.projection(ctx.phi0)
        assert all(map(np.array_equal, before.block_mats, after.block_mats))
        for i, g in enumerate(ctx.schr.generators):
            for coords, sub in ctx.schr._summands():
                assert np.array_equal(sub.generators[i].matrix, g.matrix[_square(coords)])


THREAD_RUN = """
import importlib.util, json, sys
import numpy as np
from neveukit import scenarios

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
rng = np.random.default_rng(1)
docs = [
    workloads.star_damping_doc("M8+M4", [8, 4], [1 / 16, 1 / 8], rng),
    workloads.lindblad_doc(5, rng),
]
out = []
for doc in docs:
    data = scenarios.run(scenarios.scenario_from_dict(doc)).data
    data.pop("meta")
    out.append(data)
print(json.dumps(out))
"""
# the contract across BLAS thread settings, as README states it
THREAD_RTOL = 1e-9
THREAD_ATOL = 1e-12


def same_but_floats(one, two, where="report"):
    """Fields equal in type and shape, non-floats exactly, floats within
    THREAD_RTOL / THREAD_ATOL; a packed matrix is decoded first, and its
    real and imaginary parts are floats."""
    assert type(one) is type(two), where
    if isinstance(one, dict) and "c16le" in one:
        one, two = (scenarios._unpack(m) for m in (one, two))
        assert one.shape == two.shape, where
        one, two = (m.view(float).ravel().tolist() for m in (one, two))
    if isinstance(one, dict):
        assert one.keys() == two.keys(), where
        for key in one:
            same_but_floats(one[key], two[key], f"{where}.{key}")
    elif isinstance(one, list):
        assert len(one) == len(two), where
        for i, (a, b) in enumerate(zip(one, two)):
            same_but_floats(a, b, f"{where}[{i}]")
    elif isinstance(one, float):
        assert abs(one - two) <= THREAD_ATOL + THREAD_RTOL * abs(two), where
    else:
        assert one == two, where


def test_reports_agree_across_blas_thread_settings():
    """A two-summand star damping run and a Lindblad flow run, each in a
    subprocess at OPENBLAS_NUM_THREADS=1 and =2: equal verdicts, ranks and
    non-float fields, and floats within rtol 1e-9 / atol 1e-12."""
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC)
        env["OPENBLAS_NUM_THREADS"] = threads
        env.pop("OMP_NUM_THREADS", None)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", THREAD_RUN, WORKLOADS], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    found = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        found.append(json.loads(out.splitlines()[-1]))
    one, two = found
    for report in one:
        assert set(report["verdicts"].values()) == {"pass"}, report["scenario_name"]
    same_but_floats(one, two)
