import copy
import dataclasses
import gc
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit import neveu
from neveukit.algebra import trace
from neveukit.cli import build_parser, main
from neveukit.dynamics import SemigroupAction
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
    sc = scenario_from_dict(base_doc())
    r1 = run(sc, seed=11)
    r2 = run(sc, seed=12)
    assert r1.verdicts == r2.verdicts
    assert r1.data["seed"] == 11
    assert r2.data["seed"] == 12


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
    mats = [np.array(m, dtype=float) for m in blocks]
    return algebra.operator([m[..., 0] + 1j * m[..., 1] for m in mats])


def test_emitted_mean_factors_rebuild_the_projector(tmp_path):
    """E(y) = sum_i tau(psi_i y) x_i from the fixed and dual bases of a
    reloaded report equals the projection of the scenario's action."""
    for sc in gallery():
        out = tmp_path / f"{sc.name}.json"
        emit(run(sc), "report-json", out)
        report = load_report(out)
        assert report.data["schema_version"] == "1.2"
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
    """Every task of a run reads the one density picture of the context."""
    doc = base_doc()
    doc["tasks"] = ["decompose", "mean", "certify", "stochastic"]
    sc = scenario_from_dict(doc)
    calls = []
    dual = SemigroupAction.dual

    def counting_dual(self):
        calls.append(self.picture)
        return dual(self)

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
    Heisenberg run of every task scans its action and the density picture
    once each, though the projection, the fixed space, the dual projection
    and the spectrum all read the split."""
    (sc,) = [s for s in gallery() if s.name == "classical-transient-chain"]
    scans = []
    scan = SemigroupAction._scan_summands

    def counting_scan(self):
        scans.append(self.picture)
        return scan(self)

    monkeypatch.setattr(SemigroupAction, "_scan_summands", counting_scan)
    report = run(sc)
    assert {"decompose", "mean", "certify", "stochastic"} <= set(report.data["results"])
    assert sorted(scans) == ["heisenberg", "schrodinger"]
    assert len(sc.action._summands()) == 2


def test_heisenberg_run_dualises_the_mean_projection_once(monkeypatch):
    """The decomposition's wandering verdict and the Heisenberg mean task
    read one dual of the density-picture projection."""
    from neveukit import maps, scenarios

    doc = base_doc()
    doc["tasks"] = ["decompose", "mean"]
    sc = scenario_from_dict(doc)
    sources = []

    def counting_dual(s):
        sources.append(s.source)
        return maps.dual(s)

    monkeypatch.setattr(neveu, "dual", counting_dual)
    monkeypatch.setattr(scenarios, "dual", counting_dual)
    assert run(sc).passed
    assert sources.count("mean-ergodic-projection") == 1


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
    gen_rows = [l for l in lines if l.startswith("generator-0")]
    eigs = sorted(float(l.split(",")[2]) for l in gen_rows)
    # superoperator spectrum of the damping channel
    want = sorted([0.5, np.sqrt(0.5), np.sqrt(0.5), 1.0])
    assert np.allclose(eigs, want, atol=1e-12)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_DOCS)
def test_report_json_equals_stdlib_indented_dump(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert render(Report(doc), "report-json") == expected


def test_emit_unknown_format():
    report = run(scenario_from_dict(base_doc()))
    with pytest.raises(ValueError, match="format"):
        emit(report, "yaml", "/tmp/x")


def test_load_report_rejects_unknown_major_version(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": "2.0", "verdicts": {}}))
    with pytest.raises(ValueError, match="2.0"):
        load_report(path)


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
        expected = json.dumps(report.data, sort_keys=True, indent=2) + "\n"
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


def test_cli_exit_two_on_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("{not json")
    code = main(["decompose", "--scenario", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # --scenario is required
    assert exc.value.code == 2


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
