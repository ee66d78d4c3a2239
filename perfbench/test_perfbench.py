"""Tests of the benchmark itself: seeded inputs, seed invariance, the tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import neveukit  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _workload(name, seed, workdir):
    wl = workloads.WORKLOAD_CLASSES[name](seed, workdir, workloads.load_reference())
    assert wl.build() == []
    return wl


def _density_bytes(seed):
    algebras = [sc.algebra for sc in neveukit.scenarios.gallery()]
    return b"".join(x.vec().tobytes() for _, x, _ in workloads.stochastic_densities(algebras, seed))


@pytest.mark.parametrize("name", ["gallery", "large-d", "flow"])
def test_one_seed_gives_byte_identical_documents(name):
    first = json.dumps(workloads.generated_docs(name, 7), sort_keys=True)
    assert json.dumps(workloads.generated_docs(name, 7), sort_keys=True) == first


def test_one_seed_gives_byte_identical_densities():
    assert _density_bytes(7) == _density_bytes(7)
    assert _density_bytes(7) != _density_bytes(8)


@pytest.mark.parametrize("name", ["large-d", "flow"])
def test_seed_changes_the_generated_inputs(name):
    docs = {json.dumps(workloads.generated_docs(name, s), sort_keys=True) for s in SEEDS}
    assert len(docs) == len(SEEDS)


@pytest.mark.parametrize("name", ["large-d", "flow", "stochastic"])
def test_generated_families_pass_with_reference_ranks_under_three_seeds(name):
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            wl = _workload(name, seed, workdir)
            for item in wl.items:
                assert wl.check_item(item, wl.run_item(item)) == [], (seed, item[0])


def test_tracer_rebinds_every_copy_and_restores_them():
    from neveukit import algebra, convergence, maps, scenarios

    original = algebra.op_norm
    x = algebra.TracialAlgebra.full_matrix(2).identity()
    with tracer.Tracer() as tr:
        for mod in (algebra, maps, convergence, scenarios, neveukit):
            assert mod.op_norm is not original
        convergence.op_norm(x)
        maps.op_norm(x)
        assert convergence.np.linalg.norm is not np.linalg.norm
    for mod in (algebra, maps, convergence, scenarios, neveukit):
        assert mod.op_norm is original
    assert convergence.np is np
    stats = tr.stats
    assert stats["algebra.op_norm"].calls == 2
    # each op_norm makes one np.linalg.norm call per block
    assert stats["linalg.norm"].calls == 2
    op = stats["algebra.op_norm"]
    assert 0 < op.self_s < op.total_s


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as workdir:
            wl = _workload("gallery", 1, workdir)
            with tracer.Tracer() as tr:
                run.build(wl, run.Tally())
                run.run_pass(wl, run.Tally())
            counts.append({k: v for k, v in tr.metrics().items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(wl.items)


def test_benchmark_json_names_metrics_the_harness_produces():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = set(tracer.Tracer().metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert workloads.WORKLOADS == run.WORKLOADS


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="known defect: see README.md, 'Known defects'"
)
def test_rotated_automorphism_decomposes():
    """The M_3 automorphism items, after a seeded change of basis."""
    rng = np.random.default_rng(1)
    w = workloads._random_unitary(rng, 3)
    doc = workloads.z_symmetric_doc()
    u = w @ workloads.CYCLE3 @ w.conj().T
    doc["action"]["generators"][0]["payload"]["unitary"] = [workloads._enc_matrix(u)]
    report = neveukit.scenarios.run(neveukit.scenarios.scenario_from_dict(doc))
    assert report.verdicts["decompose"] == "pass"


@pytest.mark.xfail(
    strict=True,
    raises=neveukit.scenarios.ScenarioError,
    reason="known defect: see README.md, 'Known defects'",
)
def test_star_damping_on_m14_is_accepted():
    """sum K*K = 1 exactly in exact arithmetic, so the channel is subunital."""
    rng = np.random.default_rng(1)
    doc = workloads.star_damping_doc("M14", [14], [1 / 14], rng)
    neveukit.scenarios.scenario_from_dict(doc)
