"""The certificate layer runs on per-block stacks; it must certify exactly what
the per-point construction of ``certificate_oracle`` certifies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_oracle as oracle
from neveukit import convergence, scenarios
from neveukit.algebra import TracialAlgebra, support
from neveukit.neveu import neveu_decompose

RTOL = 1e-13

BLOCKS = st.lists(
    st.tuples(st.integers(1, 4), st.floats(0.05, 2.0)), min_size=1, max_size=3
)


def _close(x, y):
    """Within 1e-13 of the larger of |x|, |y| and the unit scale of the data."""
    if x is None or y is None:
        return x is y
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y), 1.0)


def _same_projection(p, q):
    assert p.ranks == q.ranks
    for a, b in zip(p.block_mats, q.block_mats):
        assert np.abs(a - b).max(initial=0.0) <= RTOL


def _same_rows(rows, expected, exact):
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert row.keys() == ref.keys()
        for key, value in ref.items():
            if key in exact:
                assert row[key] == value, key
            else:
                assert _close(row[key], value), (key, row[key], value)


def assert_same_measure(cert, ref):
    assert (cert.schedule, cert.eps, cert.delta_tol) == (
        ref.schedule,
        ref.eps,
        ref.delta_tol,
    )
    _same_rows(cert.rows, ref.rows, {"a", "rank_kept"})
    assert (cert.n0, cert.verdict) == (ref.n0, ref.verdict)
    for got, want in zip(
        cert.witnesses + cert.witnesses_active, ref.witnesses + ref.witnesses_active
    ):
        _same_projection(got, want)


def assert_same_bau(cert, ref):
    assert (cert.schedule, cert.delta_budget, cert.n0) == (
        ref.schedule,
        ref.delta_budget,
        ref.n0,
    )
    assert (cert.theta, cert.excluded_mass) == (ref.theta, ref.excluded_mass)
    _same_projection(cert.e, ref.e)
    _same_projection(cert.e_active, ref.e_active)
    assert [a for a, _ in cert.tail] == [a for a, _ in ref.tail]
    assert all(_close(v, w) for (_, v), (_, w) in zip(cert.tail, ref.tail))
    assert _close(cert.final, ref.final) and _close(cert.slope, ref.slope)
    assert cert.verdict == ref.verdict
    assert cert.detail["candidates_tried"] == ref.detail["candidates_tried"]
    assert all(
        _close(v, w)
        for v, w in zip(cert.detail["corner_norms"], ref.detail["corner_norms"])
    )


def _corner(algebra, rng):
    mats = []
    for n in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g[:, int(rng.integers(0, n + 1)) :] = 0.0
        mats.append(g @ g.conj().T)
    return support(algebra.operator(mats))


def _non_hermitian(algebra, rng, real_diagonal):
    """A random operator; with ``real_diagonal`` it is a strictly upper
    triangular real one, so that only its off-diagonal entries tell it from
    its adjoint."""
    mats = []
    for n in algebra.blocks:
        g = rng.standard_normal((n, n))
        if not real_diagonal:
            mats.append(g + 1j * rng.standard_normal((n, n)))
        else:
            mats.append(np.triu(g, 1))
    return algebra.operator(mats)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(blocks=BLOCKS, k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_stacked_certificates_match_the_per_point_oracle(blocks, k, seed):
    """Measure and b.a.u. certificates of k points, on the whole algebra, in a
    random corner and in its complement, with hermitian, nearly hermitian
    and non-hermitian deviations (the last take the SVD branch of |d|)."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    limit = algebra.random_hermitian(rng)
    seq = []
    for a in range(1, k + 1):
        kind = rng.integers(0, 4)
        d = algebra.zero() if kind == 0 else algebra.random_hermitian(rng)
        if kind >= 2:
            d = d + 0.5 * _non_hermitian(algebra, rng, real_diagonal=kind == 3)
        seq.append(limit + (1.0 / a) * d)
    schedule = sorted(rng.choice(np.arange(1, 64), size=k, replace=False).tolist())
    eps = float(rng.uniform(0.05, 1.0))
    delta_tol = float(rng.uniform(0.0, 1.0))
    budget = float(rng.uniform(0.01, 1.5))
    n0 = int(rng.integers(0, k))
    corner = _corner(algebra, rng)
    for within in (None, corner, corner.complement()):
        if within is None:
            seq_in, lim_in = seq, limit
        else:
            seq_in = [within @ x @ within for x in seq]
            lim_in = within @ limit @ within
        for mod_args in [
            ("measure_certify", (seq_in, lim_in, eps), {"delta_tol": delta_tol}),
            ("bau_certify", (seq_in, lim_in, budget), {"n0": n0}),
        ]:
            name, args, kwargs = mod_args
            kwargs.update(schedule=schedule, within=within)
            got = getattr(convergence, name)(*args, **kwargs)
            want = getattr(oracle, name)(*args, **kwargs)
            if name == "measure_certify":
                assert_same_measure(got, want)
            else:
                assert_same_bau(got, want)


@pytest.fixture(scope="module")
def gallery_actions():
    actions = []
    for sc in scenarios.gallery():
        schr = sc.action.to_picture("schrodinger")
        actions.append((schr, neveu_decompose(schr, seed=sc.seed)))
    return actions


def test_stochastic_run_matches_the_per_point_oracle(gallery_actions):
    """The criterion-6 inputs of the first 24 seeds, every gallery action."""
    for seed in range(24):
        schr, dec = gallery_actions[seed % len(gallery_actions)]
        x = schr.algebra.random_density(np.random.default_rng(30_000 + seed))
        eps = (0.1, 0.2, 0.35)[seed % 3]
        kwargs = {"eps": eps, "delta": 0.2, "decomposition": dec, "seed": seed}
        got = convergence.stochastic_run(schr, x, **kwargs)
        want = oracle.stochastic_run(schr, x, **kwargs)
        _same_rows(
            got.rows,
            want.rows,
            {"a", "past_burn_in", "budget_violation", "cross_violation"},
        )
        assert (got.burn_in, got.verdicts, got.detail) == (
            want.burn_in,
            want.verdicts,
            want.detail,
        )
        assert_same_bau(got.bau, want.bau)
        assert_same_measure(got.measure, want.measure)
        _same_projection(got.p, want.p)


def test_certify_eigh_calls_do_not_grow_with_the_schedule(monkeypatch):
    """The certify task decomposes and takes norms of one stack per block,
    whatever the number of schedule points: its eigh, svd and norm calls do
    not grow."""
    scenario = scenarios.scenario_from_dict(
        {**scenarios._gallery_doc("amplitude-damping"), "tasks": ["certify"]}
    )
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    counts = []
    for n in (4, 16):
        calls.clear()
        with monkeypatch.context() as m:
            for name in ("eigh", "svd", "norm"):
                m.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
            report = scenarios.run(scenario, schedule=list(range(1, n + 1)))
        assert "error" not in report.data["results"]["certify"]
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


M2 = TracialAlgebra.full_matrix(2)
E11 = M2.operator([np.diag([0.0, 1.0])])
E00 = M2.operator([np.diag([1.0, 0.0])])
ONE = M2.identity()
ZERO = M2.zero()
# inside the corner E11, then leaking 0.5, then leaking 0.9: the error names 0.5
LEAKY = [E11, E11 + 0.5 * E00, E11 + 0.9 * E00]

ERROR_CASES = {
    "measure-empty": ("measure_certify", ([], ZERO, 0.5), {}),
    "bau-empty": ("bau_certify", ([], ZERO, 0.5), {}),
    "measure-length": ("measure_certify", ([ONE], ZERO, 0.5), {"schedule": [1, 2]}),
    "bau-length": ("bau_certify", ([ONE], ZERO, 0.5), {"schedule": [1, 2]}),
    "eps-zero": ("measure_certify", ([ONE], ZERO, 0.0), {}),
    "eps-negative": ("measure_certify", ([], ZERO, -1.0), {}),
    "budget-zero": ("bau_certify", ([ONE], ZERO, 0.0), {}),
    "budget-negative": ("bau_certify", ([], ZERO, -0.5), {}),
    "n0-past-end": ("bau_certify", ([ONE, ONE], ZERO, 0.5), {"n0": 2}),
    "n0-negative": ("bau_certify", ([ONE, ONE], ZERO, 0.5), {"n0": -1}),
    "measure-leak": ("measure_certify", (LEAKY, ZERO, 0.5), {"within": E11}),
    "bau-leak": ("bau_certify", (LEAKY, ZERO, 0.5), {"within": E11}),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_raises_as_the_per_point_oracle(case):
    name, args, kwargs = ERROR_CASES[case]
    raised = []
    for mod in (convergence, oracle):
        with pytest.raises(Exception) as info:
            getattr(mod, name)(*args, **kwargs)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    if case.endswith("leak"):
        assert "leak 5.000e-01" in raised[0][1]
