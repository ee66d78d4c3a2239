import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit import convergence, neveu
from neveukit.algebra import (
    Operator,
    Projection,
    TracialAlgebra,
    op_norm,
    spectral_decompose,
    spectral_projection,
    support,
    trace,
)
from neveukit.convergence import (
    HullConvergenceError,
    bau_certify,
    convex_hull_residual,
    corner_compatibility,
    measure_certify,
    moving_bump_counterexample,
    stochastic_run,
)
from neveukit.dynamics import FolnerScheme, SemigroupAction, average, average_super
from neveukit.maps import (
    PreconditionError,
    SuperOperator,
    from_classical,
    from_conjugation,
    from_kraus,
)
from neveukit.neveu import (
    mean_ergodic_projection,
    neveu_decompose,
    weakly_wandering_certificate,
)

M2 = TracialAlgebra.full_matrix(2)
C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])


def amplitude_damping(algebra, g):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    return from_kraus(algebra, [[k0], [k1]])


def zplus_action(*gens, picture="heisenberg"):
    algebra = gens[0].algebra
    scheme = FolnerScheme("zplus-box", d=len(gens))
    return SemigroupAction(algebra, picture, scheme, list(gens))


AD = zplus_action(amplitude_damping(M2, 0.5))
E00 = M2.operator([np.diag([1.0, 0.0])])
E11 = M2.operator([np.diag([0.0, 1.0])])


# ---------------------------------------------------------------------------
# measure certification
# ---------------------------------------------------------------------------


def test_measure_constant_sequence_is_free():
    x = C3.diag([1.0, 2.0, 3.0])
    cert = measure_certify([x, x, x], x, eps=0.5)
    assert cert.passed
    for row, e in zip(cert.rows, cert.witnesses):
        assert row["delta"] == 0.0
        assert op_norm(e - C3.identity()) <= 1e-12
    assert cert.n0 == 1


def test_measure_diagonal_counting_oracle():
    # D_a = diag(3, 1, 0.1)/a at eps = 0.5: excluded mass counts the
    # eigenvalues at or above 0.5 with weight 1/3 each
    d = C3.diag([3.0, 1.0, 0.1])
    seq = [d * (1.0 / a) for a in range(1, 11)]
    cert = measure_certify(seq, C3.zero(), eps=0.5, delta_tol=1e-6)
    deltas = {row["a"]: row["delta"] for row in cert.rows}
    assert deltas[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert deltas[2] == pytest.approx(2.0 / 3.0, abs=1e-15)  # 1.5 and 0.5 excluded
    assert deltas[3] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert deltas[6] == pytest.approx(1.0 / 3.0, abs=1e-15)  # 0.5 sits on the edge
    assert deltas[7] == 0.0
    assert deltas[10] == 0.0
    assert cert.n0 == 7
    assert cert.passed


def test_measure_corner_norm_invariant():
    rng = np.random.default_rng(17)
    seq = [M2.random_hermitian(rng) * (1.0 / a) for a in range(1, 9)]
    cert = measure_certify(seq, M2.zero(), eps=0.3, delta_tol=1.0)
    for row in cert.rows:
        assert row["corner_norm"] <= 0.3 + 1e-12


def test_measure_delta_matches_independent_counting():
    rng = np.random.default_rng(23)
    alg = TracialAlgebra([2, 1], [0.3, 0.4])
    for _ in range(20):
        d = alg.random_hermitian(rng)
        cert = measure_certify([d], alg.zero(), eps=0.7, delta_tol=10.0)
        by_count = sum(
            w * np.sum(np.abs(np.linalg.eigvalsh(m)) >= 0.7 - 1e-10)
            for w, m in zip(alg.weights, d.block_mats)
        )
        assert cert.rows[0]["delta"] == pytest.approx(by_count, abs=1e-15)


def test_measure_damping_corner_oracle():
    # averages of the wandering corner against 0: the excluded mass is the
    # whole corner until the norm dips below eps, then exactly zero
    eps = 0.25
    schedule = list(range(1, 21))
    seq = [average(AD, E11, a) for a in schedule]
    cert = measure_certify(seq, M2.zero(), eps=eps, schedule=schedule, delta_tol=0.6)
    for row, x in zip(cert.rows, seq):
        want = 0.0 if op_norm(x) < eps else 0.5
        assert row["delta"] == pytest.approx(want, abs=1e-15)
    assert cert.passed


def test_measure_within_corner_restricts_witnesses():
    e2 = Projection(M2, E11.block_mats)
    seq = [e2 @ average(AD, E11, a) @ e2 for a in (1, 2, 4, 8, 16, 32)]
    cert = measure_certify(
        seq, M2.zero(), eps=0.25, schedule=[1, 2, 4, 8, 16, 32], delta_tol=0.6, within=e2
    )
    for q in cert.witnesses_active:
        # active parts live inside the corner
        assert op_norm(q @ e2 - q) <= 1e-12
    # full witnesses always contain the complement corner
    e1 = e2.complement()
    for e in cert.witnesses:
        assert op_norm(e @ e1 - e1) <= 1e-12


def test_measure_within_rejects_leaky_sequence():
    e2 = Projection(M2, E11.block_mats)
    with pytest.raises(ValueError, match="corner"):
        measure_certify([M2.identity()], M2.zero(), eps=0.5, within=e2)


def test_measure_validation_errors():
    with pytest.raises(ValueError):
        measure_certify([], M2.zero(), eps=0.5)
    with pytest.raises(ValueError):
        measure_certify([M2.zero()], M2.zero(), eps=0.0)
    with pytest.raises(ValueError):
        measure_certify([M2.zero()], M2.zero(), eps=0.5, schedule=[1, 2])


# ---------------------------------------------------------------------------
# b.a.u. certification
# ---------------------------------------------------------------------------


def test_bau_constant_zero_difference():
    x = C3.diag([1.0, 2.0, 3.0])
    cert = bau_certify([x, x, x], x, delta_budget=0.5)
    assert cert.passed
    assert op_norm(cert.e - C3.identity()) <= 1e-12
    assert cert.excluded_mass == 0.0
    assert cert.final == 0.0


def test_bau_damping_corner_keeps_conservative_part():
    # all deviation mass sits on E11, so the witness is exactly E00
    schedule = [1, 2, 4, 8, 16, 32]
    seq = [average(AD, E11, a) for a in schedule]
    cert = bau_certify(seq, M2.zero(), delta_budget=0.5, schedule=schedule)
    assert cert.passed
    assert op_norm(cert.e - E00) <= 1e-12
    assert cert.excluded_mass == pytest.approx(0.5)
    assert cert.final == 0.0


def test_bau_tail_sups_non_increasing():
    rng = np.random.default_rng(31)
    schedule = list(range(1, 13))
    seq = [M2.random_hermitian(rng) * (1.0 / a**2) for a in schedule]
    cert = bau_certify(seq, M2.zero(), delta_budget=0.9, schedule=schedule)
    sups = [v for _, v in cert.tail]
    assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))


def test_bau_theta_is_minimal_feasible():
    d = C3.diag([3.0, 1.0, 0.1])
    cert = bau_certify([d], C3.zero(), delta_budget=1.0 / 3.0)
    # excluding only the top eigenvalue costs exactly 1/3
    assert cert.theta == pytest.approx(1.0, abs=1e-12)
    assert cert.excluded_mass == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_bau_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        bau_certify([M2.zero()], M2.zero(), delta_budget=0.0)


def test_bau_implies_measure_metamorphic():
    # a passing bau certificate at budget delta yields a passing measure
    # certificate at (eps, delta) for eps at the certified tail level
    schedule = [1, 2, 4, 8, 16, 32, 64]
    seq = [average(AD, E11, a) for a in schedule]
    bau = bau_certify(seq, M2.zero(), delta_budget=0.5, schedule=schedule)
    assert bau.passed
    eps = max(bau.final, 1e-9)
    measure = measure_certify(
        seq, M2.zero(), eps=eps, schedule=schedule, delta_tol=0.5
    )
    assert measure.passed
    for row in measure.rows:
        assert row["delta"] <= 0.5 + 1e-12


def test_certificate_linearity_composition():
    # sum of two certified sequences certifies against the combined limit
    # with summed budgets and |c| eps1 + eps2 tolerance
    c = 2.0
    seq1 = [C3.diag([3.0, 1.0, 0.1]) * (1.0 / a) for a in range(1, 11)]
    seq2 = [C3.diag([0.5, 2.0, 0.3]) * (1.0 / a) for a in range(1, 11)]
    lim1, lim2 = C3.zero(), C3.zero()
    eps1, eps2 = 0.5, 0.4
    cert1 = measure_certify(seq1, lim1, eps=eps1, delta_tol=1.0)
    cert2 = measure_certify(seq2, lim2, eps=eps2, delta_tol=1.0)
    seq = [x * c + y for x, y in zip(seq1, seq2)]
    cert = measure_certify(
        seq, lim1 * c + lim2, eps=abs(c) * eps1 + eps2, delta_tol=1.0
    )
    for row, r1, r2 in zip(cert.rows, cert1.rows, cert2.rows):
        assert row["delta"] <= r1["delta"] + r2["delta"] + 1e-15


# ---------------------------------------------------------------------------
# the separating counterexample
# ---------------------------------------------------------------------------


def test_moving_bump_passes_measure_fails_bau():
    algebra, seq, limit, schedule = moving_bump_counterexample()
    measure = measure_certify(
        seq, limit, eps=0.5, schedule=schedule, delta_tol=0.05
    )
    assert measure.passed
    for row in measure.rows:
        assert row["delta"] == pytest.approx(0.0125, abs=1e-15)

    bau = bau_certify(seq, limit, delta_budget=0.1, schedule=schedule)
    assert bau.verdict == "fail"
    # the kept corner still sees a unit bump at the end of the cycle
    assert bau.final == pytest.approx(1.0)


def test_moving_bump_parameters_validated():
    with pytest.raises(ValueError):
        moving_bump_counterexample(n_cycle=1)
    with pytest.raises(ValueError):
        moving_bump_counterexample(heavy_weight=1.5)


# ---------------------------------------------------------------------------
# the stochastic theorem run
# ---------------------------------------------------------------------------


def test_stochastic_requires_density_picture():
    with pytest.raises(PreconditionError, match="density"):
        stochastic_run(AD, M2.identity())


def test_stochastic_requires_positive_element():
    rng = np.random.default_rng(2)
    x = M2.random_hermitian(rng)
    x = x - M2.identity() * (2.0 * op_norm(x))
    with pytest.raises(ValueError, match="positive"):
        stochastic_run(AD.dual(), x)


def test_stochastic_identity_action_is_trivial():
    action = zplus_action(SuperOperator.identity(M2), picture="schrodinger")
    rng = np.random.default_rng(4)
    x = M2.random_density(rng)
    rep = stochastic_run(action, x)
    assert rep.passed
    assert op_norm(rep.xbar - x) <= 1e-12
    for row in rep.rows:
        assert row["cross_norm"] <= 1e-12


def test_stochastic_damping_full_report():
    rep = stochastic_run(AD.dual(), M2.identity(), eps=0.1, delta=0.1)
    assert rep.passed
    # stationary density of the damping channel
    assert op_norm(rep.xbar - E00 * 2.0) <= 1e-9
    assert rep.burn_in is not None
    # the glued projections satisfy the mass budget past burn-in
    for row in rep.rows:
        if row["past_burn_in"]:
            assert row["tau_excluded"] <= 0.1 + 1e-12
            assert row["cross_norm"] <= row["cross_bound"]


def test_stochastic_cross_bound_value():
    rep = stochastic_run(AD.dual(), M2.identity(), eps=0.1, delta=0.1)
    base = op_norm(rep.p @ rep.xbar @ rep.p)
    want = np.sqrt(0.1 * (0.1 + base)) + 1e-10
    assert rep.rows[0]["cross_bound"] == pytest.approx(want, abs=1e-15)


def test_stochastic_p_active_inside_e1():
    rep = stochastic_run(AD.dual(), M2.identity(), eps=0.1, delta=0.1)
    e1 = rep.decomposition.e1
    assert op_norm(rep.p @ e1 - rep.p) <= 1e-12


def test_stochastic_classical_chain_matrix_power_oracle():
    # absorbing chain: stationary mass accumulates on states 1 and 3
    kernel = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    heis = zplus_action(from_classical(C3, kernel))
    schr = heis.dual()
    x = C3.identity()
    rep = stochastic_run(schr, x, eps=0.2, delta=0.2)
    assert rep.passed
    # independent oracle: iterate the density-picture matrix to its limit
    power = np.linalg.matrix_power(schr.generators[0].matrix, 64)
    want = C3.from_vec(power @ x.vec())
    assert op_norm(rep.xbar - want) <= 1e-9


def test_stochastic_accepts_precomputed_decomposition():
    dec = neveu_decompose(AD.dual())
    rep = stochastic_run(AD.dual(), M2.identity(), decomposition=dec)
    assert rep.decomposition is dec
    assert rep.passed


def test_stochastic_budget_violation_rows():
    """An e1 that misses half of the invariant support (E00 of the identity
    action's 1) leaves tau(1 - r_a) >= 1/2 > delta on every row past
    burn-in; each is flagged and the budget verdict fails."""
    action = zplus_action(SuperOperator.identity(M2), picture="schrodinger")
    x = M2.random_density(np.random.default_rng(4))
    dec = neveu_decompose(action)
    short = dataclasses.replace(dec, e1=Projection(M2, E00.block_mats))
    rep = stochastic_run(action, x, decomposition=short, eps=0.1, delta=0.1)
    assert rep.burn_in == rep.schedule[0]
    for row in rep.rows:
        assert row["past_burn_in"] and row["budget_violation"]
        assert row["tau_excluded"] >= 0.5 - 1e-12
    assert rep.verdicts["budget"] == "fail"
    assert rep.verdicts["bau"] == rep.verdicts["measure"] == "pass"
    assert not rep.passed


def test_stochastic_cross_violation_rows(monkeypatch):
    """Past burn-in the cross bound is Cauchy-Schwarz, so valid input cannot
    violate it; a negative slack pushes the bound below every cross norm,
    and exactly the rows past burn-in are flagged."""
    monkeypatch.setattr(convergence, "CROSS_TERM_SLACK", -1.0)
    rep = stochastic_run(AD.dual(), M2.identity(), eps=0.1, delta=0.1)
    assert rep.burn_in is not None
    flagged = [row["a"] for row in rep.rows if row.get("cross_violation")]
    assert flagged == [row["a"] for row in rep.rows if row["past_burn_in"]]
    assert flagged and len(flagged) < len(rep.rows)
    assert rep.verdicts["cross_term"] == "fail"
    assert rep.verdicts["budget"] == "pass"
    assert not rep.passed


@pytest.mark.parametrize("schedule", [[4, 2], [1, 2, 2, 4]])
def test_stochastic_rejects_a_schedule_that_is_not_strictly_ascending(schedule):
    schr = AD.dual()
    with pytest.raises(ValueError, match="ascending"):
        stochastic_run(schr, M2.identity(), schedule=schedule)
    dec = neveu_decompose(schr)
    with pytest.raises(ValueError, match="ascending"):
        stochastic_run(schr, M2.identity(), schedule=schedule, decomposition=dec)


def test_stochastic_own_decomposition_uses_its_decay_tol(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return neveu_decompose(*args, **kwargs)

    monkeypatch.setattr(convergence, "neveu_decompose", spy)
    stochastic_run(AD.dual(), M2.identity(), decay_tol=1e-3)
    assert [kw["decay_tol"] for kw in seen] == [1e-3]


# ---------------------------------------------------------------------------
# corner compatibility
# ---------------------------------------------------------------------------


def test_corner_compatibility_identity_exact():
    action = zplus_action(SuperOperator.identity(M2))
    dec = neveu_decompose(action)
    rng = np.random.default_rng(6)
    x = M2.random_density(rng)
    rep = corner_compatibility(action, dec, x)
    assert rep.passed
    assert rep.detail["max_deviation"] <= 1e-14


def test_corner_compatibility_permutation_kernel():
    shift = from_classical(
        C3, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    )
    action = zplus_action(shift)
    dec = neveu_decompose(action)
    rng = np.random.default_rng(7)
    x = C3.random_density(rng)
    rep = corner_compatibility(action, dec, x)
    assert rep.passed


def test_corner_compatibility_refuses_depolarizing():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    p = 0.75
    w = np.sqrt(p / 4.0)
    dep = from_kraus(
        M2, [[np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2)], [w * sx], [w * sy], [w * sz]]
    )
    action = zplus_action(dep)
    dec = neveu_decompose(action)
    rng = np.random.default_rng(8)
    x = M2.random_density(rng)
    with pytest.raises(PreconditionError, match="Lamperti"):
        corner_compatibility(action, dec, x)


def test_corner_compatibility_refuses_damping():
    dec = neveu_decompose(AD)
    with pytest.raises(PreconditionError):
        corner_compatibility(AD, dec, M2.identity())


# ---------------------------------------------------------------------------
# convex hull residuals
# ---------------------------------------------------------------------------


def test_hull_fixed_point_residual_zero():
    res = convex_hull_residual(AD, M2.identity(), a=3)
    assert res.residual <= 1e-10


def test_hull_swap_midpoint_exact():
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    action = zplus_action(swap)
    res = convex_hull_residual(action, E11, a=2)
    assert res.residual <= 1e-10
    # the orbit over {0, 1, 2} is (E11, E00, E11): the two copies of E11
    # together carry half the weight, E00 the other half
    assert res.weights[1] == pytest.approx(0.5, abs=1e-6)
    assert res.weights[0] + res.weights[2] == pytest.approx(0.5, abs=1e-6)


def test_hull_damping_geometric_tail():
    g = 0.5
    for a in (2, 4, 8):
        res = convex_hull_residual(AD, E11, a=a)
        assert res.residual <= (1.0 - g) ** a + 1e-10


def third_turn_action():
    """Conjugation by the rotation through 2 pi / 3, of order 3 on M_2,
    over symmetric boxes."""
    theta = 2.0 * np.pi / 3.0
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rot = from_conjugation(M2, [u])
    scheme = FolnerScheme("z-symmetric-box", d=1)
    return SemigroupAction(M2, "heisenberg", scheme, [rot])


def test_hull_symmetric_box_uses_full_orbit():
    res = convex_hull_residual(third_turn_action(), E11, a=1)
    # orbit {-1, 0, 1} covers the full period of order 3: mean is reachable
    assert res.residual <= 1e-6


def test_hull_exhaustion_raises_with_last_iterate(monkeypatch):
    """Past the step cap the solve raises with its last iterate, here the
    best single orbit point; the uncapped solve of the same input takes
    active-set steps and reaches the mean."""
    action = third_turn_action()
    res = convex_hull_residual(action, E11, a=4)
    assert res.iterations >= 1 and res.residual <= 1e-10
    monkeypatch.setattr(convergence, "HULL_STEPS_PER_POINT", 0)
    with pytest.raises(HullConvergenceError, match="0 active-set steps") as err:
        convex_hull_residual(action, E11, a=4)
    weights = err.value.weights
    assert weights.shape == (9,)
    assert sorted(weights) == [0.0] * 8 + [1.0]
    assert err.value.residual > 1e-3
    assert err.value.objective > res.objective


def test_hull_finite_group_residual_zero():
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    action = SemigroupAction(
        M2, "heisenberg", scheme, [SuperOperator.identity(M2), swap]
    )
    res = convex_hull_residual(action, E11, a=1)
    assert res.residual <= 1e-10


def random_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


def contracting_kraus(algebra, rng):
    """A random Heisenberg channel with sum K*K <= 1/1.01."""
    (n,) = algebra.blocks
    gs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    scale = 1.0 / np.sqrt(np.linalg.eigvalsh(sum(g.conj().T @ g for g in gs)).max() * 1.01)
    return from_kraus(algebra, [[g * scale] for g in gs])


def random_hull_case(kind, n, rng):
    """A random Heisenberg action on M_n and an orbit budget a for it: at
    most 9 orbit points, except the flow's 17."""
    algebra = TracialAlgebra.full_matrix(n)
    if kind == "kraus":
        return zplus_action(contracting_kraus(algebra, rng)), int(rng.integers(1, 9))
    if kind == "mixed-unitary":
        mat = sum(
            p * from_conjugation(algebra, [random_unitary(n, rng)]).matrix
            for p in rng.dirichlet(np.ones(3))
        )
        return zplus_action(SuperOperator(algebra, mat)), int(rng.integers(1, 9))
    if kind == "commuting-unitary":
        # two unitaries diagonal in one random basis, over a 2 x 2 or 3 x 3 box
        v = random_unitary(n, rng)
        us = [v * np.exp(2j * np.pi * rng.random(n)) @ v.conj().T for _ in range(2)]
        gens = [from_conjugation(algebra, [u]) for u in us]
        return zplus_action(*gens), int(rng.integers(1, 3))
    if kind == "z-symmetric-box":
        scheme = FolnerScheme("z-symmetric-box", d=1)
        gen = from_conjugation(algebra, [random_unitary(n, rng)])
        return SemigroupAction(algebra, "heisenberg", scheme, [gen]), int(rng.integers(1, 5))
    if kind == "finite-group":
        # the cyclic group of an order-m unitary, m in 2..6
        order = int(rng.integers(2, 7))
        v = random_unitary(n, rng)
        phases = np.exp(2j * np.pi * rng.integers(0, order, n) / order)
        table = tuple(tuple((g + h) % order for h in range(order)) for g in range(order))
        gens = [
            from_conjugation(algebra, [v * phases**g @ v.conj().T]) for g in range(order)
        ]
        scheme = FolnerScheme("finite-group", order=order, table=table)
        return SemigroupAction(algebra, "heisenberg", scheme, gens), 1
    # x -> i[h, x], damped by a tenth of (S - 1) for a contracting channel S
    h = algebra.random_hermitian(rng)
    cols = [(1j * (h @ y - y @ h)).vec() for y in map(algebra.from_vec, np.eye(algebra.dim))]
    damping = contracting_kraus(algebra, rng).matrix - np.eye(algebra.dim)
    flow = np.column_stack(cols) + 0.1 * damping
    scheme = FolnerScheme("r-plus-cube", d=1)
    return SemigroupAction(algebra, "heisenberg", scheme, [flow]), float(rng.uniform(0.5, 4.0))


def face_kkt_weights(m, b):
    """The weights on the columns of m, summing to 1, of the point of their
    affine hull nearest to b: the face's bordered KKT system in least
    squares."""
    k = m.shape[1]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (m.conj().T @ m).real
    kkt[k, k] = 0.0
    rhs = np.append(2.0 * (m.conj().T @ b).real, 1.0)
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def brute_force_hull_objective(m, b):
    """min ||m mu - b||^2 over the simplex: the face KKT solve on every
    subset of columns, keeping the best feasible one."""
    best = np.inf
    for size in range(1, m.shape[1] + 1):
        for face in itertools.combinations(range(m.shape[1]), size):
            mu = face_kkt_weights(m[:, face], b)
            if mu.min() >= -1e-12:
                r = m[:, face] @ mu - b
                best = min(best, float(np.vdot(r, r).real))
    return best


def test_z_symmetric_rotation_near_a_dirichlet_zero_is_accepted():
    """Conjugation by a Haar unitary U on M_2 with eigenphase difference
    phi = 1.3346: the symmetric averages are Dirichlet kernels
    sin((2a+1) phi/2) / ((2a+1) sin(phi/2)), and 33 phi/2 lies 0.03 from a
    multiple of pi, so ||A_16 - E|| sits near a kernel zero and no C/a
    envelope calibrated at a = 16 covers a = 64.  E is the pinching onto
    the eigenprojections of U, and ||A_64 - E|| obeys the bound
    2 ||Z - E|| / 129 of the group-inverse identity for a unitary S."""
    action, _ = random_hull_case("z-symmetric-box", 2, np.random.default_rng(2))
    lam, v = np.linalg.eig(random_unitary(2, np.random.default_rng(2)))
    assert abs(np.angle(lam[0] / lam[1])) == pytest.approx(1.3346, abs=1e-4)
    proj = mean_ergodic_projection(action)
    assert proj.cross_validation["kappa"] == pytest.approx(1.35, abs=0.01)
    algebra = action.algebra
    eigenprojections = [np.outer(v[:, k], v[:, k].conj()) for k in range(2)]
    for x in map(algebra.from_vec, np.eye(algebra.dim)):
        (m,) = x.block_mats
        pinched = algebra.operator([sum(p @ m @ p for p in eigenprojections)])
        assert op_norm(proj(x) - pinched) <= 1e-12
    e = proj.superop.matrix
    (s,) = action.matrices
    z, _ = neveu._group_inverse(e, s - np.eye(algebra.dim))
    a64 = average_super(action, 64).matrix
    assert np.linalg.norm(a64 - e, 2) <= 2.0 * np.linalg.norm(z - e, 2) / 129


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        [
            "kraus",
            "mixed-unitary",
            "commuting-unitary",
            "z-symmetric-box",
            "finite-group",
            "flow",
        ]
    ),
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hull_weights_are_optimal(kind, n, seed):
    """Up to 9 orbit points the objective matches the brute-force optimum
    over all faces; on the flow's 17 points the weights, alone, satisfy the
    KKT conditions: mu >= 0, sum(mu) = 1, and every gradient is at least
    the multiplier grad . mu, with equality on the support."""
    rng = np.random.default_rng(seed)
    action, a = random_hull_case(kind, n, rng)
    x = action.algebra.random_hermitian(rng)
    projection = mean_ergodic_projection(action)
    res = convex_hull_residual(action, x, a, projection=projection)

    sw = np.sqrt(action.algebra.weight_vec)
    m = np.column_stack(convergence._orbit_vectors(action, x, a)) * sw[:, None]
    b = projection(x).vec() * sw
    mu = res.weights
    assert mu.shape == (m.shape[1],) == (res.orbit_size,)
    assert mu.min() >= 0.0
    assert abs(mu.sum() - 1.0) <= 1e-12
    r = m @ mu - b
    assert res.objective == pytest.approx(float(np.vdot(r, r).real), rel=1e-12, abs=1e-15)
    if kind == "flow":
        assert m.shape[1] == 17
        grad = 2.0 * (m.conj().T @ r).real
        nu = grad @ mu
        scale = max(np.max(np.sum(abs(m) ** 2, axis=0)), float(np.vdot(b, b).real))
        assert grad.min() >= nu - 1e-10 * scale
        assert np.abs(grad[mu > 0.0] - nu).max() <= 1e-10 * scale
    else:
        assert m.shape[1] <= 9
        best = brute_force_hull_objective(m, b)
        assert abs(res.objective - best) <= 1e-10 * best + 1e-14


# ---------------------------------------------------------------------------
# schedule-wide norms and decompositions are batched
# ---------------------------------------------------------------------------

# Each hermitian test of a single operator takes its own norms once per
# operator; it is not counted.  Witness projections are built with their
# ranks and take none.
ADMISSION_CODE = (Operator.is_hermitian.__code__,)
COUNTED = ("norm", "svd", "eigh")


def certificate_linalg_calls(monkeypatch, run):
    """np.linalg norm, svd and eigh calls made by ``run()`` outside the
    admission checks."""
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in ADMISSION_CODE:
                frame = frame.f_back
            if frame is None:
                calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        for name in COUNTED:
            m.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        run()
    return calls


def test_certificate_norm_calls_do_not_grow_with_the_schedule(monkeypatch):
    """The norm, svd and eigh calls of each certificate do not depend on the
    number of schedule points.  The skewed inputs are not hermitian, so
    their |d| takes the SVD branch; the corners of stochastic_run are
    hermitian only up to rounding, so their hermiticity test takes norms."""
    alg = TracialAlgebra([2, 1], [0.25, 0.5])
    rng = np.random.default_rng(12)
    limit = alg.random_hermitian(rng)
    schr = AD.dual()
    counts = {}
    for n in (4, 16):
        # a fresh decomposition: its corners cache their own eigh
        dec = neveu_decompose(schr)
        schedule = list(range(1, n + 1))
        seq = [limit + (1.0 / a) * alg.random_hermitian(rng) for a in schedule]
        skew = [
            x + (0.5 / a) * alg.operator([np.triu(m, 1) for m in x.block_mats])
            for a, x in zip(schedule, seq)
        ]
        runs = {
            "measure": lambda: measure_certify(seq, limit, 0.3, schedule=schedule),
            "bau": lambda: bau_certify(seq, limit, 0.2, schedule=schedule),
            "measure-skew": lambda: measure_certify(
                skew, limit, 0.3, schedule=schedule
            ),
            "bau-skew": lambda: bau_certify(skew, limit, 0.2, schedule=schedule),
            "stochastic": lambda: stochastic_run(
                schr, M2.identity(), schedule=schedule, decomposition=dec
            ),
            "wandering": lambda: weakly_wandering_certificate(
                AD, E11, schedule=schedule, window=3
            ),
        }
        counts[n] = {
            k: certificate_linalg_calls(monkeypatch, f) for k, f in runs.items()
        }
    assert counts[4] == counts[16]


# ---------------------------------------------------------------------------
# projections built inside the package pass the outside admission
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 4), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_built_projections_pass_admission_with_their_ranks(blocks, seed):
    """support, spectral_decompose, spectral_projection, complement and the
    measure / b.a.u. witnesses (on the whole algebra and inside a corner)
    build projections without admission; each must pass
    Projection(algebra, mats) with the ranks it was built with."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    mats = []
    for n in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g[:, int(rng.integers(0, n + 1)) :] = 0.0  # rank-deficient in general
        mats.append(g @ g.conj().T)
    corner = support(algebra.operator(mats))
    h = algebra.random_hermitian(rng)
    lam = np.concatenate([v for v, _ in h.eigh()])
    t = float(rng.uniform(lam.min(), lam.max()))

    built = [corner] + [p for _, p in spectral_decompose(h)]
    built += [
        spectral_projection(h, (t, None)),
        spectral_projection(h, (None, t)),
        spectral_projection(h, (lam.max() + 1.0, None)),
    ]
    built += [p.complement() for p in built]
    seq = [(1.0 / a) * h for a in (1, 2, 4, 8)]
    for within in (None, corner, corner.complement()):
        seq_in = seq if within is None else [within @ x @ within for x in seq]
        m = measure_certify(seq_in, algebra.zero(), 0.3, within=within)
        b = bau_certify(seq_in, algebra.zero(), 0.3, within=within)
        built += m.witnesses + m.witnesses_active + [b.e, b.e_active]
    for p in built:
        assert isinstance(p, Projection)
        assert Projection(algebra, p.block_mats).ranks == p.ranks
