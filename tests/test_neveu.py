import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit import neveu
from neveukit.algebra import (
    Projection,
    TracialAlgebra,
    op_norm,
    support,
    trace,
    trace_norm,
)
from neveukit.dynamics import FolnerScheme, SemigroupAction, average
from neveukit.maps import SuperOperator, from_classical, from_conjugation, from_kraus
from neveukit.neveu import (
    MeanErgodicValidationError,
    fixed_space,
    inf_profile,
    invariant_state,
    mean_ergodic_projection,
    neveu_decompose,
    wandering_sum,
    SLOPE_THRESHOLD,
    tail_decay_verdict,
    weakly_wandering_certificate,
)

M2 = TracialAlgebra.full_matrix(2)


def amplitude_damping(algebra, g):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    return from_kraus(algebra, [[k0], [k1]])


def zplus_action(*gens):
    algebra = gens[0].algebra
    scheme = FolnerScheme("zplus-box", d=len(gens))
    return SemigroupAction(algebra, "heisenberg", scheme, list(gens))


AD = zplus_action(amplitude_damping(M2, 0.5))
IDENTITY = zplus_action(SuperOperator.identity(M2))
E00 = M2.operator([np.diag([1.0, 0.0])])
E11 = M2.operator([np.diag([0.0, 1.0])])


# ---------------------------------------------------------------------------
# fixed space
# ---------------------------------------------------------------------------


def test_fixed_space_identity_action_is_everything():
    assert len(fixed_space(IDENTITY)) == 4


def test_fixed_space_diagonal_conjugation():
    # Ad_diag(1,-1) fixes the diagonal: dimension 2
    u = np.diag([1.0, -1.0])
    action = zplus_action(from_conjugation(M2, [u]))
    assert len(fixed_space(action)) == 2


def test_fixed_space_amplitude_damping_is_scalars():
    assert len(fixed_space(AD)) == 1


def test_fixed_space_basis_is_trace_orthonormal():
    u = np.diag([1.0, -1.0])
    action = zplus_action(from_conjugation(M2, [u]))
    basis = fixed_space(action)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            g = trace(x.H @ y)
            want = 1.0 if i == j else 0.0
            assert abs(g - want) <= 1e-12


def test_fixed_space_flow_kernel():
    alg = TracialAlgebra.commutative([0.5, 0.5])
    scheme = FolnerScheme("r-plus-cube", d=1)
    L = np.diag([0.0, -1.0]).astype(complex)
    action = SemigroupAction(alg, "heisenberg", scheme, [L])
    assert len(fixed_space(action)) == 1


# ---------------------------------------------------------------------------
# mean ergodic projection
# ---------------------------------------------------------------------------


def test_mean_projection_identity_action():
    proj = mean_ergodic_projection(IDENTITY)
    assert proj.rank == 4
    assert np.max(np.abs(proj.superop.matrix - np.eye(4))) <= 1e-12


def test_mean_projection_amplitude_damping_hits_cesaro_limit():
    proj = mean_ergodic_projection(AD)
    assert proj.rank == 1
    # Cesaro limit of the damping channel sends x to x00 * 1
    rng = np.random.default_rng(5)
    x = M2.random_hermitian(rng)
    limit = M2.identity() * x.block_mats[0][0, 0]
    assert op_norm(proj(x) - limit) <= 1e-9


def test_mean_projection_residuals_within_tolerance():
    proj = mean_ergodic_projection(AD)
    assert proj.residuals["idempotency"] <= 1e-9
    assert proj.residuals["invariance"] <= 1e-9
    assert proj.cross_validation["norm_a64"] <= proj.cross_validation["envelope_a64"]


def test_mean_projection_commutes_with_generators():
    for action in (AD, zplus_action(from_conjugation(M2, [np.diag([1.0, -1.0])]))):
        e = mean_ergodic_projection(action).superop.matrix
        for s in action.generators:
            assert np.linalg.norm(s.matrix @ e - e, 2) <= 1e-9
            assert np.linalg.norm(e @ s.matrix - e, 2) <= 1e-9


def test_mean_projection_validation_catches_fat_cluster():
    # a tolerance wide enough to swallow contracting eigenvalues cannot
    # produce an invariant idempotent; the validation must refuse it
    with pytest.raises(MeanErgodicValidationError):
        mean_ergodic_projection(AD, tol_fixed=0.6)


def test_mean_projection_requires_commuting_generators():
    from neveukit.maps import PreconditionError

    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    action = zplus_action(amplitude_damping(M2, 0.5), swap)
    with pytest.raises(PreconditionError):
        mean_ergodic_projection(action)


def random_block_channel(algebra, rng):
    """x -> (1/4) sum_j U_j* x U_j over four random signed permutation
    unitaries with entries in {1, -1, i, -i}, so sum K*K = 1 exactly."""
    ops = []
    for _ in range(4):
        blocks = []
        for n in algebra.blocks:
            phases = rng.choice(np.array([1.0, -1.0, 1j, -1j]), size=n)
            blocks.append(0.5 * np.eye(n)[rng.permutation(n)] * phases)
        ops.append(blocks)
    return from_kraus(algebra, ops)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=2, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["heisenberg", "schrodinger", "two-generators", "flow"]),
)
def test_mean_projection_residuals_bound_spectral_norms(blocks, seed, kind):
    """The reported residuals are at least the spectral norms of the same
    matrices, on multi-block algebras with non-uniform weights."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    s = random_block_channel(algebra, np.random.default_rng(seed))
    if kind == "flow":
        flow = FolnerScheme("r-plus-cube", d=1)
        action = SemigroupAction(
            algebra, "heisenberg", flow, [s.matrix - np.eye(algebra.dim)]
        )
    elif kind == "two-generators":
        action = zplus_action(s, s @ s)
    else:
        action = zplus_action(s).to_picture(kind)
    proj = mean_ergodic_projection(action)
    e = proj.superop.matrix
    idempotency = np.linalg.norm(e @ e - e, 2)
    invariance = 0.0
    for m in action.matrices:
        if kind == "flow":
            scale = max(1.0, np.linalg.norm(m, 2))
            pair = (np.linalg.norm(m @ e, 2) / scale, np.linalg.norm(e @ m, 2) / scale)
        else:
            pair = (np.linalg.norm(m @ e - e, 2), np.linalg.norm(e @ m - e, 2))
        invariance = max(invariance, *pair)
    # the factor covers rounding in the two norm computations, where the
    # residual matrix has rank one and both norms are equal
    slack = 1.0 - 1e-13
    assert proj.residuals["idempotency"] >= idempotency * slack
    assert proj.residuals["invariance"] >= invariance * slack


def pairing_rows(algebra, functionals):
    """The rows of y -> tau(psi y) in vec coordinates, one per psi."""
    units = [algebra.from_vec(u) for u in np.eye(algebra.dim)]
    return np.array([[trace(psi @ u) for u in units] for psi in functionals])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=2, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["heisenberg", "schrodinger", "flow"]),
)
def test_mean_projection_factors_rebuild_the_projector(blocks, seed, kind):
    """E = sum_i x_i tau(psi_i .) with tau(psi_i x_j) = delta_ij, the x_i
    fixed by the action and the psi_i fixed by its dual: so E is idempotent,
    invariant, and of rank the fixed-space dimension."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    s = random_block_channel(algebra, np.random.default_rng(seed))
    if kind == "flow":
        flow = FolnerScheme("r-plus-cube", d=1)
        action = SemigroupAction(
            algebra, "heisenberg", flow, [s.matrix - np.eye(algebra.dim)]
        )
    else:
        action = zplus_action(s).to_picture(kind)
    proj = mean_ergodic_projection(action)
    xs, psis = proj.fixed_basis, proj.dual_basis
    assert len(xs) == len(psis) == proj.rank
    x = np.array([b.vec() for b in xs]).reshape(proj.rank, algebra.dim).T
    rebuilt = x @ pairing_rows(algebra, psis).reshape(proj.rank, algebra.dim)
    assert np.linalg.norm(rebuilt - proj.superop.matrix, "fro") <= 1e-12
    gram = np.array([[trace(psi @ b) for b in xs] for psi in psis])
    assert np.abs(gram - np.eye(proj.rank)).max(initial=0.0) <= 1e-12
    dual_matrices = action.dual().matrices
    for elems, mats in ((xs, action.matrices), (psis, dual_matrices)):
        for y in elems:
            for m in mats:
                moved = m @ y.vec() if kind == "flow" else m @ y.vec() - y.vec()
                assert op_norm(algebra.from_vec(moved)) <= 1e-12 * max(
                    1.0, op_norm(y)
                )


def test_mean_projection_validation_catches_a_wrong_fixed_subspace(monkeypatch):
    """A tau-orthonormal basis of the right dimension but the wrong subspace
    passes a rank comparison; the factor residual must refuse it."""
    wrong = E00 * np.sqrt(2.0)  # tau(wrong* wrong) = 1, but 1 spans the fixed space
    monkeypatch.setattr(neveu, "fixed_space", lambda action, tol: [wrong])
    with pytest.raises(MeanErgodicValidationError, match="not the fixed space"):
        mean_ergodic_projection(AD)


def test_mean_projection_validation_catches_1e8_perturbation(monkeypatch):
    exact = neveu._cluster_projector
    noise = np.random.default_rng(11).standard_normal((4, 4))
    noise *= 1e-8 / np.linalg.norm(noise, 2)

    def perturbed(mat, center, tol):
        return exact(mat, center, tol) + noise

    monkeypatch.setattr(neveu, "_cluster_projector", perturbed)
    # a fresh action: the projection of AD may already be memoised
    with pytest.raises(MeanErgodicValidationError, match="residuals"):
        mean_ergodic_projection(zplus_action(amplitude_damping(M2, 0.5)))


def test_mean_projection_finite_group():
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    action = SemigroupAction(
        M2, "heisenberg", scheme, [SuperOperator.identity(M2), swap]
    )
    proj = mean_ergodic_projection(action)
    rng = np.random.default_rng(1)
    x = M2.random_hermitian(rng)
    brute = (x + action.generators[1](x)) * 0.5
    assert op_norm(proj(x) - brute) <= 1e-12


# ---------------------------------------------------------------------------
# invariant states
# ---------------------------------------------------------------------------


def test_invariant_state_identity_is_unit_density():
    y = invariant_state(IDENTITY.dual())
    assert op_norm(y - M2.identity()) <= 1e-12
    assert trace(y).real == pytest.approx(1.0)


def test_invariant_state_amplitude_damping_is_ground_state():
    # the unique stationary density of the damping channel, normalized so
    # tau(y) = 1 under tau = tr/2
    y = invariant_state(AD)
    assert op_norm(y - E00 * 2.0) <= 1e-9


def test_invariant_state_accepts_custom_faithful_density():
    rng = np.random.default_rng(3)
    phi0 = M2.random_density(rng)
    y = invariant_state(AD, phi0=phi0)
    assert op_norm(y - E00 * 2.0) <= 1e-9


def test_invariant_state_rejects_unfaithful_seed():
    with pytest.raises(ValueError, match="faithful"):
        invariant_state(AD, phi0=E00)


def test_invariant_state_absent_for_leaking_kernel():
    # strictly substochastic: every state loses half its mass per step
    C2 = TracialAlgebra.commutative([0.5, 0.5])
    leak = from_classical(C2, np.array([[0.5, 0.0], [0.0, 0.5]]))
    action = zplus_action(leak)
    assert invariant_state(action) is None


# ---------------------------------------------------------------------------
# wandering certificates
# ---------------------------------------------------------------------------


def test_certificate_zero_element_passes_trivially():
    cert = weakly_wandering_certificate(AD, M2.zero())
    assert cert.passed
    assert cert.points == []
    assert cert.final == 0.0


def test_certificate_fixed_point_fails_with_constant_norms():
    cert = weakly_wandering_certificate(IDENTITY, M2.identity())
    assert cert.verdict == "fail"
    norms = [n for _, n in cert.points]
    assert all(n == pytest.approx(1.0) for n in norms)


def test_certificate_damping_matches_geometric_oracle():
    g = 0.5
    schedule = list(range(1, 65))
    cert = weakly_wandering_certificate(AD, E11, schedule=schedule)
    assert cert.passed
    for a, norm in cert.points:
        want = (1.0 - (1.0 - g) ** a) / (a * g)
        assert abs(norm - want) <= 1e-10
    assert cert.slope == pytest.approx(-1.0, abs=0.05)


def test_certificate_schedule_validation():
    with pytest.raises(ValueError):
        weakly_wandering_certificate(AD, E11, schedule=[])
    with pytest.raises(ValueError):
        weakly_wandering_certificate(AD, E11, schedule=[0, 1])
    # the schedule is checked before a zero element returns early
    for x in (E11, M2.zero()):
        for schedule in ([2, 1], [1, 2, 2, 4]):
            with pytest.raises(ValueError, match="ascending"):
                weakly_wandering_certificate(AD, x, schedule=schedule)


# ---------------------------------------------------------------------------
# the decomposition
# ---------------------------------------------------------------------------


def test_decompose_identity_action():
    dec = neveu_decompose(IDENTITY)
    assert op_norm(dec.e1 - M2.identity()) <= 1e-12
    assert op_norm(dec.e2) <= 1e-12
    assert op_norm(dec.invariant_density - M2.identity()) <= 1e-12
    assert dec.decay == []
    assert dec.overall


def test_decompose_amplitude_damping():
    dec = neveu_decompose(AD, schedule=[1, 2, 4, 8, 10, 16, 32, 64])
    assert dec.e1.ranks == (1,)
    assert op_norm(dec.e1 - E00) <= 1e-9
    assert op_norm(dec.e2 - E11) <= 1e-9
    assert dec.overall
    decay = dict(dec.decay)
    assert decay[10] == pytest.approx(0.19980468750000002, abs=1e-10)


def test_decompose_classical_absorbing_chain():
    # states 1 and 3 absorbing, state 2 hops to 1: e1 = 1_{1,3}, e2 = 1_{2}
    C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])
    kernel = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    action = zplus_action(from_classical(C3, kernel))
    dec = neveu_decompose(action)
    e1_want = C3.diag([1.0, 0.0, 1.0])
    e2_want = C3.diag([0.0, 1.0, 0.0])
    assert op_norm(dec.e1 - e1_want) <= 1e-9
    assert op_norm(dec.e2 - e2_want) <= 1e-9
    assert dec.overall


def test_decompose_absence_of_invariant_state():
    C2 = TracialAlgebra.commutative([0.5, 0.5])
    leak = from_classical(C2, np.array([[0.25, 0.25], [0.25, 0.25]]))
    action = zplus_action(leak)
    dec = neveu_decompose(action)
    assert dec.invariant_density is None
    assert op_norm(dec.e1) <= 1e-12
    assert op_norm(dec.e2 - C2.identity()) <= 1e-12
    assert dec.overall


def test_decompose_computes_the_invariance_defect_once(monkeypatch):
    """The defect checked by the invariant state is the one reported."""
    calls = []
    original = neveu._invariance_defect

    def counting(schr, y):
        calls.append(y)
        return original(schr, y)

    monkeypatch.setattr(neveu, "_invariance_defect", counting)
    dec = neveu_decompose(AD)
    assert len(calls) == 1
    assert dec.detail["invariance_defect"] == original(AD.dual(), calls[0])


def test_decompose_reports_a_non_invariant_density_as_failed():
    """A projection whose candidate density is not invariant fails the
    ``invariance`` verdict instead of raising; invariant_state still raises."""
    proj = mean_ergodic_projection(AD.dual())
    # phi -> E(phi) + 1e-6 tau(phi) e_11 keeps the candidate positive
    leak = 1e-6 * np.outer(E11.vec(), M2.weight_vec * M2.identity().vec())
    skewed = dataclasses.replace(
        proj, superop=SuperOperator(M2, proj.superop.matrix + leak)
    )
    dec = neveu_decompose(AD, projection=skewed)
    assert dec.verdicts["invariance"] == "fail"
    assert dec.detail["invariance_defect"] > neveu.INVARIANCE_TOL
    assert not dec.overall
    with pytest.raises(ArithmeticError, match="not invariant"):
        invariant_state(AD, projection=skewed)


def test_decompose_corners_are_complementary_projections():
    dec = neveu_decompose(AD)
    assert isinstance(dec.e1, Projection)
    assert isinstance(dec.e2, Projection)
    assert op_norm(dec.e1 + dec.e2 - M2.identity()) <= 1e-12
    assert op_norm(dec.e1 @ dec.e2) <= 1e-12


def test_decompose_uniqueness_verdict_across_seeds():
    for seed in (0, 1, 2, 3):
        dec = neveu_decompose(AD, seed=seed)
        assert dec.verdicts["uniqueness"] == "pass"


def test_decompose_e2_is_subinvariant():
    # Gamma(e2) stays inside the wandering corner: e2 Gamma(e2) e2 = Gamma(e2)
    C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])
    kernel = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    action = zplus_action(from_classical(C3, kernel))
    dec = neveu_decompose(action)
    for s in action.generators:
        ge2 = s(dec.e2)
        assert op_norm(ge2 - dec.e2 @ ge2 @ dec.e2) <= 1e-9
        assert op_norm(ge2) <= 1.0 + 1e-9


def test_decompose_works_from_schrodinger_input():
    dec_h = neveu_decompose(AD)
    dec_s = neveu_decompose(AD.dual())
    assert op_norm(dec_h.e1 - dec_s.e1) <= 1e-12


def test_decompose_flow():
    # Lindblad relaxation toward the first state: same corners as damping
    alg = TracialAlgebra.commutative([0.5, 0.5])
    scheme = FolnerScheme("r-plus-cube", d=1)
    L = np.array([[0.0, 1.0], [0.0, -1.0]], dtype=complex)
    action = SemigroupAction(alg, "heisenberg", scheme, [L.conj().T])
    dec = neveu_decompose(action.dual(), schedule=[1, 2, 4, 8, 16, 32, 64])
    assert dec.e1.ranks == (1, 0)
    assert dec.overall


# ---------------------------------------------------------------------------
# profiles and wandering sums
# ---------------------------------------------------------------------------


def test_inf_profile_identity_is_constant():
    phi = M2.identity()
    prof = inf_profile(IDENTITY, phi, Projection(M2, E00.block_mats), a_max=8)
    for _, v in prof.values:
        assert v == pytest.approx(trace(phi @ E00).real)
    assert prof.min_value == pytest.approx(0.5)


def test_inf_profile_unit_projection_is_one():
    phi = M2.identity()
    one = Projection(M2, M2.identity().block_mats)
    prof = inf_profile(IDENTITY, phi, one, a_max=4)
    assert prof.min_value == pytest.approx(1.0)


def test_inf_profile_wandering_projection_collapses():
    phi = M2.identity()
    p11 = Projection(M2, E11.block_mats)
    prof = inf_profile(AD, phi, p11, a_max=64)
    assert prof.argmin == 64
    assert prof.min_value <= 0.02
    long_prof = inf_profile(AD, phi, p11, a_max=256)
    assert long_prof.min_value < prof.min_value


def test_wandering_sum_single_projection():
    p11 = Projection(M2, E11.block_mats)
    s = wandering_sum([p11])
    assert op_norm(s - E11 * 0.5) <= 1e-15


def test_wandering_sum_orthogonal_pair_support():
    alg = TracialAlgebra.commutative([0.25, 0.25, 0.5])
    q1 = Projection(alg, alg.diag([1.0, 0.0, 0.0]).block_mats)
    q2 = Projection(alg, alg.diag([0.0, 1.0, 0.0]).block_mats)
    s = wandering_sum([q1, q2])
    assert op_norm(s - alg.diag([0.5, 0.25, 0.0])) <= 1e-15
    join = support(s)
    assert op_norm(join - alg.diag([1.0, 1.0, 0.0])) <= 1e-12


def test_wandering_sum_certificate_passes_for_damping_family():
    p11 = Projection(M2, E11.block_mats)
    s = wandering_sum([p11, p11, p11])
    cert = weakly_wandering_certificate(AD, s, schedule=list(range(1, 65)))
    assert cert.passed


def test_wandering_sum_validation():
    p11 = Projection(M2, E11.block_mats)
    with pytest.raises(ValueError):
        wandering_sum([])
    with pytest.raises(ValueError):
        wandering_sum([p11], weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        wandering_sum([E11])


SCHEDULE = (1, 2, 4, 8, 16, 32, 64)


@pytest.mark.parametrize(
    "points, slope_steep, nonincreasing, verdict",
    [
        # the final norm at decay_tol passes although the tail rises
        ([(1, 1.0), (2, 2.0), (4, 1e-6)], True, False, "pass"),
        # fewer than two positive points: no slope to certify
        ([(1, 0.5)], None, True, "fail"),
        ([(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (16, 0.5)], None, False, "fail"),
        # a slope above -0.9 on a non-increasing tail
        ([(a, a**-0.5) for a in SCHEDULE], False, True, "fail"),
        # a steep fit on a tail that rises at its last point
        ([(1, 1.0), (2, 0.5), (4, 0.25), (8, 0.125), (16, 0.0625), (32, 0.02), (64, 0.021)],
         True, False, "fail"),
        # the C/a rate passes
        ([(a, 1.0 / a) for a in SCHEDULE], True, True, "pass"),
    ],
)
def test_tail_decay_verdict_edge_cases(points, slope_steep, nonincreasing, verdict):
    slope, mono, got = tail_decay_verdict(points, decay_tol=1e-6)
    assert (got, mono) == (verdict, nonincreasing)
    if slope_steep is None:
        assert slope is None
    else:
        assert (slope <= SLOPE_THRESHOLD) == slope_steep
