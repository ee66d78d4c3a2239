import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit.algebra import Operator, TracialAlgebra, _to_hermitian, _to_vec, op_norm, trace
from neveukit.maps import (
    CheckReport,
    PreconditionError,
    SuperOperator,
    check_commuting,
    check_contraction,
    check_lamperti,
    dual,
    from_classical,
    from_conjugation,
    from_kraus,
    from_matrix,
    pairing,
)

M2 = TracialAlgebra.full_matrix(2)
C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])


def amplitude_damping(algebra, g):
    """Heisenberg-form amplitude damping channel on M2."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    return from_kraus(algebra, [[k0], [k1]])


def depolarizing(algebra, p=0.75):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    w = np.sqrt(p / 4.0)
    ops = [[np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2)], [w * sx], [w * sy], [w * sz]]
    return from_kraus(algebra, ops)


def random_op(algebra, rng):
    return algebra.operator(
        [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in algebra.blocks
        ]
    )


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dual_is_an_involution():
    s = amplitude_damping(M2, 0.5)
    again = dual(dual(s))
    assert np.max(np.abs(again.matrix - s.matrix)) <= 1e-12


def test_dual_pairing_identity_uniform_weights():
    rng = np.random.default_rng(7)
    s = amplitude_damping(M2, 0.3)
    sd = dual(s)
    for _ in range(5):
        x, y = random_op(M2, rng), random_op(M2, rng)
        lhs = pairing(sd(x), y)
        rhs = pairing(x, s(y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_dual_pairing_identity_weighted_blocks():
    # tau(dual(S)(x) y) = tau(x S(y)) must survive unequal block weights.
    alg = TracialAlgebra([2, 1], [0.3, 0.4])
    kernel = np.array([[0.6, 0.4], [0.2, 0.8]])
    # build a block-mixing map by hand: acts on the 2x2 block diagonal and
    # the scalar block through a classical kernel on their diagonals
    s = from_matrix(alg, np.eye(alg.dim) * 0.9)
    rng = np.random.default_rng(11)
    sd = dual(s)
    for _ in range(5):
        x, y = random_op(alg, rng), random_op(alg, rng)
        assert abs(pairing(sd(x), y) - pairing(x, s(y))) <= 1e-10
    # a genuinely weight-sensitive case: commutative with distinct atoms
    calg = TracialAlgebra.commutative([0.5, 0.3, 0.2])
    k = from_classical(calg, kernel=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    kd = dual(k)
    for _ in range(5):
        x, y = random_op(calg, rng), random_op(calg, rng)
        assert abs(pairing(kd(x), y) - pairing(x, k(y))) <= 1e-10


def test_dual_of_conjugation_is_inverse_conjugation():
    theta = 0.37
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    ad_u = from_conjugation(M2, [u])
    ad_u_star = from_conjugation(M2, [u.conj().T])
    assert np.max(np.abs(dual(ad_u).matrix - ad_u_star.matrix)) <= 1e-12


def test_dual_of_heisenberg_kraus_is_schrodinger_kraus():
    # Heisenberg x -> sum K* x K dualizes to rho -> sum K rho K*.
    g = 0.5
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    heis = from_kraus(M2, [[k0], [k1]])
    sch = dual(heis)
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_op(M2, rng)
        direct = M2.operator(
            [
                k0 @ rho.block_mats[0] @ k0.conj().T
                + k1 @ rho.block_mats[0] @ k1.conj().T
            ]
        )
        assert op_norm(sch(rho) - direct) <= 1e-12


def test_dual_transfers_attestations():
    s = amplitude_damping(M2, 0.5)
    sd = dual(s)
    assert sd.is_attested("complete-positivity")
    assert sd.is_attested("l1-contractive")


# ---------------------------------------------------------------------------
# constructors and their validation
# ---------------------------------------------------------------------------


def test_from_kraus_rejects_superunital_family():
    k = np.array([[1.1, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="subunitality"):
        from_kraus(M2, [[k]])


def test_from_kraus_attests_by_construction():
    s = amplitude_damping(M2, 0.25)
    for name in ("complete-positivity", "subunital", "contraction"):
        assert s.attestations[name].passed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 4), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_kraus_applies_the_kraus_sum(blocks, count, seed):
    """from_kraus(alg, ks)(x) = sum_j K_j* x K_j within 1e-12 max(1, ||x||),
    for random Kraus lists scaled so that sum_j K_j* K_j <= 1."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    ks = [random_op(algebra, rng) for _ in range(count)]
    lam = op_norm(sum((k.H @ k for k in ks), algebra.zero()))
    scale = float(rng.uniform(0.5, 1.0)) / np.sqrt(lam)
    ks = [scale * k for k in ks]
    s = from_kraus(algebra, ks)
    for _ in range(3):
        x = random_op(algebra, rng)
        direct = sum((k.H @ x @ k for k in ks), algebra.zero())
        assert op_norm(s(x) - direct) <= 1e-12 * max(1.0, op_norm(x))


@pytest.mark.parametrize(
    "blocks, weights, count",
    [([3], [1.0], 1), ([5], [1.0], 6), ([4, 2, 1], [0.5, 1.5, 1.0], 3), ([1, 1], [0.5, 0.5], 2)],
)
def test_from_kraus_matches_the_kron_sum(blocks, weights, count):
    """The one product of the stacked Kraus operators per block is the block
    sum_j kron(K_j^T, K_j*) of x -> sum_j K_j* x K_j in vec coordinates,
    within 1e-14 relative (not bitwise: the sums run in another order)."""
    algebra = TracialAlgebra(blocks, weights)
    rng = np.random.default_rng(7)
    ks = [random_op(algebra, rng) for _ in range(count)]
    scale = 0.9 / np.sqrt(op_norm(sum((k.H @ k for k in ks), algebra.zero())))
    ks = [scale * k for k in ks]
    want = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    off = 0
    for i, n in enumerate(blocks):
        want[off : off + n * n, off : off + n * n] = sum(
            np.kron(k.block_mats[i].T, k.block_mats[i].conj().T) for k in ks
        )
        off += n * n
    got = from_kraus(algebra, ks).matrix
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_from_classical_negative_entry_names_position():
    kernel = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, -0.2, 1.0]])
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        from_classical(C3, kernel)


def test_from_classical_row_sum_error_names_row():
    kernel = np.array([[0.5, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="row 0"):
        from_classical(C3, kernel)


def test_from_classical_requires_commutative_algebra():
    with pytest.raises(ValueError, match="commutative"):
        from_classical(M2, np.eye(1))


def test_from_conjugation_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        from_conjugation(M2, [np.array([[1.0, 0.0], [0.0, 0.5]])])


def test_from_matrix_samples_positivity():
    s = from_matrix(M2, np.eye(4))
    assert s.attestations["positivity-sampled"].passed
    t = from_matrix(M2, -np.eye(4))
    assert t.attestations["positivity-sampled"].verdict == "fail"
    assert t.attestations["positivity-sampled"].witness is not None


def test_identity_superoperator():
    """The identity is exactly the identity matrix in the hermitian basis,
    and applies to x exactly as the basis change there and back."""
    s = SuperOperator.identity(M2)
    assert np.array_equal(s.hermitian(), np.eye(M2.dim))
    rng = np.random.default_rng(0)
    x = random_op(M2, rng)
    round_trip = M2.from_vec(_to_vec(M2, _to_hermitian(M2, x.vec())))
    assert op_norm(s(x) - round_trip) == 0.0


def test_composition_keeps_joint_attestations():
    a = amplitude_damping(M2, 0.5)
    b = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    both = a @ b
    assert both.is_attested("complete-positivity")
    assert both.is_attested("subunital")
    # lamperti holds for b alone, so the composite does not keep it
    assert not both.is_attested("lamperti")
    assert (b @ b).is_attested("lamperti")


# ---------------------------------------------------------------------------
# contraction check
# ---------------------------------------------------------------------------


def test_contraction_exact_path_for_cp_maps():
    s = amplitude_damping(M2, 0.5)
    rep = check_contraction(s)
    assert rep.passed
    assert rep.detail["norm_of_unit_image"] <= 1.0 + 1e-9


def test_contraction_exact_path_detects_expansion():
    k = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = from_kraus(M2, [[k]])
    # manufacture an expansive CP map by scaling the certified one
    t = SuperOperator(
        M2, 1.5 * s.matrix, source="kraus", attestations=dict(s.attestations)
    )
    rep = check_contraction(t)
    assert rep.verdict == "fail"
    assert rep.witness is not None


def test_contraction_without_certificate_stays_unknown():
    # a contractive map given as a raw matrix: sampling cannot certify
    s = from_matrix(M2, 0.5 * np.eye(4))
    rep = check_contraction(s)
    assert rep.verdict == "unknown"
    assert rep.detail["power_iteration_estimate"] <= 1.0 + 1e-9


def test_contraction_raw_matrix_expansion_fails():
    s = from_matrix(M2, 3.0 * np.eye(4))
    rep = check_contraction(s)
    assert rep.verdict == "fail"


# ---------------------------------------------------------------------------
# lamperti check
# ---------------------------------------------------------------------------


def test_lamperti_passes_permutation_conjugation():
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert check_lamperti(swap).passed


def test_lamperti_passes_deterministic_kernel():
    # f -> f o phi for the map phi: 1->1, 2->1, 3->3 (merging, still Lamperti
    # in the Heisenberg direction: disjoint supports pull back to disjoint)
    kernel = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    s = from_classical(C3, kernel)
    assert check_lamperti(s).passed


def test_lamperti_fails_depolarizing_with_witness():
    s = depolarizing(M2)
    rep = check_lamperti(s)
    assert rep.verdict == "fail"
    a, b = rep.witness
    # the witness is a genuinely disjoint pair mapped to overlapping images
    assert op_norm(a @ b) <= 1e-12
    assert op_norm(s(a) @ s(b)) > 1e-9


def test_lamperti_fails_mixing_kernel_on_diagonal_units():
    kernel = np.array(
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
    )
    s = from_classical(C3, kernel)
    rep = check_lamperti(s)
    assert rep.verdict == "fail"
    assert rep.witness is not None


def test_lamperti_requires_positivity_attestation():
    s = SuperOperator(M2, np.eye(4))
    with pytest.raises(PreconditionError):
        check_lamperti(s)


# ---------------------------------------------------------------------------
# commutation
# ---------------------------------------------------------------------------


def test_commuting_pass_for_powers():
    s = amplitude_damping(M2, 0.5)
    rep = check_commuting([s, s @ s])
    assert rep.passed


def test_commuting_fail_for_damping_against_swap():
    # conjugations by anticommuting unitaries still commute as superoperators
    # (the scalar phase cancels), so use a channel against a rotation instead
    s = amplitude_damping(M2, 0.5)
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    rep = check_commuting([s, swap])
    assert rep.verdict == "fail"
    assert rep.witness == (0, 1)
    assert rep.detail["max_commutator_norm"] > 1e-3


def test_commuting_pass_for_anticommuting_pauli_conjugations():
    sx = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    sz = from_conjugation(M2, [np.array([[1.0, 0.0], [0.0, -1.0]])])
    assert check_commuting([sx, sz]).passed


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_check_report_passed_property():
    assert CheckReport("x", "pass").passed
    assert not CheckReport("x", "fail").passed
    assert not CheckReport("x", "unknown").passed


def test_composition_operator():
    s = amplitude_damping(M2, 0.5)
    t = s @ s
    rng = np.random.default_rng(5)
    x = random_op(M2, rng)
    assert op_norm(t(x) - s(s(x))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=2, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_pairing_and_involution_on_weighted_blocks(blocks, seed):
    """tau(dual(S)(x) y) = tau(x S(y)) and dual(dual(S)) = S for a random
    block-mixing S on a multi-block algebra with non-uniform weights."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    d = algebra.dim
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = SuperOperator(algebra, mat)
    x, y = random_op(algebra, rng), random_op(algebra, rng)
    lhs = trace(dual(s)(x) @ y)
    rhs = trace(x @ s(y))
    # each side is a sum of terms w_u w_v / w_u' S[.,.] x_. y_., bounded by
    # max(w)^2 / min(w) times the Frobenius norms
    w = np.array(algebra.weights)
    norms = np.linalg.norm(mat) * np.linalg.norm(x.vec()) * np.linalg.norm(y.vec())
    assert abs(lhs - rhs) <= 1e-12 * (w.max() ** 2 / w.min()) * norms
    np.testing.assert_allclose(dual(dual(s)).matrix, s.matrix, rtol=1e-13, atol=0)
