import dataclasses

import numpy as np
import pytest
import scipy.linalg
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
from neveukit.dynamics import FolnerScheme, SemigroupAction, average, average_super
from neveukit.maps import (
    SuperOperator,
    dual,
    from_classical,
    from_conjugation,
    from_kraus,
)
from neveukit.neveu import (
    MeanErgodicValidationError,
    fixed_space,
    inf_profile,
    invariant_state,
    mean_ergodic_projection,
    neveu_decompose,
    reference_density,
    wandering_sum,
    SLOPE_THRESHOLD,
    tail_decay_verdict,
    weakly_wandering_certificate,
)
from neveukit.scenarios import gallery

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
    # on vec(x) = (x00, x01, x10, x11), E - G = 1 - S + E is 1 - sqrt(1/2) on
    # x01 and x10 and [[1, 0], [1/2, 1/2]] on (x00, x11); the inverse has the
    # column sums 2 + sqrt(2), 2 + sqrt(2), 2 and 2, so its 1-norm (the one
    # the certificate takes) is 2 + sqrt(2), as is its 2-norm
    assert proj.cross_validation == {
        "kappa": pytest.approx(2.0 + np.sqrt(2.0), rel=1e-12),
        "kappa_bound": neveu.KAPPA_BOUND,
    }


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
    monkeypatch.setattr(neveu, "_fixed_basis", lambda algebra, parts, nulls: [wrong])
    with pytest.raises(MeanErgodicValidationError, match="not the fixed space"):
        mean_ergodic_projection(AD)


def test_mean_projection_validation_catches_1e8_perturbation(monkeypatch):
    exact = neveu._summand_projector
    noise = np.random.default_rng(11).standard_normal((4, 4))
    noise *= 1e-8 / np.linalg.norm(noise, 2)

    def perturbed(gens, nulls):
        e, kappa = exact(gens, nulls)
        return e + noise, kappa

    monkeypatch.setattr(neveu, "_summand_projector", perturbed)
    # a fresh action: the projection of AD may already be memoised
    with pytest.raises(MeanErgodicValidationError, match="residuals"):
        mean_ergodic_projection(zplus_action(amplitude_damping(M2, 0.5)))


def test_mean_projection_validation_catches_a_dropped_fixed_direction(monkeypatch):
    """Dephasing fixes the diagonal of M_2; a projector that drops the E00
    direction is still an invariant idempotent (its residuals are 0), so
    only the rank comparison with the fixed space can refuse it."""
    exact = neveu._summand_projector
    drop = np.zeros((4, 4))
    drop[0, 0] = 1.0  # vec coordinate 0 is the E00 entry

    def dropping(gens, nulls):
        e, kappa = exact(gens, nulls)
        return e - drop, kappa

    monkeypatch.setattr(neveu, "_summand_projector", dropping)
    action = zplus_action(from_conjugation(M2, [np.diag([1.0, -1.0])]))
    with pytest.raises(MeanErgodicValidationError, match="spectral rank 1 != "):
        mean_ergodic_projection(action)


def test_mean_projection_validation_catches_a_summand_misplaced_basis(monkeypatch):
    """A swap of atoms 0, 1 beside a symmetric kernel on atoms 2, 3 fixes
    one direction per summand.  A fixed-space basis of the right total
    size but held in the first summand alone is refused by the per-summand
    rank check."""
    kernel = np.zeros((4, 4))
    kernel[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    kernel[2:, 2:] = [[0.75, 0.25], [0.25, 0.75]]
    algebra = TracialAlgebra.commutative([0.1, 0.2, 0.3, 0.4])
    action = zplus_action(from_classical(algebra, kernel))
    assert len(action._summands()) == 2
    first = [algebra.diag([1.0, 1.0, 0.0, 0.0]), algebra.diag([1.0, -1.0, 0.0, 0.0])]
    monkeypatch.setattr(neveu, "_fixed_basis", lambda algebra, parts, nulls: first)
    with pytest.raises(MeanErgodicValidationError, match=r"\[1, 1\] != .* \[2, 0\]"):
        mean_ergodic_projection(action)


def certificate_inputs(action):
    """The mean ergodic projection E of a one-generator zplus action and its
    G = S - 1."""
    (s,) = action.matrices
    return mean_ergodic_projection(action).superop.matrix, s - np.eye(s.shape[0])


def test_group_inverse_certificate_passes_the_exact_projector():
    """On amplitude damping, kappa = ||(E - G)^-1||_1 = 2 + sqrt(2) (the
    hand computation is in test_mean_projection_residuals_within_tolerance)
    and Z inverts E - G."""
    e, g = certificate_inputs(AD)
    z, kappa = neveu._group_inverse(e, g)
    assert kappa == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-12)
    assert np.abs(z @ (e - g) - np.eye(4)).max() <= 1e-15


def test_group_inverse_certificate_refuses_a_missing_fixed_direction():
    """E without one fixed direction x: E - G kills x.  Amplitude damping
    has one fixed direction, and E - G with E = 0 has a zero row, so the LU
    meets an exact zero pivot; the chain with two absorbing atoms loses
    x_0 tau(psi_0 .), and E - G is singular up to rounding."""
    e, g = certificate_inputs(AD)
    with pytest.raises(MeanErgodicValidationError, match="singular"):
        neveu._group_inverse(np.zeros_like(e), g)
    algebra = TracialAlgebra.commutative([0.5, 0.3, 0.2])
    kernel = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    action = zplus_action(from_classical(algebra, kernel))
    proj = mean_ergodic_projection(action)
    assert proj.rank == 2
    e, g = certificate_inputs(action)
    x0 = proj.fixed_basis[0].vec()
    f0 = x0.conj() @ (algebra.weight_vec[:, None] * e)
    with pytest.raises(MeanErgodicValidationError):
        neveu._group_inverse(e - np.outer(x0, f0), g)


def test_group_inverse_certificate_refuses_kappa_above_the_bound(monkeypatch):
    """With the bound below 2 + sqrt(2) the exact amplitude-damping E is
    refused, and with it below 1, under every kappa of the gallery, every
    gallery projection is."""
    e, g = certificate_inputs(AD)
    monkeypatch.setattr(neveu, "KAPPA_BOUND", 3.0)
    with pytest.raises(MeanErgodicValidationError, match="3.414e\\+00 above"):
        neveu._group_inverse(e, g)
    monkeypatch.setattr(neveu, "KAPPA_BOUND", 0.5)
    for scenario in gallery():
        with pytest.raises(MeanErgodicValidationError, match="group-inverse"):
            mean_ergodic_projection(scenario.action)


def test_fixed_space_basis_is_trace_orthonormal_across_weighted_atoms():
    """A classical chain with two absorbing atoms of different weights: the
    SVD null vectors mix atoms, so their weighted Gram matrix is not
    diagonal and the Cholesky factor must be applied as L^-*."""
    algebra = TracialAlgebra.commutative([0.5, 0.3, 0.2])
    kernel = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    action = zplus_action(from_classical(algebra, kernel))
    basis = fixed_space(action)
    gram = np.array([[trace(a.H @ b) for b in basis] for a in basis])
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    proj = mean_ergodic_projection(action)
    assert proj.rank == 2
    assert proj.factor_residual <= 1e-12


def random_unitary(n, rng):
    """A Haar unitary: the QR factor with the phases of diag(R) divided out."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / abs(np.diag(r)))


def reflection(n, rng):
    """The Householder reflection 1 - 2 v v* / |v|^2, a unitary of order 2."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.eye(n) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real


def random_heisenberg_action(algebra, kind, rng):
    if kind == "classical-kernel":
        # two absorbing atoms: the harmonic functions overlap on the
        # transient atoms, so their weighted Gram matrix is not diagonal
        m = algebra.n_blocks
        kernel = rng.dirichlet(np.ones(m), size=m)
        kernel[: min(2, m)] = np.eye(m)[: min(2, m)]
        return zplus_action(from_classical(algebra, kernel))
    if kind == "z-symmetric-box":
        u = [random_unitary(n, rng) for n in algebra.blocks]
        scheme = FolnerScheme("z-symmetric-box", d=1)
        return SemigroupAction(
            algebra, "heisenberg", scheme, [from_conjugation(algebra, u)]
        )
    if kind == "finite-group":
        u = [reflection(n, rng) for n in algebra.blocks]
        scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
        gens = [SuperOperator.identity(algebra), from_conjugation(algebra, u)]
        return SemigroupAction(algebra, "heisenberg", scheme, gens)
    s = random_block_channel(algebra, rng)
    if kind == "flow":
        flow = FolnerScheme("r-plus-cube", d=1)
        return SemigroupAction(
            algebra, "heisenberg", flow, [s.matrix - np.eye(algebra.dim)]
        )
    if kind == "zplus-box-2":
        return zplus_action(s, s @ s)
    return zplus_action(s)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(
        [
            "zplus-box",
            "zplus-box-2",
            "z-symmetric-box",
            "finite-group",
            "flow",
            "classical-kernel",
        ]
    ),
)
def test_dual_projection_is_the_heisenberg_mean_projection(blocks, seed, kind):
    """The observable-picture projection read off the density-picture one
    equals the one computed from the observable picture, its fixed basis is
    tau-orthonormal and fixed by the action, and its dual basis pairs with
    the fixed basis to the identity.  A classical kernel gets one atom per
    matrix entry of the drawn blocks, each with its block's weight."""
    if kind == "classical-kernel":
        algebra = TracialAlgebra.commutative([w for n, w in blocks for _ in range(n)])
    else:
        algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    action = random_heisenberg_action(algebra, kind, np.random.default_rng(seed))
    schr = mean_ergodic_projection(action.to_picture("schrodinger"))
    proj = neveu._dual_projection(schr, action, dual(schr.superop))
    want = mean_ergodic_projection(action)
    assert np.linalg.norm(proj.superop.matrix - want.superop.matrix, "fro") <= 1e-12
    r = proj.rank
    assert r == want.rank == schr.rank
    assert proj.cross_validation == schr.cross_validation
    xs, psis = proj.fixed_basis, proj.dual_basis
    assert len(xs) == len(psis) == r
    eye = np.eye(r)
    gram = np.array([[trace(a.H @ b) for b in xs] for a in xs]).reshape(r, r)
    assert np.abs(gram - eye).max(initial=0.0) <= 1e-12
    paired = np.array([[trace(psi @ b) for b in xs] for psi in psis]).reshape(r, r)
    assert np.abs(paired - eye).max(initial=0.0) <= 1e-12
    for x in xs:
        for m in action.matrices:
            moved = m @ x.vec() if kind == "flow" else m @ x.vec() - x.vec()
            assert op_norm(algebra.from_vec(moved)) <= 1e-12 * max(1.0, op_norm(x))


def test_dual_projection_checks_what_it_is_given():
    """A wrong dual basis or a non-projector in the density picture is
    refused by the factor and residual checks of the observable picture."""
    schr = mean_ergodic_projection(AD.to_picture("schrodinger"))
    assert neveu._dual_projection(schr, AD, dual(schr.superop)).factor_residual <= 1e-15
    doubled = dataclasses.replace(
        schr, dual_basis=[psi * 2.0 for psi in schr.dual_basis]
    )
    with pytest.raises(MeanErgodicValidationError, match="not the fixed space"):
        neveu._dual_projection(doubled, AD, dual(doubled.superop))
    noise = np.random.default_rng(11).standard_normal((4, 4))
    noise *= 1e-8 / np.linalg.norm(noise, 2)
    noisy = dataclasses.replace(
        schr, superop=SuperOperator(M2, schr.superop.matrix + noise)
    )
    with pytest.raises(MeanErgodicValidationError, match="residuals"):
        neveu._dual_projection(noisy, AD, dual(noisy.superop))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 8.0),
    data=st.data(),
)
def test_tau_orthonormal_matches_the_triangular_solve(blocks, seed, log_cond, data):
    """cols L^-* by a general solve with the Cholesky factor L agrees with
    scipy's triangular solve, and is tau-orthonormal, for 1 to D columns
    whose weighted Gram matrix has condition number up to 1e8; and the
    conserved functionals X conj(L) that ``_dual_projection`` pairs with it
    give the identity, evaluated as traces of operator products.  The
    observable-picture projections of real actions are checked in
    ``test_dual_projection_is_the_heisenberg_mean_projection``."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    dim, w = algebra.dim, algebra.weight_vec
    r = data.draw(st.integers(1, dim), label="columns")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    u = np.linalg.qr(g)[0]
    sig = np.logspace(0.0, -log_cond / 2, r)
    # cols* W cols = V diag(sig^2) V*, with condition number (sig_0 / sig_r)^2
    cols = (u * sig) @ random_unitary(r, rng).conj().T / np.sqrt(w)[:, None]
    cond = (sig[0] / sig[-1]) ** 2
    ortho, chol = neveu._tau_orthonormal(cols, w)
    oracle = scipy.linalg.solve_triangular(chol, cols.conj().T, lower=True).conj().T
    eye = np.eye(r)
    root = np.sqrt(w)[:, None]
    gram = (root * ortho).conj().T @ (root * ortho)
    assert np.linalg.norm(gram - eye, 2) <= 1e-12 * cond
    assert np.linalg.norm(root * (ortho - oracle), 2) <= 1e-12 * cond
    # x_j with tau(psi_i x_j) = delta_ij for the psi_i = the columns
    perm = neveu._transpose_perm(algebra.blocks)
    xs = np.linalg.pinv((w[:, None] * cols[perm]).T)
    conserved = [algebra.from_vec(v) for v in (xs @ chol.conj()).T]
    fixed = [algebra.from_vec(v) for v in ortho.T]
    paired = np.array([[trace(c @ f) for f in fixed] for c in conserved]).reshape(r, r)
    assert np.linalg.norm(paired - eye, 2) <= 1e-12 * cond


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
# uncoupled central summands
# ---------------------------------------------------------------------------


def superop_of(algebra, apply):
    """The SuperOperator of the linear map ``apply`` on the algebra."""
    units = [algebra.from_vec(u) for u in np.eye(algebra.dim)]
    return SuperOperator(algebra, np.column_stack([apply(u).vec() for u in units]))


def coupled_channel(algebra, groups, rng):
    """A unital completely positive map that moves mass between consecutive
    blocks of each group in ``groups``, in a random direction, and between
    no others: S(x)_b = q_b U_b* x_b U_b + r_b tr(x_b)/n_b 1
    + sum_c p_bc tr(x_c)/n_c 1 over the blocks c that feed b, with random
    unitaries U_b and convex weights (q_b, r_b, p_bc)."""
    sources = [[] for _ in algebra.blocks]
    for group in groups:
        for c, b in zip(group, group[1:]):
            if rng.random() < 0.5:
                b, c = c, b
            sources[b].append(c)
    us = [random_unitary(n, rng) for n in algebra.blocks]
    mix = [rng.dirichlet(np.ones(len(src) + 2)) for src in sources]

    def apply(x):
        xs = x.block_mats
        mean = [np.trace(y) / len(y) for y in xs]
        out = []
        for b, (src, p) in enumerate(zip(sources, mix)):
            eye = np.eye(len(xs[b]))
            y = p[0] * us[b].conj().T @ xs[b] @ us[b] + p[1] * mean[b] * eye
            for c, pc in zip(src, p[2:]):
                y = y + pc * mean[c] * eye
            out.append(y)
        return algebra.operator(out)

    return superop_of(algebra, apply)


def block_automorphism(algebra, groups, rng):
    """x -> (V_b* x_pi(b) V_b)_b for a random involution pi that pairs blocks
    of equal size within a group: an automorphism of order 2."""
    pi = list(range(algebra.n_blocks))
    for group in groups:
        free = list(rng.permutation(group))
        while free:
            b = free.pop()
            mates = [c for c in free if algebra.blocks[c] == algebra.blocks[b]]
            if mates and rng.random() < 0.8:
                free.remove(mates[0])
                pi[b], pi[mates[0]] = mates[0], b
    vs = [None] * algebra.n_blocks
    for b in range(algebra.n_blocks):
        if pi[b] == b:
            vs[b] = reflection(algebra.blocks[b], rng)
        elif vs[b] is None:
            vs[b] = random_unitary(algebra.blocks[b], rng)
            vs[pi[b]] = vs[b].conj().T

    def apply(x):
        xs = x.block_mats
        return algebra.operator([v.conj().T @ xs[p] @ v for v, p in zip(vs, pi)])

    return superop_of(algebra, apply)


def coupled_action(algebra, kind, groups, rng):
    if kind == "z-symmetric-box":
        scheme = FolnerScheme("z-symmetric-box", d=1)
        gens = [block_automorphism(algebra, groups, rng)]
    elif kind == "finite-group":
        scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
        swap = block_automorphism(algebra, groups, rng)
        gens = [SuperOperator.identity(algebra), swap]
    elif kind == "flow":
        scheme = FolnerScheme("r-plus-cube", d=1)
        gens = [coupled_channel(algebra, groups, rng).matrix - np.eye(algebra.dim)]
    else:
        s = coupled_channel(algebra, groups, rng)
        gens = [s, s @ s] if kind == "zplus-box-2" else [s]
        scheme = FolnerScheme("zplus-box", d=len(gens))
    return SemigroupAction(algebra, "heisenberg", scheme, gens)


def summand_blocks(action):
    """The block groups of the action's summands."""
    offsets = action.algebra._offsets
    groups = []
    for coords, _ in action._summands():
        first = np.arange(action.algebra.dim)[coords]
        groups.append([b for b in range(len(offsets) - 1) if offsets[b] in first])
    return groups


def cluster_projector(mat, center, tol):
    """Spectral projector onto the eigenvalue cluster |lambda - center| <= tol.

    Complex Schur form with the cluster sorted to the top-left, then one
    Sylvester solve for the invariant complement:
    P = Q [[I, Y], [0, 0]] Q*.
    """
    dim = mat.shape[0]
    t, q, sdim = scipy.linalg.schur(
        mat, output="complex", sort=lambda lam: abs(lam - center) <= tol
    )
    k = int(sdim)
    if k == 0:
        return np.zeros((dim, dim), dtype=complex)
    if k == dim:
        return np.eye(dim, dtype=complex)
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    y = scipy.linalg.solve_sylvester(t11, -t22, t12)
    inner = np.zeros((dim, dim), dtype=complex)
    inner[:k, :k] = np.eye(k)
    inner[:k, k:] = y
    return q @ inner @ q.conj().T


def whole_matrix_projection(action):
    """The oracle ``(E, kappa)``: the eigenvalue-cluster projectors P of the
    generators on the whole matrices (Schur form and Sylvester solve, an
    independent path from the SVD null spaces of the package), multiplied,
    and the largest ||(P - G)^-1||_1; a finite group's E from its
    non-identity elements, with kappa None."""
    flow = action.scheme.kind == "r-plus-cube"
    mats = action.matrices
    if action.scheme.kind == "finite-group":
        mats = mats[1:]
    eye = np.eye(action.algebra.dim, dtype=complex)
    e, kappas = eye, []
    for m in mats:
        p = cluster_projector(m, 0.0 if flow else 1.0, 1e-9)
        kappas.append(np.linalg.norm(np.linalg.inv(p - (m if flow else m - eye)), 1))
        e = p @ e
    return e, (None if action.scheme.kind == "finite-group" else max(kappas))


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize(
    "kind", ["zplus-box", "zplus-box-2", "z-symmetric-box", "finite-group", "flow"]
)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_mean_projection_per_summand_is_the_whole_matrix_one(
    kind, picture, blocks, seed
):
    """Computed summand by summand, E equals the whole-matrix oracle, with
    the same rank and kappa; each fixed-basis element lives
    in one summand and pairs with the dual basis to the identity.  The
    generators couple blocks with the same random label: a channel chains
    them into one summand per label, an automorphism swaps random pairs of
    them of equal size."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=len(blocks)).tolist()
    groups = [
        [b for b, g in enumerate(labels) if g == label]
        for label in dict.fromkeys(labels)
    ]
    action = coupled_action(algebra, kind, groups, rng).to_picture(picture)
    if kind in ("zplus-box", "zplus-box-2", "flow"):
        assert summand_blocks(action) == groups
    proj = mean_ergodic_projection(action)
    e = proj.superop.matrix
    oracle, kappa = whole_matrix_projection(action)
    assert np.linalg.norm(e - oracle, "fro") <= 1e-12
    assert proj.rank == int(round(np.trace(oracle).real))
    # the inverse of a block-diagonal matrix is block diagonal, and its
    # 1-norm is the largest of its blocks'
    got = proj.cross_validation["kappa"]
    if kappa is None:
        assert got is None
    else:
        assert got == pytest.approx(kappa, rel=1e-12)
    parts = action._summands()
    xs, psis = proj.fixed_basis, proj.dual_basis
    for x in xs:
        reached = [np.any(x.vec()[coords] != 0) for coords, _ in parts]
        assert sum(reached) == 1
    r = proj.rank
    paired = np.array([[trace(psi @ b) for b in xs] for psi in psis]).reshape(r, r)
    assert np.abs(paired - np.eye(r)).max(initial=0.0) <= 1e-12


WEIGHTED_BLOCKS = st.lists(
    st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=3
)


def group_inverse_average(action, e, z, a):
    """A_a - E of a one-generator action from the group inverse Z - E of
    1 - S: (1/a)(1 - S^a)(Z - E) on zplus-box, S^-a (1 - S^(2a+1))(Z - E)
    / (2a + 1) on z-symmetric-box, and (1/a)(1 - e^(aL))(Z - E) for a flow."""
    (m,) = action.matrices
    eye = np.eye(m.shape[0])
    if action.scheme.kind == "r-plus-cube":
        return (eye - scipy.linalg.expm(a * m)) @ (z - e) / a
    if action.scheme.kind == "zplus-box":
        return (eye - np.linalg.matrix_power(m, a)) @ (z - e) / a
    back = np.linalg.matrix_power(action.inverses[0], a)
    n = 2 * a + 1
    return back @ (eye - np.linalg.matrix_power(m, n)) @ (z - e) / n


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("kind", ["zplus-box", "z-symmetric-box", "flow"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(blocks=WEIGHTED_BLOCKS, seed=st.integers(0, 2**32 - 1))
def test_averages_obey_the_group_inverse_identity(kind, picture, blocks, seed):
    """With Z = (E - G)^-1 from the certificate, A_a - E is the group-inverse
    expression of :func:`group_inverse_average` at a = 1, 16 and 64, within
    1e-12 kappa, against ``average_super``.  A random block channel (S, or
    L = S - 1 for the flow) or a Haar unitary conjugation per block
    (z-symmetric-box) on 1-3 weighted blocks."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    action = random_heisenberg_action(algebra, kind, rng).to_picture(picture)
    e = mean_ergodic_projection(action).superop.matrix
    (m,) = action.matrices
    g = m if kind == "flow" else m - np.eye(algebra.dim)
    z, kappa = neveu._group_inverse(e, g)
    for a in (1, 16, 64):
        want = average_super(action, a).matrix - e
        got = group_inverse_average(action, e, z, a)
        assert np.linalg.norm(got - want, 2) <= 1e-12 * kappa, a


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=2, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["zplus-box", "z-symmetric-box", "flow", "classical-kernel"]),
)
def test_neveu_split_on_weighted_multiblock_algebras(picture, blocks, seed, kind):
    """On 2-4 blocks with non-uniform weights, e1 + e2 = 1 and e1 is the
    support of the invariant density that the whole-matrix oracle E gives
    from the normalised identity; kappa is taken per summand and is the
    whole-matrix one.  A classical kernel gets one atom per matrix entry of
    the drawn blocks, each with its block's weight."""
    if kind == "classical-kernel":
        algebra = TracialAlgebra.commutative([w for n, w in blocks for _ in range(n)])
    else:
        algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    action = random_heisenberg_action(algebra, kind, np.random.default_rng(seed))
    dec = neveu_decompose(action.to_picture(picture))
    assert op_norm(dec.e1 + dec.e2 - algebra.identity()) <= 1e-12
    schr = action.to_picture("schrodinger")
    oracle, kappa = whole_matrix_projection(schr)
    y = algebra.from_vec(oracle @ reference_density(algebra).vec())
    mass = trace(y).real
    if mass <= 1e-12:
        assert dec.e1.ranks == (0,) * algebra.n_blocks
    else:
        want = support((y + y.H) * (0.5 / mass))
        assert dec.e1.ranks == want.ranks
        assert op_norm(dec.e1 - want) <= 1e-8
    assert dec.detail["cross_validation"]["kappa"] == pytest.approx(kappa, rel=1e-12)


def test_summands_split_on_exact_zeros_only():
    """An entry of 1e-300 couples two blocks; an exact zero does not."""
    algebra = TracialAlgebra([2, 1], [0.25, 0.5])
    for entry, groups in ((1e-300, [[0, 1]]), (0.0, [[0], [1]])):
        mat = np.eye(algebra.dim, dtype=complex)
        mat[4, 0] = entry
        action = zplus_action(SuperOperator(algebra, mat))
        assert summand_blocks(action) == groups


def test_summands_join_through_every_generator():
    """Generators coupling blocks (0, 1) and (1, 2) give one summand; one
    coupling (0, 2) alone leaves block 1 apart, and the summand of blocks
    0 and 2 is given by an index array."""
    algebra = TracialAlgebra.commutative([0.5, 0.25, 0.25])

    def coupling(b, c):
        mat = np.eye(3)
        mat[b, c] = 0.5
        return SuperOperator(algebra, mat)

    assert summand_blocks(zplus_action(coupling(0, 1), coupling(2, 1))) == [[0, 1, 2]]
    action = zplus_action(coupling(2, 0))
    assert summand_blocks(action) == [[0, 2], [1]]
    coords, sub = action._summands()[0]
    assert list(coords) == [0, 2]
    assert sub.algebra == TracialAlgebra.commutative([0.5, 0.25])


@pytest.mark.parametrize("kind", ["zplus-box", "flow"])
def test_projector_residuals_are_the_whole_matrix_norms(kind):
    """Residuals taken per summand of a projector perturbed by 1e-11 equal
    the Frobenius residuals of the whole matrices; an entry between the
    summands is refused."""
    kernel = np.zeros((4, 4))
    kernel[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    kernel[2:, 2:] = [[0.75, 0.25], [0.25, 0.75]]
    algebra = TracialAlgebra.commutative([0.1, 0.2, 0.3, 0.4])
    if kind == "flow":
        flow = FolnerScheme("r-plus-cube", d=1)
        action = SemigroupAction(algebra, "heisenberg", flow, [kernel - np.eye(4)])
    else:
        action = zplus_action(from_classical(algebra, kernel))
    parts = action._summands()
    assert len(parts) == 2
    noise = np.zeros((4, 4))
    noise[:2, :2] = [[1.0, -2.0], [0.5, 3.0]]
    noise[2:, 2:] = [[-1.0, 0.5], [2.0, 1.0]]
    e = mean_ergodic_projection(action).superop.matrix + 1e-11 * noise
    (m,) = action.matrices
    if kind == "flow":
        scale = max(1.0, np.linalg.norm(m, 2))
        moved = (m @ e, e @ m)
    else:
        scale = 1.0
        moved = (m @ e - e, e @ m - e)
    got = neveu._projector_residuals(parts, e)
    assert got["idempotency"] == pytest.approx(np.linalg.norm(e @ e - e), rel=1e-9)
    want = max(np.linalg.norm(r) for r in moved) / scale
    assert got["invariance"] == pytest.approx(want, rel=1e-9)
    e[0, 3] = 1e-300
    with pytest.raises(MeanErgodicValidationError, match="couples summands"):
        neveu._projector_residuals(parts, e)


def test_fixed_space_cutoff_is_the_whole_matrix_one():
    """A swap (singular values 2 and 0 of S - 1) beside a slow symmetric
    kernel (1.5e-9 and 0): the cutoff 1e-9 * 2 of the whole matrix makes
    1.5e-9 a zero, which the second summand's own cutoff 1e-9 would not."""
    eps = 7.5e-10
    kernel = np.zeros((4, 4))
    kernel[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    kernel[2:, 2:] = [[1 - eps, eps], [eps, 1 - eps]]
    algebra = TracialAlgebra.commutative([0.25] * 4)
    action = zplus_action(from_classical(algebra, kernel))
    assert len(action._summands()) == 2
    sig = np.linalg.svd(action.matrices[0] - np.eye(4), compute_uv=False)
    assert sig[0] == pytest.approx(2.0) and sig[1] == pytest.approx(1.5e-9)
    whole_rank = int(np.sum(sig > 1e-9 * max(1.0, sig[0])))
    assert len(fixed_space(action)) == 4 - whole_rank == 3


@pytest.mark.parametrize("kind", ["zplus-box", "flow"])
def test_one_generator_projection_takes_one_svd_per_summand(kind, monkeypatch):
    """A swap beside a symmetric kernel: two summands, so the projector and
    the fixed space of one generator come from two SVDs, one per summand."""
    kernel = np.zeros((4, 4))
    kernel[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    kernel[2:, 2:] = [[0.75, 0.25], [0.25, 0.75]]
    algebra = TracialAlgebra.commutative([0.1, 0.2, 0.3, 0.4])
    if kind == "flow":
        flow = FolnerScheme("r-plus-cube", d=1)
        action = SemigroupAction(algebra, "heisenberg", flow, [kernel - np.eye(4)])
    else:
        action = zplus_action(from_classical(algebra, kernel))
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    proj = mean_ergodic_projection(action)
    assert proj.rank == 2
    assert shapes == [(2, 2), (2, 2)]


# ---------------------------------------------------------------------------
# hard spectra: an eigenvalue 1 - delta near the fixed space
# ---------------------------------------------------------------------------

HARD_SPECTRUM_TOL = 1e-9


def _symmetric_kernel(delta):
    return [[1 - delta / 2, delta / 2], [delta / 2, 1 - delta / 2]], [0.5] * 2


def _absorbing_chain(delta):
    kernel = [[1.0, 0.0, 0.0], [delta, 1 - delta, 0.0], [0.0, 1 - delta, delta]]
    return kernel, [1 / 3] * 3


def _jordan_pair(delta):
    """A Jordan block at 1 - delta: atom 1 moves to atom 2, which drains
    into the absorbing atom 0.  Atom 1 weighs 1e4 times atom 2, so the
    density-picture G holds 1e4 delta below its diagonal -delta."""
    kernel = [[1.0, 0.0, 0.0], [0.0, 1 - delta, delta], [delta, 0.0, 1 - delta]]
    return kernel, [0.5, 0.5e4 / (1 + 1e4), 0.5 / (1 + 1e4)]


def _weighted_chain(delta):
    """A Jordan block of size 8 at 1 - delta: atoms 1, ..., 8 move on one
    by one, and atom 8 drains into the absorbing atom 0; each atom weighs
    half of the one before."""
    kernel = (1 - delta) * np.eye(9) + delta * np.roll(np.eye(9), 1, axis=1)
    kernel[0] = np.eye(9)[0]
    weights = 2.0 ** -np.arange(9)
    return kernel, list(weights / weights.sum())


# (kernel, picture, delta, returned); the exact E* is 1/n ones for the
# symmetric kernel, and f -> f(0) 1 for the others in the observable picture.
# The certificate's kappa is 1/delta (symmetric), 2/delta (chain), 3/delta
# and 36/delta (Jordan pair, weighted chain) in the observable picture, and
# 1e4/delta and 2.6e2/delta for the last two in the density picture, so every
# kappa above 2.25e6 is refused.  In the density picture at delta = 1e-6 the
# Jordan pair's sigma_r = 1.4e-10 falls under the rank cutoff 1e-9, and that
# wrong rank raises too.
HARD_SPECTRA = [
    pytest.param(
        _symmetric_kernel,
        picture,
        delta,
        delta >= 1e-6,
        id=f"symmetric-{picture}-{delta:g}",
    )
    for picture in ("heisenberg", "schrodinger")
    for delta in (1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
] + [
    pytest.param(
        _absorbing_chain,
        "heisenberg",
        delta,
        delta >= 1e-6,
        id=f"absorbing-chain-{delta:g}",
    )
    for delta in (1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2)
] + [
    pytest.param(
        kernel, picture, delta, delta >= smallest, id=f"{name}-{picture}-{delta:g}"
    )
    for kernel, name, smallest_returned in (
        (_jordan_pair, "jordan-pair", {"heisenberg": 1e-4, "schrodinger": 1e-2}),
        (_weighted_chain, "weighted-chain", {"heisenberg": 1e-4, "schrodinger": 1e-3}),
    )
    for picture, smallest in smallest_returned.items()
    for delta in (1e-2, 1e-3, 1e-4, 1e-6)
]


@pytest.mark.parametrize("kernel, picture, delta, returned", HARD_SPECTRA)
def test_hard_spectrum_gives_a_correct_projector_or_raises(
    kernel, picture, delta, returned
):
    """Where kappa is within its bound, E is returned and correct; where
    it is not, or the rank cutoff is wrong, the projection raises."""
    action, exact = hard_spectrum_case(kernel, picture, delta)
    if not returned:
        with pytest.raises(MeanErgodicValidationError):
            mean_ergodic_projection(action)
        return
    proj = mean_ergodic_projection(action)
    assert np.linalg.norm(proj.superop.matrix - exact) <= HARD_SPECTRUM_TOL


def hard_spectrum_case(kernel, picture, delta):
    """The action of a hard-spectra kernel and its exact E*."""
    k, weights = kernel(delta)
    k, w = np.array(k), np.array(weights)
    n = k.shape[0]
    algebra = TracialAlgebra.commutative(weights)
    action = zplus_action(from_classical(algebra, k)).to_picture(picture)
    if kernel is _symmetric_kernel:
        exact = np.full((n, n), 1.0 / n)
    else:
        exact = np.zeros((n, n))
        exact[:, 0] = 1.0
    if picture == "schrodinger":
        # the dual under tau: E*_ij = E_ji w_j / w_i
        exact = exact.T * w[None, :] / w[:, None]
    return action, exact


@pytest.mark.parametrize(
    "kernel, ratio", [(_jordan_pair, 2e-4), (_weighted_chain, 1e-2)]
)
def test_hard_spectra_hold_strongly_non_normal_generators(kernel, ratio):
    """In the density picture, the smallest nonzero singular value of
    G = S - 1 lies far below delta, its smallest nonzero |eigenvalue|: the
    inputs where an SVD rank cutoff and an eigenvalue cluster disagree.  In
    the observable picture G is the row-substochastic kernel minus 1, whose
    sigma_r stays within the chain length of delta (1.0 and 0.35 delta)."""
    for delta in (1e-2, 1e-4):
        action, _ = hard_spectrum_case(kernel, "schrodinger", delta)
        (m,) = action.matrices
        g = m - np.eye(m.shape[0])
        lam = np.sort(np.abs(np.linalg.eigvals(g)))
        assert lam[0] <= 1e-15 and lam[1] == pytest.approx(delta, rel=1e-3)
        assert np.linalg.svd(g, compute_uv=False)[-2] <= ratio * delta


def test_mean_projection_validation_catches_an_ill_conditioned_cluster(monkeypatch):
    """The symmetric kernel at delta = 1e-7 puts its eigenvalue 1 - delta
    beside 1, and kappa = 1e7 refuses the projector.  G is normal, so its
    SVD is its eigendecomposition and the refused E is exact to rounding:
    the bound refuses on kappa alone, as it must where G is not normal."""
    action, exact = hard_spectrum_case(_symmetric_kernel, "heisenberg", 1e-7)
    with pytest.raises(MeanErgodicValidationError, match="1.000e\\+07 above"):
        mean_ergodic_projection(action)
    monkeypatch.setattr(neveu, "KAPPA_BOUND", np.inf)
    proj = mean_ergodic_projection(action)
    assert proj.cross_validation["kappa"] == pytest.approx(1e7, rel=1e-6)
    assert np.linalg.norm(proj.superop.matrix - exact) <= 1e-15


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


def test_decompose_a_rotated_automorphism_with_no_wandering_corner():
    """Conjugation by a rotated 3-cycle on M_3 conserves everything, so
    e1 is the support of a full-rank density: exactly the identity, and
    e2 = 1 - e1 is exactly zero, whose support the wandering-sum check
    takes."""
    M3 = TracialAlgebra.full_matrix(3)
    w = random_unitary(3, np.random.default_rng(1))
    cycle = np.roll(np.eye(3), 1, axis=0)
    scheme = FolnerScheme("z-symmetric-box", d=1)
    gen = from_conjugation(M3, [w @ cycle @ w.conj().T])
    dec = neveu_decompose(SemigroupAction(M3, "heisenberg", scheme, [gen]))
    assert dec.e2.ranks == (0,)
    assert op_norm(dec.e2) == 0.0
    assert dec.verdicts["wandering_sum_agreement"] == "pass"


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
