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
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


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


def whole_matrix_projection(action):
    """The oracle: the cluster projectors of the generators on the whole
    matrices, multiplied; a finite group's from its non-identity elements."""
    flow = action.scheme.kind == "r-plus-cube"
    mats = action.matrices
    if action.scheme.kind == "finite-group":
        mats = mats[1:]
    e = np.eye(action.algebra.dim, dtype=complex)
    for m in mats:
        e = neveu._cluster_projector(m, 0.0 if flow else 1.0, 1e-9) @ e
    return e


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
    the same rank and cross-validation norms; each fixed-basis element lives
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
    oracle = whole_matrix_projection(action)
    assert np.linalg.norm(e - oracle, "fro") <= 1e-12
    assert proj.rank == int(round(np.trace(oracle).real))
    for a in (16, 64):
        # both sides of ||A_a - E|| round at the scale of A_a, not of the norm
        avg = average_super(action, a).matrix
        want = np.linalg.norm(avg - oracle, 2)
        got = proj.cross_validation[f"norm_a{a}"]
        assert abs(got - want) <= 1e-12 * max(1.0, np.linalg.norm(avg, 2))
    parts = action._summands()
    xs, psis = proj.fixed_basis, proj.dual_basis
    for x in xs:
        reached = [np.any(x.vec()[coords] != 0) for coords, _ in parts]
        assert sum(reached) == 1
    r = proj.rank
    paired = np.array([[trace(psi @ b) for b in xs] for psi in psis]).reshape(r, r)
    assert np.abs(paired - np.eye(r)).max(initial=0.0) <= 1e-12


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


# ---------------------------------------------------------------------------
# hard spectra: an eigenvalue 1 - delta near the fixed space
# ---------------------------------------------------------------------------

HARD_SPECTRUM_TOL = 1e-9


def _quietly_wrong(error):
    return pytest.mark.xfail(
        strict=True,
        reason=f"a cluster near 1 is accepted with ||E - E*||_F = {error}: "
        "a quietly wrong projector instead of a correct one or a raise",
    )


def _symmetric_kernel(delta):
    return [[1 - delta / 2, delta / 2], [delta / 2, 1 - delta / 2]]


def _absorbing_chain(delta):
    return [[1.0, 0.0, 0.0], [delta, 1 - delta, 0.0], [0.0, 1 - delta, delta]]


# (kernel, picture, delta); the exact E* is 1/2 ones for the symmetric kernel
# in both pictures, and f -> f(0) 1 for the chain.  delta = 3e-8 (symmetric)
# and 1e-7 (chain) are left out: their errors, 9.4e-10 and 1.3e-9, sit at the
# bound.
HARD_SPECTRA = [
    pytest.param(
        _symmetric_kernel,
        picture,
        delta,
        id=f"symmetric-{picture}-{delta:g}",
        marks=_quietly_wrong("4.7e-9") if delta == 1e-7 else (),
    )
    for picture in ("heisenberg", "schrodinger")
    for delta in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
] + [
    pytest.param(
        _absorbing_chain,
        "heisenberg",
        delta,
        id=f"absorbing-chain-{delta:g}",
        marks=_quietly_wrong("9.8e-9") if delta == 1e-8 else (),
    )
    for delta in (1e-9, 1e-8, 1e-6, 1e-4, 1e-2)
]


@pytest.mark.parametrize("kernel, picture, delta", HARD_SPECTRA)
def test_hard_spectrum_gives_a_correct_projector_or_raises(kernel, picture, delta):
    k = np.array(kernel(delta))
    n = k.shape[0]
    algebra = TracialAlgebra.commutative([1.0 / n] * n)
    action = zplus_action(from_classical(algebra, k)).to_picture(picture)
    if kernel is _symmetric_kernel:
        exact = np.full((n, n), 1.0 / n)
    else:
        exact = np.zeros((n, n))
        exact[:, 0] = 1.0
    try:
        proj = mean_ergodic_projection(action)
    except MeanErgodicValidationError:
        return
    assert np.linalg.norm(proj.superop.matrix - exact) <= HARD_SPECTRUM_TOL


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
