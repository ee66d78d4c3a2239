import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit.algebra import TracialAlgebra, op_norm, trace
from neveukit.dynamics import (
    FolnerScheme,
    SemigroupAction,
    average,
    average_super,
    averages,
    _square,
    continuous_average_super,
    folner_ratio,
    folner_set,
)
from neveukit.maps import (
    PreconditionError,
    from_classical,
    from_conjugation,
    from_kraus,
    dual,
    pairing,
)

M2 = TracialAlgebra.full_matrix(2)


def amplitude_damping(algebra, g):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    return from_kraus(algebra, [[k0], [k1]])


def zplus_action(*gens, d=None):
    algebra = gens[0].algebra
    scheme = FolnerScheme("zplus-box", d=d or len(gens))
    return SemigroupAction(algebra, "heisenberg", scheme, list(gens))


def random_herm(algebra, rng):
    return algebra.random_hermitian(rng)


# ---------------------------------------------------------------------------
# Foelner schemes
# ---------------------------------------------------------------------------


def test_folner_set_zplus_line():
    scheme = FolnerScheme("zplus-box", d=1)
    assert set(folner_set(scheme, 3)) == {(0,), (1,), (2,)}


def test_folner_set_zplus_square():
    scheme = FolnerScheme("zplus-box", d=2)
    box = folner_set(scheme, 2)
    assert set(box) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_folner_set_symmetric_box():
    scheme = FolnerScheme("z-symmetric-box", d=1)
    assert set(folner_set(scheme, 2)) == {(-2,), (-1,), (0,), (1,), (2,)}


def test_folner_set_cube_descriptor():
    scheme = FolnerScheme("r-plus-cube", d=2)
    desc = folner_set(scheme, 1.5)
    assert desc == {"kind": "cube", "d": 2, "side": 1.5}


def test_folner_ratio_zplus_line():
    scheme = FolnerScheme("zplus-box", d=1)
    assert folner_ratio(scheme, 10, 0) == pytest.approx(0.2)


def test_folner_ratio_symmetric():
    scheme = FolnerScheme("z-symmetric-box", d=1)
    assert folner_ratio(scheme, 10, 0) == pytest.approx(2.0 / 21.0)


def test_folner_ratio_finite_group_is_zero():
    scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    assert folner_ratio(scheme, 1, 1) == 0.0


def test_folner_ratio_cube_shift():
    scheme = FolnerScheme("r-plus-cube", d=1)
    assert folner_ratio(scheme, 4.0, (0, 1.0)) == pytest.approx(0.5)
    # shifts past the cube side saturate
    assert folner_ratio(scheme, 4.0, (0, 100.0)) == pytest.approx(2.0)


def test_folner_counting_matches_ratio():
    # |K_a \ (K_a + g)| + |(K_a + g) \ K_a| over |K_a|, brute force
    scheme = FolnerScheme("zplus-box", d=2)
    for a in (2, 3, 4):
        box = set(folner_set(scheme, a))
        shifted = {(k[0] + 1, k[1]) for k in box}
        sym_diff = len(box ^ shifted)
        assert folner_ratio(scheme, a, 0) == pytest.approx(sym_diff / len(box))


def test_scheme_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown scheme kind"):
        FolnerScheme("free-group")


def test_group_table_must_be_latin_square():
    with pytest.raises(ValueError):
        FolnerScheme("finite-group", order=2, table=((0, 0), (1, 1)))


def test_group_table_identity_must_be_element_zero():
    with pytest.raises(ValueError, match="identity"):
        FolnerScheme("finite-group", order=2, table=((1, 0), (0, 1)))


# ---------------------------------------------------------------------------
# construction checks
# ---------------------------------------------------------------------------


def test_non_commuting_generators_recorded_not_raised():
    s = amplitude_damping(M2, 0.5)
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    action = zplus_action(s, swap)
    assert action.checks["commuting"].verdict == "fail"
    with pytest.raises(PreconditionError, match="commute"):
        action.require_commuting()


def test_commuting_generators_pass():
    action = zplus_action(amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25))
    assert action.checks["commuting"].passed
    action.require_commuting()


def test_z_symmetric_requires_invertible_generators():
    # a merging kernel is singular as a linear map, so no inverse walk exists
    C2 = TracialAlgebra.commutative([0.5, 0.5])
    merge = from_classical(C2, np.array([[1.0, 0.0], [1.0, 0.0]]))
    scheme = FolnerScheme("z-symmetric-box", d=1)
    with pytest.raises(ValueError, match="invertible|residual"):
        SemigroupAction(C2, "heisenberg", scheme, [merge])


def test_finite_group_representation_check():
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    from neveukit.maps import SuperOperator

    good = SemigroupAction(
        M2, "heisenberg", scheme, [SuperOperator.identity(M2), swap]
    )
    assert good.checks["representation"].passed

    # amplitude damping is not an involution, so the table is violated
    bad = SemigroupAction(
        M2, "heisenberg", scheme, [SuperOperator.identity(M2), amplitude_damping(M2, 0.5)]
    )
    assert bad.checks["representation"].verdict == "fail"
    with pytest.raises(PreconditionError):
        bad.require_commuting()


def test_contraction_check_runs_in_declared_picture():
    # schrodinger actions are probed through the dual, which is certified CP
    s = dual(amplitude_damping(M2, 0.5))
    scheme = FolnerScheme("zplus-box", d=1)
    action = SemigroupAction(M2, "schrodinger", scheme, [s])
    assert action.checks["contraction"].passed


def test_picture_validation():
    with pytest.raises(ValueError, match="picture"):
        SemigroupAction(M2, "interaction", FolnerScheme("zplus-box"), [])


# ---------------------------------------------------------------------------
# averages: oracles
# ---------------------------------------------------------------------------


def test_identity_action_average_is_identity():
    from neveukit.maps import SuperOperator

    action = zplus_action(SuperOperator.identity(M2))
    rng = np.random.default_rng(0)
    x = random_herm(M2, rng)
    assert op_norm(average(action, x, 17) - x) <= 1e-12


def test_amplitude_damping_average_geometric_oracle():
    # A_a(E11) has norm (1 - (1-g)^a) / (a g): partial geometric sums
    g = 0.5
    action = zplus_action(amplitude_damping(M2, g))
    e11 = M2.operator([np.diag([0.0, 1.0])])
    for a in (1, 2, 5, 10, 64):
        want = (1.0 - (1.0 - g) ** a) / (a * g)
        got = op_norm(average(action, e11, a))
        assert abs(got - want) <= 1e-10
    assert op_norm(average(action, e11, 10)) == pytest.approx(0.19980468750000002)


def test_average_matches_brute_force_box_sum_2d():
    # direct enumeration of the box, exact to eigensolver precision
    g1, g2 = amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25)
    action = zplus_action(g1, g2)
    rng = np.random.default_rng(42)
    x = random_herm(M2, rng)
    for a in (1, 2, 3, 4):
        box = folner_set(action.scheme, a)
        acc = M2.zero()
        for k1, k2 in box:
            y = x
            for _ in range(k1):
                y = g1(y)
            for _ in range(k2):
                y = g2(y)
            acc = acc + y
        brute = (1.0 / len(box)) * acc
        assert op_norm(average(action, x, a) - brute) <= 1e-12


def test_average_symmetric_box_walks_inverses():
    theta = 2.0 * np.pi / 5.0
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rot = from_conjugation(M2, [u])
    scheme = FolnerScheme("z-symmetric-box", d=1)
    action = SemigroupAction(M2, "heisenberg", scheme, [rot])
    rng = np.random.default_rng(9)
    x = random_herm(M2, rng)
    a = 2
    mats = [np.linalg.matrix_power(u, k) for k in range(-a, a + 1)]
    brute = (1.0 / 5.0) * sum(
        (M2.operator([m @ x.block_mats[0] @ m.conj().T]) for m in mats), M2.zero()
    )
    assert op_norm(average(action, x, a) - brute) <= 1e-12


def test_finite_group_average_is_group_mean():
    from neveukit.maps import SuperOperator

    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    action = SemigroupAction(M2, "heisenberg", scheme, [SuperOperator.identity(M2), swap])
    rng = np.random.default_rng(3)
    x = random_herm(M2, rng)
    brute = 0.5 * (x + swap(x))
    assert op_norm(average(action, x, 1) - brute) <= 1e-12
    # for finite groups every index averages the whole group
    assert op_norm(average(action, x, 7) - brute) <= 1e-12


def test_average_super_agrees_with_average():
    action = zplus_action(amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25))
    rng = np.random.default_rng(1)
    x = random_herm(M2, rng)
    for a in (1, 3, 8):
        s = average_super(action, a)
        assert op_norm(s(x) - average(action, x, a)) <= 1e-12


MULTI = TracialAlgebra([3, 2, 1], [0.125, 0.25, 0.375])
POWER_SUM_INDICES = (1, 2, 3, 7, 16, 63, 64)


def random_channel(algebra, rng, n_kraus=3):
    """A random Heisenberg channel with Kraus ops c G_j M^{-1/2}, M = sum G_j* G_j.

    c^2 = 0.99 keeps sum K*K = 0.99 visibly below 1, clear of rounding in
    the subunitality check.
    """
    gs = [
        [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in algebra.blocks]
        for _ in range(n_kraus)
    ]
    ops = [[] for _ in gs]
    for b in range(algebra.n_blocks):
        m = sum(g[b].conj().T @ g[b] for g in gs)
        lam, v = np.linalg.eigh(m)
        inv_sqrt = v @ np.diag(lam ** -0.5) @ v.conj().T
        for op, g in zip(ops, gs):
            op.append(np.sqrt(0.99) * g[b] @ inv_sqrt)
    return from_kraus(algebra, ops)


def random_block_unitary(algebra, rng):
    mats = []
    for n in algebra.blocks:
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mats.append(q * (np.diag(r) / abs(np.diag(r))))
    return mats


def literal_average_super(action, a):
    """The per-axis Cesaro sums term by term: the reference for the doubling."""
    m = np.eye(action.algebra.dim, dtype=complex)
    for axis, gen in enumerate(action.generators):
        s = gen.matrix
        if action.scheme.kind == "zplus-box":
            cur, count = m, a
        else:
            cur, count = m, 2 * a + 1
            for _ in range(a):
                cur = action.inverses[axis] @ cur
        acc = cur.copy()
        for _ in range(count - 1):
            cur = s @ cur
            acc += cur
        m = acc / count
    return m


def assert_matches_literal(action):
    for a in POWER_SUM_INDICES:
        ref = literal_average_super(action, a)
        got = average_super(action, a).matrix
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2), a


def test_doubled_power_sums_match_literal_multiblock_zplus_line():
    s = random_channel(MULTI, np.random.default_rng(21))
    assert_matches_literal(zplus_action(s))


def test_doubled_power_sums_match_literal_multiblock_zplus_square():
    s = random_channel(MULTI, np.random.default_rng(22))
    # a channel and its square commute
    s2 = s @ s
    assert_matches_literal(zplus_action(s, s2))


def test_doubled_power_sums_match_literal_multiblock_z_symmetric():
    u = random_block_unitary(MULTI, np.random.default_rng(23))
    scheme = FolnerScheme("z-symmetric-box", d=1)
    action = SemigroupAction(MULTI, "heisenberg", scheme, [from_conjugation(MULTI, u)])
    assert_matches_literal(action)


def test_average_index_validation():
    action = zplus_action(amplitude_damping(M2, 0.5))
    rng = np.random.default_rng(2)
    x = random_herm(M2, rng)
    with pytest.raises(ValueError):
        average(action, x, 0)


def literal_averages(action, x, schedule):
    """A_a(x) point by point, each window summed afresh: the reference for
    the schedule walk of :func:`averages`."""
    kind, dim = action.scheme.kind, action.algebra.dim
    out = []
    for a in schedule:
        v = x.vec()
        if kind == "finite-group":
            v = sum(m @ v for m in action.matrices) / action.scheme.order
        elif kind == "r-plus-cube":
            for L in action.matrices:
                aug = np.zeros((dim + 1, dim + 1), dtype=complex)
                aug[:dim, :dim], aug[:dim, dim] = L, v
                v = scipy.linalg.expm(a * aug)[:dim, dim] / a
        else:
            for axis, s in enumerate(action.matrices):
                back = a if kind == "z-symmetric-box" else 0
                size = 2 * a + 1 if back else a
                cur = v
                for _ in range(back):
                    cur = action.inverses[axis] @ cur
                acc = cur.copy()
                for _ in range(size - 1):
                    cur = s @ cur
                    acc += cur
                v = acc / size
        out.append(v)
    return out


def flow_action(algebra, rng):
    L = lindbladian(algebra, rng)
    return SemigroupAction(algebra, "heisenberg", FolnerScheme("r-plus-cube"), [L])


def walk_actions():
    rng = np.random.default_rng(31)
    s = random_channel(MULTI, rng)
    cycle = from_conjugation(MULTI, random_block_unitary(MULTI, rng))
    group = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    from neveukit.maps import SuperOperator

    return {
        "zplus-d1": zplus_action(s),
        "zplus-d2": zplus_action(s, s @ s),
        "z-symmetric": SemigroupAction(
            MULTI, "heisenberg", FolnerScheme("z-symmetric-box"), [cycle]
        ),
        "finite-group": SemigroupAction(
            M2, "heisenberg", group, [SuperOperator.identity(M2), swap]
        ),
        "r-plus-cube": flow_action(TracialAlgebra([2, 1], [0.25, 0.5]), rng),
    }


@pytest.mark.parametrize("schedule", [[1], [3, 7, 64], [1, 2, 4, 8, 16, 32, 64]])
@pytest.mark.parametrize(
    "name", ["zplus-d1", "zplus-d2", "z-symmetric", "finite-group", "r-plus-cube"]
)
def test_averages_walk_matches_literal_per_point_sums(name, schedule):
    action = walk_actions()[name]
    x = action.algebra.random_hermitian(np.random.default_rng(32))
    got = [y.vec() for y in averages(action, x, schedule)]
    want = literal_averages(action, x, schedule)
    assert len(got) == len(schedule)
    for g, w in zip(got, want):
        if name == "zplus-d1":
            # same matvecs in the same order: bitwise equal
            assert np.array_equal(g, w)
        else:
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


@pytest.mark.parametrize("schedule", [[2, 1], [1, 1], [1, 4, 4, 8], []])
def test_averages_reject_a_schedule_that_is_not_strictly_ascending(schedule):
    action = zplus_action(amplitude_damping(M2, 0.5))
    x = random_herm(M2, np.random.default_rng(5))
    with pytest.raises(ValueError, match="ascending"):
        averages(action, x, schedule)


# ---------------------------------------------------------------------------
# averages: invariants
# ---------------------------------------------------------------------------


def test_averages_are_contractive():
    action = zplus_action(amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25))
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = random_herm(M2, rng)
        for a in (1, 4, 16):
            assert op_norm(average(action, x, a)) <= (1.0 + 1e-9) * op_norm(x)


def test_averages_preserve_positivity():
    action = zplus_action(amplitude_damping(M2, 0.5))
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = M2.random_positive(rng)
        for a in (1, 4, 16):
            assert average(action, x, a).is_positive()


def test_asymptotic_invariance_bound():
    # || A_a(Gamma x) - A_a(x) || <= ||x|| * folner_ratio + 1e-10
    action = zplus_action(amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25))
    rng = np.random.default_rng(13)
    for _ in range(3):
        x = random_herm(M2, rng)
        for a in (2, 8, 32):
            for i, gen in enumerate(action.generators):
                lhs = op_norm(average(action, gen(x), a) - average(action, x, a))
                bound = op_norm(x) * folner_ratio(action.scheme, a, i) + 1e-10
                assert lhs <= bound


def test_average_invariance_tightens_with_a():
    action = zplus_action(amplitude_damping(M2, 0.5))
    gen = action.generators[0]
    e11 = M2.operator([np.diag([0.0, 1.0])])
    devs = [
        op_norm(average(action, gen(e11), a) - average(action, e11, a))
        for a in (4, 8, 16, 32, 64)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


# ---------------------------------------------------------------------------
# continuous averages
# ---------------------------------------------------------------------------


def test_continuous_average_scalar_oracle():
    # d/dt x = -x gives A_a = (1 - exp(-a)) / a
    alg = TracialAlgebra.commutative([1.0])
    scheme = FolnerScheme("r-plus-cube", d=1)
    action = SemigroupAction(alg, "heisenberg", scheme, [np.array([[-1.0]])])
    x = alg.operator([[[1.0]]])
    got = average(action, x, 2.0)
    want = (1.0 - np.exp(-2.0)) / 2.0
    assert op_norm(got) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.43233235838169365)


def lindbladian(algebra, rng):
    """The matrix of x -> K* x K - (K*K x + x K*K)/2 for a random K."""
    k = algebra.operator(
        [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
            for n in algebra.blocks
        ]
    )
    kk = k.H @ k
    cols = []
    for e in np.eye(algebra.dim):
        x = algebra.from_vec(e)
        cols.append((k.H @ x @ k - (kk @ x + x @ kk) * 0.5).vec())
    return np.column_stack(cols)


def test_continuous_average_jordan_block_closed_form():
    # exp(tL) = exp(-t) [[1, t], [0, 1]] is defective; no fallback is needed
    alg = TracialAlgebra.commutative([1.0, 1.0])
    scheme = FolnerScheme("r-plus-cube", d=1)
    L = np.array([[-1.0, 1.0], [0.0, -1.0]])
    action = SemigroupAction(alg, "heisenberg", scheme, [L])
    e2 = np.exp(-2.0)
    want = np.array([[(1 - e2) / 2, (1 - 3 * e2) / 2], [0.0, (1 - e2) / 2]])
    got = continuous_average_super(action, 2.0)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_continuous_average_satisfies_defining_identity():
    # a L A_a = exp(aL) - 1, in the Schroedinger picture of a weighted
    # two-block Lindbladian
    alg = TracialAlgebra([2, 3], [0.3, 0.7])
    heis = SemigroupAction(
        alg,
        "heisenberg",
        FolnerScheme("r-plus-cube", d=1),
        [lindbladian(alg, np.random.default_rng(5))],
    )
    action = heis.dual()
    (L,) = action.flow_generators
    for a in (0.5, 3.0, 16.0, 64.0):
        got = a * L @ average_super(action, a).matrix
        want = scipy.linalg.expm(a * L) - np.eye(alg.dim)
        assert np.linalg.norm(got - want, 2) <= 1e-12 * a * np.linalg.norm(L, 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2]),
    a=st.floats(0.25, 64.0),
)
def test_flow_average_of_element_matches_averaging_operator(blocks, seed, d, a):
    """average(x) integrates the flow on x alone; it must agree with the
    averaging operator applied to x."""
    algebra = TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])
    rng = np.random.default_rng(seed)
    L = lindbladian(algebra, rng)
    # exp(L) is a unital CP map, so exp(L) - 1 is a Lindbladian commuting with L
    gens = [L, scipy.linalg.expm(L) - np.eye(algebra.dim)][:d]
    action = SemigroupAction(algebra, "heisenberg", FolnerScheme("r-plus-cube", d=d), gens)
    x = algebra.random_hermitian(rng)
    got = average(action, x, a).vec()
    want = average_super(action, a)(x).vec()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_continuous_average_two_axes_multiplies():
    alg = TracialAlgebra.commutative([1.0])
    scheme = FolnerScheme("r-plus-cube", d=2)
    action = SemigroupAction(
        alg, "heisenberg", scheme, [np.array([[-1.0]]), np.array([[-2.0]])]
    )
    x = alg.operator([[[1.0]]])
    got = op_norm(average(action, x, 2.0))
    want = ((1.0 - np.exp(-2.0)) / 2.0) * ((1.0 - np.exp(-4.0)) / 4.0)
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# pictures and duality
# ---------------------------------------------------------------------------


def test_dual_roundtrip_and_pairing():
    action = zplus_action(amplitude_damping(M2, 0.5))
    d_action = action.dual()
    assert d_action.picture == "schrodinger"
    # dual() builds a new action each call; the round trip gives the same maps
    back = d_action.dual()
    assert back.picture == "heisenberg"
    assert np.max(np.abs(back.matrices[0] - action.matrices[0])) <= 1e-14
    rng = np.random.default_rng(21)
    x, y = random_herm(M2, rng), random_herm(M2, rng)
    a = 6
    lhs = pairing(average(d_action, x, a), y)
    rhs = pairing(x, average(action, y, a))
    assert abs(lhs - rhs) <= 1e-10


def s3_kernels():
    """The six permutation kernels (K_g f)(i) = f(g(i)) of S_3, identity
    first, and their multiplication table: K_g K_h = K_(h o g)."""
    perms = list(itertools.permutations(range(3)))
    kernels = [np.eye(3)[list(p)] for p in perms]
    index = {p: k for k, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(h[g[i]] for i in range(3))] for h in perms) for g in perms
    )
    return kernels, table


def random_action(algebra, kind, rng):
    """A Heisenberg action of the given kind with random generators."""
    if kind == "s3-classical":
        kernels, table = s3_kernels()
        scheme = FolnerScheme("finite-group", order=6, table=table)
        gens = [from_classical(algebra, k) for k in kernels]
        return SemigroupAction(algebra, "heisenberg", scheme, gens)
    if kind == "kernel":
        kernel = rng.dirichlet(np.ones(algebra.n_blocks), size=algebra.n_blocks)
        return zplus_action(from_classical(algebra, kernel))
    ops = []
    for _ in range(3):
        ops.append(
            [
                (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                for n in algebra.blocks
            ]
        )
    # scaled so that sum K*K <= 1/1.01 in every block
    total = [sum(k[i].conj().T @ k[i] for k in ops) for i in range(algebra.n_blocks)]
    scale = 1.0 / np.sqrt(max(np.linalg.eigvalsh(t).max() for t in total) * 1.01)
    s = from_kraus(algebra, [[m * scale for m in k] for k in ops])
    if kind == "flow":
        scheme = FolnerScheme("r-plus-cube", d=2)
        gens = [s.matrix - np.eye(algebra.dim), 2.0 * (s.matrix - np.eye(algebra.dim))]
        return SemigroupAction(algebra, "heisenberg", scheme, gens)
    return zplus_action(s, s @ s)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["kraus", "flow", "kernel", "s3-classical"]),
)
def test_heisenberg_schrodinger_heisenberg_gives_back_the_action(blocks, seed, kind):
    """dual() twice returns the picture, the scheme (the opposite group's
    table twice is the table) and the generator matrices within 1e-12
    relative, on weighted multi-block algebras; the classical kinds get one
    atom per matrix entry of the drawn blocks."""
    weights = [w for _, w in blocks]
    if kind == "kernel":
        algebra = TracialAlgebra.commutative([w for n, w in blocks for _ in range(n)])
    elif kind == "s3-classical":
        algebra = TracialAlgebra.commutative((weights * 3)[:3])
    else:
        algebra = TracialAlgebra([n for n, _ in blocks], weights)
    action = random_action(algebra, kind, np.random.default_rng(seed))
    schr = action.dual()
    back = schr.dual()
    if kind == "s3-classical":
        assert action.checks["representation"].passed
        assert schr.scheme != action.scheme
    assert (schr.picture, back.picture) == ("schrodinger", "heisenberg")
    assert back.scheme == action.scheme
    assert len(back.matrices) == len(action.matrices)
    for got, want in zip(back.matrices, action.matrices):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_dual_of_average_super_is_average_of_dual():
    action = zplus_action(amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25))
    for a in (1, 4, 9):
        lhs = dual(average_super(action, a)).matrix
        rhs = average_super(action.dual(), a).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_to_picture():
    action = zplus_action(amplitude_damping(M2, 0.5))
    assert action.to_picture("heisenberg") is action
    schr = action.to_picture("schrodinger")
    assert schr.picture == "schrodinger"
    assert np.array_equal(schr.matrices[0], action.dual().matrices[0])


def test_finite_group_dual_uses_opposite_table():
    # S3 generated table: dual representation must still satisfy its table
    perm = lambda p: from_conjugation(
        TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3]),
        [np.array([[1.0]]) for _ in range(3)],
    )
    # use the classical permutation action of Z3 instead: shift kernel
    C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])
    shift = from_classical(
        C3, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    )
    shift2 = from_classical(
        C3, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    )
    from neveukit.maps import SuperOperator

    table = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    scheme = FolnerScheme("finite-group", order=3, table=table)
    action = SemigroupAction(
        C3, "heisenberg", scheme, [SuperOperator.identity(C3), shift, shift2]
    )
    assert action.checks["representation"].passed
    assert action.dual().checks["representation"].passed


def test_lamperti_reports_cached_and_attested():
    swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    action = zplus_action(swap)
    assert not action.lamperti_attested()
    reports = action.lamperti_reports()
    assert all(r.passed for r in reports)
    assert action.lamperti_attested()
    assert action.lamperti_reports() is reports


def test_lamperti_fails_for_damping_predual():
    action = zplus_action(amplitude_damping(M2, 0.5))
    reports = action.lamperti_reports()
    assert not action.lamperti_attested()
    assert reports[0].verdict == "fail"


def test_lamperti_reports_reject_flows():
    alg = TracialAlgebra.commutative([1.0])
    scheme = FolnerScheme("r-plus-cube", d=1)
    action = SemigroupAction(alg, "heisenberg", scheme, [np.array([[-1.0]])])
    with pytest.raises(PreconditionError):
        action.lamperti_reports()


def single_walk_power_sum(s, n):
    """sum_{k<n} S^k by a doubling walk to n: the reference for the walk
    of :func:`average_super`."""
    total = np.eye(s.shape[0], dtype=complex)
    power = s
    for bit in bin(n)[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = s @ power
    return total


@pytest.mark.parametrize("d", [1, 2])
def test_average_super_is_the_single_walk_power_sum(monkeypatch, d):
    """On zplus-box each A_a of an uncoupled summand is bitwise the product
    over the axes of one doubling walk to a on the summand's sub-matrices,
    and the mean ergodic projection walks no power sum.  The Kraus channel
    on MULTI moves no mass between its three blocks, so it has three
    summands."""
    from neveukit import dynamics, neveu

    if d == 1:
        action = zplus_action(amplitude_damping(M2, 0.5))
    else:
        s = random_channel(MULTI, np.random.default_rng(24))
        action = zplus_action(s, s @ s)
    walks = []
    power_sum = dynamics._power_sum

    def recording_walk(s, n):
        walks.append(n)
        return power_sum(s, n)

    monkeypatch.setattr(dynamics, "_power_sum", recording_walk)
    neveu.mean_ergodic_projection(action)
    assert walks == []
    monkeypatch.undo()

    parts = action._summands()
    assert len(parts) == (1 if d == 1 else 3)
    for coords, sub in parts:
        mats = [gen.matrix[_square(coords)] for gen in action.generators]
        for a in (16, 64):
            want = single_walk_power_sum(mats[0], a) / a
            for m in mats[1:]:
                want = (single_walk_power_sum(m, a) / a) @ want
            assert np.array_equal(average_super(sub, a).matrix, want)
