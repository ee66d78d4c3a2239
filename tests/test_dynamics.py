import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit import convergence
from neveukit.algebra import TracialAlgebra, _to_hermitian, _to_vec, op_norm, trace
from neveukit.dynamics import (
    FolnerScheme,
    SemigroupAction,
    average,
    average_super,
    averages,
    _expm,
    _square,
    continuous_average_super,
    folner_ratio,
    folner_set,
)
from neveukit.maps import (
    PreconditionError,
    check_contraction,
    from_classical,
    from_conjugation,
    from_kraus,
    dual,
    pairing,
)
from neveukit.neveu import reference_density
from neveukit.scenarios import gallery

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
    # |K_a \ (K_a + g)| + |(K_a + g) \ K_a| over |K_a|, brute force, on the
    # square zplus box and the square z-symmetric box, along either axis
    for kind in ("zplus-box", "z-symmetric-box"):
        scheme = FolnerScheme(kind, d=2)
        for a in (1, 2, 3, 4):
            box = set(folner_set(scheme, a))
            for axis in (0, 1):
                shifted = {tuple(k + (i == axis) for i, k in enumerate(ks)) for ks in box}
                sym_diff = len(box ^ shifted)
                assert folner_ratio(scheme, a, axis) == pytest.approx(sym_diff / len(box))


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


def test_density_picture_contraction_reads_the_unit_image_without_a_dual(monkeypatch):
    """A density-picture generator with certified positivity is judged by
    dual(S)(1), read off one vector-matrix product: building the action takes
    no dual, and the verdict and ||dual(S)(1)|| are those of
    check_contraction(dual(S)), on M_2, on three weighted blocks and on a
    block-mixing kernel with unequal weights."""
    blocks = TracialAlgebra([2, 1, 3], [0.5, 0.25, 0.125])
    g = 0.5
    k0 = [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]]), np.eye(1), np.eye(3)]
    k1 = [np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]), np.zeros((1, 1)), np.zeros((3, 3))]
    atoms = TracialAlgebra.commutative([0.1, 0.3, 0.6])
    kernel = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    gens = [
        amplitude_damping(M2, g),
        dual(amplitude_damping(M2, g)),
        from_kraus(blocks, [k0, k1]),
        from_classical(atoms, kernel),
    ]
    old = [check_contraction(dual(s)) for s in gens]
    assert [rep.verdict for rep in old] == ["fail", "pass", "fail", "fail"]
    import neveukit.dynamics as dynamics

    def refused(s):
        raise AssertionError("dual taken")

    monkeypatch.setattr(dynamics, "dual", refused)
    for s, want in zip(gens, old):
        scheme = FolnerScheme("zplus-box", d=1)
        rep = SemigroupAction(s.algebra, "schrodinger", scheme, [s]).checks["contraction"]
        assert rep.verdict == want.verdict
        assert rep.detail["per_generator"] == [(0, want.verdict)]
        if want.verdict == "fail":
            assert rep.witness == (0,)
            got, norm = rep.detail["norm_of_unit_image"], want.detail["norm_of_unit_image"]
            assert abs(got - norm) <= 1e-15


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


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def box_actions_2d():
    """``(action, steps, backs)`` for two 2-d box actions on M_2 with the maps
    of one step forward and back along each axis: two amplitude dampings over
    zplus boxes (no backward steps), and conjugations by the commuting
    rotations through 2 pi / 5 and 2 pi / 7 over z-symmetric boxes."""
    damping = [amplitude_damping(M2, 0.5), amplitude_damping(M2, 0.25)]
    rotations = [rotation(2.0 * np.pi / 5.0), rotation(2.0 * np.pi / 7.0)]
    turns = [from_conjugation(M2, [u]) for u in rotations]
    backs = [from_conjugation(M2, [u.T]) for u in rotations]
    scheme = FolnerScheme("z-symmetric-box", d=2)
    return [
        (zplus_action(*damping), damping, None),
        (SemigroupAction(M2, "heisenberg", scheme, turns), turns, backs),
    ]


def test_average_matches_brute_force_box_sum_2d():
    # direct enumeration of the box, exact to eigensolver precision, for the
    # walk and the averaging operator; the hull orbit is the inclusive box
    # {0..a}^2 of a zplus action and the whole window of a z-symmetric one
    rng = np.random.default_rng(42)
    for action, steps, backs in box_actions_2d():
        x = random_herm(M2, rng)
        for a in (1, 2, 3, 4):
            box = folner_set(action.scheme, a)
            acc = M2.zero()
            for ks in box:
                y = x
                for k, step, back in zip(ks, steps, backs or steps):
                    for _ in range(abs(k)):
                        y = step(y) if k > 0 else back(y)
                acc = acc + y
            brute = (1.0 / len(box)) * acc
            assert op_norm(average(action, x, a) - brute) <= 1e-12
            assert op_norm(average_super(action, a)(x) - brute) <= 1e-12
            orbit = convergence._orbit_vectors(action, x, a)
            assert len(orbit) == (len(box) if backs else (a + 1) ** 2)


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


def literal_averages(action, x, schedule, hermitian=False):
    """A_a(x) point by point, each window summed afresh: the reference for
    the schedule walk of :func:`averages`.  With ``hermitian``, for a
    hermitian x, the sums run on the real hermitian-basis coordinates of x
    and the real generator matrices, and go back to vec coordinates."""
    kind, algebra, dim = action.scheme.kind, action.algebra, action.algebra.dim
    matrices, inverses = action.matrices, action.inverses
    if hermitian:
        matrices, inverses = action.real, action.real_inverses
    out = []
    for a in schedule:
        v = _to_hermitian(algebra, x.vec()).real if hermitian else x.vec()
        if kind == "finite-group":
            v = sum(m @ v for m in matrices) / action.scheme.order
        elif kind == "r-plus-cube":
            for L in matrices:
                aug = np.zeros((dim + 1, dim + 1), dtype=complex)
                aug[:dim, :dim], aug[:dim, dim] = L, v
                v = scipy.linalg.expm(a * aug)[:dim, dim] / a
        else:
            for axis, s in enumerate(matrices):
                back = a if kind == "z-symmetric-box" else 0
                size = 2 * a + 1 if back else a
                cur = v
                for _ in range(back):
                    cur = inverses[axis] @ cur
                acc = cur.copy()
                for _ in range(size - 1):
                    cur = s @ cur
                    acc += cur
                v = acc / size
        out.append(_to_vec(algebra, v) if hermitian else v)
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
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
    if name == "zplus-d1":
        # the same matvecs in the same order, in the hermitian basis where
        # the walk runs: bitwise equal
        for g, w in zip(got, literal_averages(action, x, schedule, hermitian=True)):
            assert np.array_equal(g, w)


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
    (L,) = action.matrices
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
# the matrix exponential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1.0, 10.0])
@pytest.mark.parametrize("b", [0.0, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_expm_of_a_triangular_pair_matches_the_closed_form(b, t):
    """exp(t [[-1, b], [0, -1.2]]) entry by entry; a scaling chosen from
    ||a||_1 alone, not from the d_k, overscales it and misses this bound for
    every b >= 1e4."""
    l1, l2 = -t, -1.2 * t
    corner = t * b * math.exp(l2) * math.expm1(l1 - l2) / (l1 - l2)
    want = np.array([[math.exp(l1), corner], [0.0, math.exp(l2)]])
    got = _expm(t * np.array([[-1.0, b], [0.0, -1.2]]))
    assert got[1, 0] == 0.0
    nz = want != 0
    assert np.max(np.abs(got - want)[nz] / np.abs(want[nz])) <= 1e-13


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("t", [1.0, 2.0, 8.0, 32.0, 128.0])
def test_expm_of_a_jordan_chain_matches_the_closed_form(mu, t):
    # exp(t (N - mu 1)) = e^(-mu t) sum_k t^k N^k / k! for the shift N on C^8
    n = 8
    N = np.eye(n, k=1)
    want = math.exp(-mu * t) * sum(
        np.linalg.matrix_power(t * N, k) / math.factorial(k) for k in range(n)
    )
    got = _expm(t * (N - mu * np.eye(n)))
    nz = want != 0
    assert np.all(got[~nz] == 0.0)
    assert np.max(np.abs(got - want)[nz] / np.abs(want[nz])) <= 1e-13


@pytest.mark.parametrize("x", [10.0, 1e2, 1e4])
def test_expm_of_a_rank_one_nilpotent_is_one_plus_it(x):
    """a = x [[1, 1], [-1, -1]] has a^2 = 0, so every d_k is 0; only the
    backward-error squarings keep the degree-3 approximant off a large |a|
    (without them the error is 2.3e-13 at x = 1e2 and 1e-9 at x = 1e4)."""
    a = x * np.array([[1.0, 1.0], [-1.0, -1.0]])
    want = np.eye(2) + a
    assert np.max(np.abs(_expm(a) - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_matches_scipy_on_random_complex_matrices_at_every_pade_degree(monkeypatch):
    from neveukit import dynamics

    degrees = []
    pade = dynamics._pade

    def recording_pade(a, powers, m, s):
        degrees.append(m)
        return pade(a, powers, m, s)

    monkeypatch.setattr(dynamics, "_pade", recording_pade)
    rng = np.random.default_rng(20)
    for n in (2, 7, 30, 100):
        for norm in (1e-3, 0.05, 0.3, 1.0, 2.0, 5.0, 40.0):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a *= norm / np.abs(a).sum(axis=0).max()
            got, want = _expm(a), scipy.linalg.expm(a)
            err = np.abs(got - want).sum(axis=0).max()
            assert err <= 1e-13 * np.abs(want).sum(axis=0).max(), (n, norm, degrees[-1])
    assert set(degrees) == {3, 5, 7, 9, 13}


@pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
def test_expm_matches_scipy_on_the_gallery_flow_walks(picture):
    """The augmented matrices a [[L, B], [0, 0]] that the averages of the
    shipped flow scenario exponentiate, with B = vec(1 / tau(1)) and B = 1."""
    (sc,) = [sc for sc in gallery() if sc.name == "lindblad-rplus"]
    action = sc.action.to_picture(picture)
    alg = action.algebra
    (L,) = action.matrices
    phi0 = reference_density(alg).vec()[:, None]
    for b in (phi0, np.eye(alg.dim)):
        aug = np.zeros((alg.dim + b.shape[1],) * 2, dtype=complex)
        aug[: alg.dim, : alg.dim], aug[: alg.dim, alg.dim :] = L, b
        for a in sc.schedule:
            got, want = _expm(a * aug), scipy.linalg.expm(a * aug)
            err = np.abs(got - want).sum(axis=0).max()
            assert err <= 1e-13 * np.abs(want).sum(axis=0).max()


def test_expm_of_zero_is_the_identity_and_of_a_scalar_is_exp():
    for n in (1, 2, 5):
        assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))
        assert np.array_equal(_expm(np.zeros((n, n), dtype=complex)), np.eye(n))
    for z in (0.3 + 1.7j, -40.0 + 0j, 2.5 - 0.25j):
        assert _expm(np.array([[z]]))[0, 0] == cmath.exp(z)


def test_expm_raises_no_runtime_warning_on_extreme_inputs():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases = [
        np.zeros((4, 4)),
        np.array([[0.0, 1e150], [0.0, 0.0]]),  # nilpotent: every d_k is 0
        1e-300 * h,  # even powers underflow to 0
        1e3 * (h - h.conj().T),  # skew-hermitian: many squarings, unitary result
        128.0 * (np.eye(8, k=1) - np.eye(8)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in cases:
            assert np.all(np.isfinite(_expm(a)))


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
        # dual() shares the table check rather than running it: the duals
        # represent the opposite group, and S_3 is not abelian, so they
        # fail the table of the group itself
        rebuilt = SemigroupAction(algebra, "schrodinger", schr.scheme, schr.generators)
        assert rebuilt.checks["representation"].passed
        rebuilt = SemigroupAction(algebra, "schrodinger", action.scheme, schr.generators)
        assert rebuilt.checks["representation"].verdict == "fail"
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
    # Z3 is abelian, so its opposite table is its table
    assert action.dual().checks["representation"].passed


def test_dual_and_summands_run_no_construction_check(monkeypatch):
    """The other picture and the uncoupled summands are derived: they share
    the construction checks, and none runs again."""
    actions = list(walk_actions().values())
    actions.append(actions[0].dual())
    calls = []

    def counted(check):
        def run(*args, **kwargs):
            calls.append(check)
            return check(*args, **kwargs)

        return run

    import neveukit.dynamics as dynamics

    for name in ("check_commuting", "check_contraction"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    monkeypatch.setattr(
        SemigroupAction,
        "_check_representation",
        counted(SemigroupAction._check_representation),
    )
    summands = 0
    for action in actions:
        derived = [action.dual(), action.dual().dual()]
        for d in [action] + derived[:]:
            derived += [sub for _, sub in d._summands() if sub is not d]
        summands += len(derived) - 2
        assert all(d.checks is action.checks for d in derived)
    assert summands >= 10
    assert calls == []


def test_derived_z_symmetric_inverses_invert_the_derived_generators():
    action = walk_actions()["z-symmetric"]
    for act in (action.dual(), action.dual().dual()):
        for m, inv in zip(act.real, act.real_inverses):
            assert np.linalg.norm(m @ inv - np.eye(len(m)), 2) <= 1e-10
    for got, want in zip(action.dual().dual().real_inverses, action.real_inverses):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_a_flow_generator_is_a_superoperator():
    action = walk_actions()["r-plus-cube"]
    for act in (action, action.dual()):
        (gen,) = act.generators
        assert gen.source == "flow-generator" and not gen.attestations
        assert act.real[0] is gen.hermitian()
        assert np.array_equal(act.matrices[0], gen.matrix)


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
    total = np.eye(s.shape[0], dtype=s.dtype)
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
    over the axes of one doubling walk to a on the summand's real
    sub-matrices,
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
        mats = [m[_square(coords)] for m in action.real]
        for a in (16, 64):
            want = single_walk_power_sum(mats[0], a) / a
            for m in mats[1:]:
                want = (single_walk_power_sum(m, a) / a) @ want
            assert np.array_equal(average_super(sub, a).hermitian(), want)


def gallery_action(name):
    (sc,) = [sc for sc in gallery() if sc.name == name]
    return sc.action


@pytest.mark.parametrize(
    "call",
    [
        lambda action, x, a: average(action, x, a),
        lambda action, x, a: average_super(action, a),
        lambda action, x, a: folner_set(action.scheme, a),
    ],
    ids=["average", "average_super", "folner_set"],
)
@pytest.mark.parametrize("a", [2.99, 1.2, math.inf, -math.inf, math.nan])
def test_a_box_index_is_never_truncated(call, a):
    """A box index that is not finite or not integral is refused with a
    ValueError that names it; before, 2.99 gave A_2, the schedule
    [1.2, 1.7, 2.9] gave A_1, A_1 and A_2, and inf raised OverflowError."""
    action = gallery_action("amplitude-damping")
    x = action.algebra.basis_element(0, 1, 1)
    with pytest.raises(ValueError, match=f"Foelner index a must be .*got {a!r}"):
        call(action, x, a)


def test_a_schedule_of_box_indices_is_never_truncated():
    action = gallery_action("amplitude-damping")
    x = action.algebra.basis_element(0, 1, 1)
    with pytest.raises(ValueError, match="must be an integer, got 1.2"):
        averages(action, x, [1.2, 1.7, 2.9])


def test_an_integral_index_of_any_type_is_the_int():
    """2.0, np.int64(2) and np.float64(2.0) give bitwise the average at 2,
    on a box and on a finite group."""
    flip = M2.operator([np.array([[0, 1], [1, 0]])])
    group = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    for action in (
        gallery_action("amplitude-damping"),
        SemigroupAction(
            M2, "heisenberg", group,
            [from_conjugation(M2, M2.identity()), from_conjugation(M2, flip)],
        ),
    ):
        x = action.algebra.basis_element(0, 0, 1)
        want = average(action, x, 2).block_mats
        for a in (2.0, np.int64(2), np.float64(2.0)):
            assert action.scheme.side(a) == 2 and type(action.scheme.side(a)) is int
            got = average(action, x, a).block_mats
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_a_group_index_is_integral():
    scheme = FolnerScheme("finite-group", order=2, table=((0, 1), (1, 0)))
    for a in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"got {a!r}"):
            scheme.side(a)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_a_flow_side_is_finite(a):
    """A non-finite cube side is refused by name before any exponential;
    before, nan and inf passed the a <= 0 test and failed inside _expm with
    a RuntimeWarning and "cannot convert float NaN to integer"."""
    action = gallery_action("lindblad-rplus")
    x = reference_density(action.algebra)
    with pytest.raises(ValueError, match=f"Foelner index a must be finite, got {a!r}"):
        average(action, x, a)
    # a finite non-integral side is a flow's own
    assert action.scheme.side(2.5) == 2.5
