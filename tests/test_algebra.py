import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neveukit.algebra import (
    Operator,
    Projection,
    TracialAlgebra,
    abs_op,
    distribution,
    op_norm,
    op_norms,
    order_leq,
    spectral_decompose,
    spectral_projection,
    support,
    trace,
    trace_norm,
    POSITIVE_RTOL,
    SUPPORT_RTOL,
)

M2 = TracialAlgebra.full_matrix(2)
C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])


def random_op(algebra, rng):
    return algebra.operator(
        [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in algebra.blocks
        ]
    )


# ---------------------------------------------------------------------------
# construction and the trace
# ---------------------------------------------------------------------------


def test_full_matrix_trace_is_normalized():
    assert M2.normalized
    assert trace(M2.identity()) == pytest.approx(1.0)


def test_commutative_trace_hand_value():
    # tau(diag(3, 1, 0.1)) with uniform weights 1/3: (3 + 1 + 0.1) / 3
    x = C3.diag([3.0, 1.0, 0.1])
    assert trace(x).real == pytest.approx(4.1 / 3, abs=1e-15)
    assert trace(x).imag == pytest.approx(0.0, abs=1e-15)


def test_trace_weighted_blocks():
    alg = TracialAlgebra([2, 1], [0.25, 0.5])  # 2*0.25 + 1*0.5 = 1
    assert alg.normalized
    x = alg.operator([np.diag([1.0, 2.0]), [[4.0]]])
    assert trace(x).real == pytest.approx(0.25 * 3 + 0.5 * 4)


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        TracialAlgebra([2], [0.0])
    with pytest.raises(ValueError):
        TracialAlgebra([2], [-1.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and > 0"):
            TracialAlgebra([2, 1], [0.25, bad])


def test_block_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        M2.operator([np.eye(3)])
    with pytest.raises(ValueError):
        Operator(M2, [np.eye(2), np.eye(2)])


def test_algebra_equality_is_exact_transitive_and_agrees_with_hash():
    # weights one to a few ulps apart around 0.1234567890123445
    w = 0.1234567890123445
    ws = [w, w + 6e-16, w + 12e-16]
    algs = [TracialAlgebra([2], [v]) for v in ws]
    for a in algs:
        for b in algs:
            if a == b:
                assert hash(a) == hash(b)
                assert len({a, b}) == 1
            for c in algs:
                if a == b and b == c:
                    assert a == c
    twin = TracialAlgebra([2], [w])
    assert twin == algs[0] and hash(twin) == hash(algs[0])
    assert len({twin, algs[0]}) == 1


def test_mixed_algebra_arithmetic_rejected():
    other = TracialAlgebra.full_matrix(2)
    weird = TracialAlgebra([2], [0.3])
    x, y = M2.identity(), weird.identity()
    with pytest.raises(ValueError):
        _ = x + y
    assert trace(M2.identity() + other.identity()).real == pytest.approx(2.0)


def test_trace_is_tracial():
    rng = np.random.default_rng(7)
    alg = TracialAlgebra([2, 3], [0.1, 0.2])
    for _ in range(25):
        x, y = random_op(alg, rng), random_op(alg, rng)
        assert trace(x @ y) == pytest.approx(trace(y @ x), abs=1e-12)


def test_vec_round_trip():
    rng = np.random.default_rng(11)
    alg = TracialAlgebra([2, 3, 1], [0.1, 0.1, 0.5])
    x = random_op(alg, rng)
    y = alg.from_vec(x.vec())
    assert all(
        np.allclose(a, b, atol=0) for a, b in zip(x.block_mats, y.block_mats)
    )
    assert alg.dim == 4 + 9 + 1


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_trace_norm_oracle_dense_svd():
    # Independent oracle: stack each block, take numpy SVD, weight and sum.
    rng = np.random.default_rng(3)
    alg = TracialAlgebra([2, 3], [0.2, 0.15])
    for _ in range(20):
        x = random_op(alg, rng)
        expected = sum(
            w * np.linalg.svd(m, compute_uv=False).sum()
            for w, m in zip(alg.weights, x.block_mats)
        )
        assert trace_norm(x) == pytest.approx(expected, rel=1e-12)


def test_trace_norm_hand_value():
    x = C3.diag([3.0, -1.0, 0.1])
    assert trace_norm(x) == pytest.approx(4.1 / 3, rel=1e-14)


def test_op_norm_diag():
    x = C3.diag([3.0, -1.0, 0.1])
    assert op_norm(x) == pytest.approx(3.0)


def test_norm_triangle_and_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = random_op(M2, rng), random_op(M2, rng)
        assert trace_norm(x + y) <= trace_norm(x) + trace_norm(y) + 1e-12
        # unitary invariance of ||.||_1 under u x u*
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        u = M2.operator([q])
        assert trace_norm(u @ x @ u.H) == pytest.approx(trace_norm(x), rel=1e-10)


def test_l1_op_duality_bound():
    # |tau(x y)| <= ||x||_1 ||y|| on random pairs
    rng = np.random.default_rng(13)
    alg = TracialAlgebra([2, 2], [0.2, 0.05])
    for _ in range(30):
        x, y = random_op(alg, rng), random_op(alg, rng)
        assert abs(trace(x @ y)) <= trace_norm(x) * op_norm(y) + 1e-12


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


def test_spectral_decompose_reassembles():
    rng = np.random.default_rng(17)
    alg = TracialAlgebra([3, 2], [0.2, 0.2])
    for _ in range(10):
        h = alg.random_hermitian(rng)
        pairs = spectral_decompose(h)
        acc = alg.zero()
        total = alg.zero()
        for lam, p in pairs:
            acc = acc + lam * p
            total = total + p
        assert op_norm(acc - h) <= 1e-10 * max(op_norm(h), 1.0)
        assert op_norm(total - alg.identity()) <= 1e-10


def test_spectral_decompose_degenerate_cluster():
    h = C3.diag([1.0, 1.0 + 1e-13, 5.0])
    pairs = spectral_decompose(h)
    assert len(pairs) == 2
    lam0, p0 = pairs[0]
    assert lam0 == pytest.approx(1.0, abs=1e-12)
    assert p0.rank == 2


def test_spectral_decompose_rejects_nonhermitian():
    x = M2.operator([[[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError):
        spectral_decompose(x)


def test_spectral_projection_half_open():
    h = C3.diag([0.3, 0.6, 0.9])
    p = spectral_projection(h, (0.5, 1.0))
    assert np.allclose(p.dense().real, np.diag([0.0, 1.0, 1.0]))
    # boundary: eigenvalue exactly at the lower endpoint is included
    h2 = C3.diag([0.5, 0.2, 0.9])
    p2 = spectral_projection(h2, (0.5, 1.0))
    assert np.allclose(p2.dense().real, np.diag([1.0, 0.0, 1.0]))
    # and exactly at the upper endpoint is excluded
    p3 = spectral_projection(h2, (0.0, 0.5))
    assert np.allclose(p3.dense().real, np.diag([0.0, 1.0, 0.0]))


def test_spectral_projection_unbounded_side():
    h = C3.diag([-1.0, 0.0, 2.0])
    p = spectral_projection(h, (None, 0.0))
    assert np.allclose(p.dense().real, np.diag([1.0, 0.0, 0.0]))
    q = spectral_projection(h, (0.0, None))
    assert np.allclose(q.dense().real, np.diag([0.0, 1.0, 1.0]))
    z = spectral_projection(h, (5.0, None))
    assert z.rank == 0


def test_projection_admission():
    with pytest.raises(ValueError):
        Projection(M2, [np.array([[0.5, 0.0], [0.0, 1.0]])])
    p = Projection(M2, [np.diag([1.0, 0.0])])
    assert p.rank == 1
    assert p.complement().rank == 1


def test_support_diagonal():
    x = C3.diag([2.0, 0.0, 1e-14])
    s = support(x)
    assert np.allclose(s.dense().real, np.diag([1.0, 0.0, 0.0]))


def test_support_requires_positive():
    with pytest.raises(ValueError):
        support(C3.diag([1.0, -1.0, 0.0]))


def test_support_of_decaying_average_never_shrinks():
    # (1/a) sum_{k<a} (1-g)^k E11 keeps full support at every finite a;
    # oracle: the scalar (1 - (1-g)^a) / (a g) stays > 0.
    g = 0.5
    e11 = M2.basis_element(0, 1, 1)
    for a in [1, 2, 10, 50]:
        scale = (1 - (1 - g) ** a) / (a * g)
        assert scale > 0
        s = support(scale * e11)
        assert s.rank == 1
        assert op_norm(s - e11) <= 1e-12


def test_distribution_counting_oracle():
    # weighted eigenvalue counting against a direct numpy count
    rng = np.random.default_rng(23)
    alg = TracialAlgebra([3, 2], [0.15, 0.2])
    for _ in range(50):
        h = alg.random_hermitian(rng)
        eps = float(rng.uniform(0.1, 1.5))
        expected = sum(
            w * int(np.sum(np.abs(np.linalg.eigvalsh(m)) >= eps))
            for w, m in zip(alg.weights, h.block_mats)
        )
        assert distribution(h, eps) == pytest.approx(expected, abs=1e-12)


def test_distribution_hand_value():
    x = C3.diag([3.0, 1.0, 0.1])
    assert distribution(x, 0.5) == pytest.approx(2 / 3, abs=1e-12)
    assert distribution(x, 0.05) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        distribution(x, 0.0)


def test_abs_op_matches_singular_values():
    rng = np.random.default_rng(29)
    x = random_op(M2, rng)
    a = abs_op(x)
    assert a.is_positive()
    s = np.linalg.svd(x.block_mats[0], compute_uv=False)
    lam = np.sort(np.linalg.eigvalsh(a.block_mats[0]))
    assert np.allclose(np.sort(s), lam, atol=1e-12)


def test_order_leq():
    assert order_leq(C3.diag([0, 0, 0]), C3.diag([1, 2, 3]))
    assert order_leq(C3.diag([1, 1, 1]), C3.diag([1, 1, 1]))
    assert not order_leq(C3.diag([2, 0, 0]), C3.diag([1, 1, 1]))
    # slack absorbs tiny negative dips
    assert order_leq(C3.diag([1 + 1e-12, 0, 0]), C3.diag([1, 1, 1]))


def test_projection_lattice_basics():
    p = Projection(C3, [[[1.0]], [[0.0]], [[1.0]]])
    q = p.complement()
    assert trace(p).real == pytest.approx(2 / 3)
    assert trace(q).real == pytest.approx(1 / 3)
    assert op_norm(p @ q) <= 1e-15


# ---------------------------------------------------------------------------
# the shared spectral data: properties over block structures and weights
# ---------------------------------------------------------------------------

BLOCK_SPECS = st.lists(
    st.tuples(st.integers(1, 4), st.floats(0.05, 2.0)), min_size=1, max_size=3
)


def _algebra(blocks):
    return TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])


def _random_block(rng, n, cols):
    return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    blocks=BLOCK_SPECS,
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
)
def test_support_of_rank_deficient_positive(blocks, seed, log_scale):
    """s x = x, s is idempotent, and rank s counts the eigenvalues above
    theta = 1e-10 max(lambda_max, 1), against a dense per-block oracle."""
    algebra = _algebra(blocks)
    rng = np.random.default_rng(seed)
    mats, planted = [], 0
    for n in algebra.blocks:
        r = int(rng.integers(0, n))  # strictly rank-deficient
        g = _random_block(rng, n, r)
        mats.append(10.0**log_scale * (g @ g.conj().T))
        planted += r
    x = algebra.operator(mats)
    s = support(x)
    scale = max(op_norm(x), 1.0)
    assert op_norm(s @ x - x) <= 1e-9 * scale
    assert op_norm(s @ s - s) <= 1e-12
    lam = np.concatenate([np.linalg.eigvalsh(m) for m in mats])
    theta = SUPPORT_RTOL * max(lam.max(), 1.0)
    assert s.rank == int(np.sum(lam > theta)) == planted


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(blocks=BLOCK_SPECS, seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
def test_spectral_functions_match_dense_per_block_oracle(blocks, seed, hermitian):
    """trace_norm, abs_op, spectral_decompose and is_positive, all reading one
    cached eigendecomposition, against SVD / eigvalsh of each block."""
    algebra = _algebra(blocks)
    rng = np.random.default_rng(seed)
    mats = [_random_block(rng, n, n) for n in algebra.blocks]
    if hermitian:
        mats = [(m + m.conj().T) / 2.0 for m in mats]
    x = algebra.operator(mats)
    norm = op_norm(x)

    svs = [np.linalg.svd(m, compute_uv=False) for m in mats]
    expected = sum(w * s.sum() for w, s in zip(algebra.weights, svs))
    assert trace_norm(x) == pytest.approx(expected, rel=1e-12)

    a = abs_op(x)
    for m, am in zip(mats, a.block_mats):
        _, s, vh = np.linalg.svd(m)
        oracle = (vh.conj().T * s) @ vh
        assert np.linalg.norm(am - oracle, 2) <= 1e-12 * max(norm, 1.0)
    assert a.is_positive()

    assert x.is_hermitian() == hermitian
    if not hermitian:
        assert not x.is_positive()
        with pytest.raises(ValueError):
            spectral_decompose(x)
        return
    lo = min(np.linalg.eigvalsh(m).min() for m in mats)
    assert x.is_positive() == (lo >= -POSITIVE_RTOL * norm)
    pairs = spectral_decompose(x)
    total = sum((lam * p for lam, p in pairs), algebra.zero())
    assert op_norm(total - x) <= 1e-10 * max(norm, 1.0)
    ones = sum((p for _, p in pairs), algebra.zero())
    assert op_norm(ones - algebra.identity()) <= 1e-12
    # the positive branch: a shift past the oracle's minimum eigenvalue
    shifted = x + (abs(lo) + 1.0) * algebra.identity()
    assert shifted.is_positive()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(blocks=BLOCK_SPECS, seed=st.integers(0, 2**32 - 1))
def test_spectral_results_do_not_depend_on_call_order(blocks, seed):
    """support after the other spectral queries equals support on a fresh
    copy, bit for bit."""
    algebra = _algebra(blocks)
    rng = np.random.default_rng(seed)
    mats = []
    for n in algebra.blocks:
        g = _random_block(rng, n, int(rng.integers(1, n + 1)))
        mats.append(g @ g.conj().T)
    used = algebra.operator([m.copy() for m in mats])
    assert used.is_positive()
    trace_norm(used)
    abs_op(used)
    distribution(used, 0.5)
    spectral_decompose(used)
    fresh = algebra.operator([m.copy() for m in mats])
    for p, q in zip(support(used).block_mats, support(fresh).block_mats):
        assert np.array_equal(p, q)


def test_one_eigendecomposition_serves_every_spectral_query(monkeypatch):
    """Every query on x reads x's cached decomposition: LAPACK sees each
    hermitian block of x once (the projections built along the way are
    new operators with their own decompositions)."""
    alg = TracialAlgebra([3, 2, 1], [0.1, 0.2, 0.3])
    x = alg.random_positive(np.random.default_rng(31))
    parts = [(m + m.conj().T) / 2.0 for m in x.block_mats]
    seen = []
    original = np.linalg.eigh

    def counting(m, *args, **kwargs):
        seen.extend(i for i, h in enumerate(parts) if np.array_equal(m, h))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    support(x)
    x.is_positive()
    trace_norm(x)
    abs_op(x)
    distribution(x, 0.5)
    spectral_decompose(x)
    spectral_projection(x, (0.5, None))
    assert sorted(seen) == list(range(alg.n_blocks))


def test_support_takes_one_eigendecomposition_per_block(monkeypatch):
    """support(x) on M3+M2+C decomposes x's three blocks and nothing more:
    the projection it builds carries its ranks, with no admission eigh."""
    alg = TracialAlgebra([3, 2, 1], [0.1, 0.2, 0.3])
    x = alg.random_positive(np.random.default_rng(31))
    calls = []
    original = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    s = support(x)
    assert len(calls) == 3
    assert s.ranks == (3, 2, 1)


def test_is_positive_reads_its_slack_off_the_eigenvalues(monkeypatch):
    """At unit scale an eigenvalue of -1e-8 is negative and one of -1e-11
    is rounding, under the slack 1e-10 ||x||; on a hermitian operator the
    check takes its scale from the eigenvalues, with no norm or SVD call."""
    alg = TracialAlgebra([3, 2, 1], [0.1, 0.2, 0.3])
    u = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
    m = u @ np.diag([-1.0, 0.0, -1e-11]) @ u.T
    # (m + m^T) / 2 is exactly symmetric, so is_hermitian takes no norm either
    rotated = alg.operator([(m + m.T) / 2.0, -np.eye(2), [[0.0]]])
    calls = []
    for name in ("norm", "svd"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for low, positive in ((-1e-8, False), (-1e-11, True), (0.0, True)):
        x = alg.operator([np.diag([1.0, 0.5, low]), np.diag([0.25, 1.0]), [[0.5]]])
        assert x.is_positive() == positive
    assert not rotated.is_positive()
    assert (-1.0 * rotated).is_positive()
    assert calls == []


def test_spectral_projection_is_the_sum_of_its_clusters():
    """chi_[lo, hi)(h), built once from the selected eigenvectors, equals the
    sum of the spectral_decompose projections whose eigenvalue is in [lo, hi)."""
    rng = np.random.default_rng(41)
    alg = TracialAlgebra([3, 2, 1], [0.1, 0.2, 0.3])
    for _ in range(10):
        h = alg.random_hermitian(rng)
        lo, hi = sorted(rng.uniform(-2.0, 2.0, size=2))
        p = spectral_projection(h, (lo, hi))
        kept = [q for lam, q in spectral_decompose(h) if lo <= lam < hi]
        total = sum(kept, alg.zero())
        assert op_norm(p - total) <= 1e-12
        assert p.ranks == tuple(
            sum(q.ranks[b] for q in kept) for b in range(alg.n_blocks)
        )


# ---------------------------------------------------------------------------
# batched spectral norms and the hermitian test
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 5), st.floats(0.05, 2.0)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 6),
)
def test_op_norms_equal_per_block_spectral_norms_bitwise(blocks, seed, count):
    """op_norms(xs)[i] is max_b np.linalg.norm(x_i,b, 2) to the last bit,
    over scales 1e-12..1e3 mixed within one list, zero operators included."""
    algebra = _algebra(blocks)
    rng = np.random.default_rng(seed)
    xs = []
    for _ in range(count):
        if rng.random() < 0.2:
            xs.append(algebra.zero())
            continue
        scale = 10.0 ** rng.uniform(-12.0, 3.0)
        xs.append(algebra.operator([scale * _random_block(rng, n, n) for n in algebra.blocks]))
    want = [max(float(np.linalg.norm(m, 2)) for m in x.block_mats) for x in xs]
    got = op_norms(xs)
    assert got == want
    assert all(type(v) is float for v in got)
    assert [op_norm(x) for x in xs] == want
    assert op_norms(xs[:1]) == want[:1]


def test_op_norms_of_nothing_and_of_mixed_algebras():
    assert op_norms([]) == []
    with pytest.raises(ValueError, match="different algebras"):
        op_norms([M2.identity(), TracialAlgebra.full_matrix(3).identity()])
    with pytest.raises(ValueError, match="different algebras"):
        op_norms([M2.identity(), M2.identity(), C3.identity()])


def test_is_hermitian_decision_and_exact_fast_path(monkeypatch):
    """A 1e-14 ||x|| anti-hermitian part passes the 1e-12 relative test and
    1e-10 ||x|| fails it; an exactly hermitian operator takes no norm."""
    alg = TracialAlgebra([3, 2], [0.1, 0.35])
    rng = np.random.default_rng(8)
    h = alg.random_hermitian(rng)
    g = random_op(alg, rng)
    k = g - g.H
    k = (1.0 / op_norm(k)) * k
    norm = op_norm(h)
    assert (h + (1e-14 * norm) * k).is_hermitian()
    assert not (h + (1e-10 * norm) * k).is_hermitian()

    calls = []
    original = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    fresh = alg.operator([m.copy() for m in h.block_mats])
    assert fresh.is_hermitian()
    assert calls == []
    assert not (h + (1e-10 * norm) * k).is_hermitian()
    assert len(calls) == alg.n_blocks
