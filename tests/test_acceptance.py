"""End-to-end acceptance checks.

Each test prints one machine-greppable verdict line of the form

    criterion 01 [identity neveu]: PASS

and enforces the stated tolerances; a failing assertion prints FAIL for the
same criterion before propagating.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from neveukit.algebra import TracialAlgebra, op_norm, support
from neveukit.convergence import (
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
    check_lamperti,
    from_classical,
    from_conjugation,
    from_kraus,
)
from neveukit.neveu import invariant_state, mean_ergodic_projection, neveu_decompose
from neveukit.scenarios import gallery


def _verdict(num, label, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


M2 = TracialAlgebra.full_matrix(2)


def amplitude_damping(algebra, g):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    return from_kraus(algebra, [[k0], [k1]])


def zplus_action(*gens, picture="heisenberg"):
    algebra = gens[0].algebra
    scheme = FolnerScheme("zplus-box", d=len(gens))
    return SemigroupAction(algebra, picture, scheme, list(gens))


GALLERY = gallery()


# ---------------------------------------------------------------------------
# 1. identity-action decomposition, exact and fast
# ---------------------------------------------------------------------------


def test_criterion_01_identity_neveu():
    def check():
        from neveukit.maps import SuperOperator

        action = zplus_action(SuperOperator.identity(M2))
        t0 = time.perf_counter()
        dec = neveu_decompose(action)
        elapsed = time.perf_counter() - t0
        assert op_norm(dec.e1 - M2.identity()) <= 1e-12
        assert op_norm(dec.e2) <= 1e-12
        assert op_norm(dec.invariant_density - M2.identity()) <= 1e-12
        assert elapsed < 0.1

    _verdict(1, "identity neveu", check)


# ---------------------------------------------------------------------------
# 2. amplitude damping against the geometric series oracle
# ---------------------------------------------------------------------------


def test_criterion_02_amplitude_damping_oracle():
    def check():
        g = 0.5
        t0 = time.perf_counter()
        action = zplus_action(amplitude_damping(M2, g))
        dec = neveu_decompose(action)
        assert dec.e1.rank == 1
        ground = M2.operator([np.diag([1.0, 0.0])])
        assert op_norm(dec.e1 - ground) <= 1e-10
        for a in range(1, 65):
            got = op_norm(average(action, dec.e2, a))
            want = (1.0 - (1.0 - g) ** a) / (a * g)
            assert abs(got - want) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert abs(op_norm(average(action, dec.e2, 10)) - 0.199805) <= 1e-6
        assert elapsed < 1.0

    _verdict(2, "amplitude damping oracle", check)


# ---------------------------------------------------------------------------
# 3. classical kernels against a brute-force stationary-support oracle
# ---------------------------------------------------------------------------


def _random_substochastic_kernel(rng, n=6):
    k = np.zeros((n, n))
    for i in range(n):
        if rng.uniform() < 0.25:
            row = np.zeros(n)
            row[rng.integers(n)] = 1.0
        else:
            row = rng.exponential(1.0, n)
            row[row < 0.35] = 0.0  # sparsify, keep surviving entries sizable
            if row.sum() == 0.0:
                row[rng.integers(n)] = 1.0
            row = row / row.sum()
        if rng.uniform() > 0.6:
            row = row * rng.uniform(0.3, 0.95)  # strict leak
        k[i] = row
    return k


def _stationary_support_oracle(kernel):
    """Union of conservative closed classes, confirmed by eigen-analysis.

    A class supports a stationary distribution iff it is strongly connected,
    has no outgoing edges, and its rows are exactly stochastic; for each such
    class the Perron eigenvalue of the restricted kernel must be 1.
    """
    n = kernel.shape[0]
    graph = (kernel > 0.0).astype(int)
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    keep = np.zeros(n, dtype=bool)
    for c in range(n_comp):
        members = np.nonzero(labels == c)[0]
        outside = np.nonzero(labels != c)[0]
        if outside.size and kernel[np.ix_(members, outside)].sum() > 0.0:
            continue
        row_sums = kernel[members].sum(axis=1)
        if np.any(row_sums < 1.0 - 1e-12):
            continue
        sub = kernel[np.ix_(members, members)]
        lam = np.linalg.eigvals(sub.T)
        assert np.min(np.abs(lam - 1.0)) <= 1e-9
        keep[members] = True
    return keep


def test_criterion_03_classical_oracle_equivalence():
    def check():
        t0 = time.perf_counter()
        algebra = TracialAlgebra.commutative([1.0 / 6.0] * 6)
        agree = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            kernel = _random_substochastic_kernel(rng)
            action = zplus_action(from_classical(algebra, kernel))
            dec = neveu_decompose(action, seed=seed)
            got = np.array([m[0, 0].real for m in dec.e1.block_mats])
            want = _stationary_support_oracle(kernel).astype(float)
            assert np.max(np.abs(got - want)) <= 1e-8, (seed, got, want)
            agree += 1
        elapsed = time.perf_counter() - t0
        assert agree == 100
        assert elapsed < 30.0

    _verdict(3, "classical stationary-support oracle", check)


# ---------------------------------------------------------------------------
# 4. mean ergodic projection on every gallery action
# ---------------------------------------------------------------------------


def _generator_step_matrices(action):
    if action.scheme.kind == "r-plus-cube":
        return [expm(L) for L in action.matrices]
    return [s.matrix for s in action.generators]


def test_criterion_04_mean_projection_gallery():
    def check():
        for sc in GALLERY:
            proj = mean_ergodic_projection(sc.action)
            e = proj.superop.matrix
            assert np.linalg.norm(e @ e - e, 2) <= 1e-9, sc.name
            for m in _generator_step_matrices(sc.action):
                assert np.linalg.norm(m @ e - e, 2) <= 1e-9, sc.name
                assert np.linalg.norm(e @ m - e, 2) <= 1e-9, sc.name
            norms = [
                np.linalg.norm(average_super(sc.action, a).matrix - e, 2)
                for a in (4, 8, 16, 32, 64)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:])), sc.name
            # C/a envelope calibrated at a = 4 must cover the a = 64 point
            assert norms[-1] <= 10.0 * (4.0 * norms[0]) / 64.0 + 1e-9, sc.name

    _verdict(4, "gallery mean ergodic projections", check)


# ---------------------------------------------------------------------------
# 5. measure certifier versus direct eigenvalue counting
# ---------------------------------------------------------------------------


def test_criterion_05_measure_certifier_exactness():
    def check():
        shapes = [
            TracialAlgebra.full_matrix(2),
            TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3]),
            TracialAlgebra([2, 1], [0.3, 0.4]),
            TracialAlgebra.full_matrix(3),
        ]
        violations = 0
        for seed in range(1000):
            rng = np.random.default_rng(20_000 + seed)
            algebra = shapes[seed % len(shapes)]
            d = algebra.random_hermitian(rng)
            eps = float(rng.uniform(0.1, 2.0))
            cert = measure_certify([d], algebra.zero(), eps=eps, delta_tol=10.0)
            by_count = sum(
                w * float(np.sum(np.abs(np.linalg.eigvalsh(m)) >= eps - 1e-10))
                for w, m in zip(algebra.weights, d.block_mats)
            )
            assert cert.rows[0]["delta"] == by_count, seed
            if cert.rows[0]["corner_norm"] > eps:
                violations += 1
        assert violations == 0

    _verdict(5, "measure certifier exactness", check)


# ---------------------------------------------------------------------------
# 6. cross-term lemma at scale on the gallery
# ---------------------------------------------------------------------------


def test_criterion_06_cross_term_lemma():
    def check():
        actions = []
        for sc in GALLERY:
            schr = sc.action.to_picture("schrodinger")
            actions.append((schr, neveu_decompose(schr, seed=sc.seed)))
        eps_pool = (0.1, 0.2, 0.35)
        violations = 0
        checked_rows = 0
        for seed in range(1000):
            schr, dec = actions[seed % len(actions)]
            rng = np.random.default_rng(30_000 + seed)
            x = schr.algebra.random_density(rng)
            eps = eps_pool[seed % len(eps_pool)]
            rep = stochastic_run(
                schr, x, eps=eps, delta=0.2, decomposition=dec, seed=seed
            )
            for row in rep.rows:
                if row["past_burn_in"]:
                    checked_rows += 1
                    if row["cross_norm"] > row["cross_bound"]:
                        violations += 1
        assert checked_rows > 0
        assert violations == 0

    _verdict(6, "cross-term lemma", check)


# ---------------------------------------------------------------------------
# 7. Lamperti classification with corner compatibility
# ---------------------------------------------------------------------------


def test_criterion_07_lamperti_classification():
    def check():
        C3 = TracialAlgebra.commutative([1 / 3, 1 / 3, 1 / 3])
        M3 = TracialAlgebra.full_matrix(3)
        swap = from_conjugation(M2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
        cycle3 = from_conjugation(
            M3, [np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])]
        )
        perm_kernel = from_classical(
            C3, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        )
        merge_kernel = from_classical(
            C3, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        )
        passing = [swap, cycle3, perm_kernel, merge_kernel]
        for s in passing:
            assert check_lamperti(s).passed

        p = 0.75
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        w = np.sqrt(p / 4.0)
        depol = from_kraus(
            M2,
            [[np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2)], [w * sx], [w * sy], [w * sz]],
        )
        mixing = from_classical(C3, np.full((3, 3), 1.0 / 3.0))
        for s in (depol, mixing):
            rep = check_lamperti(s)
            assert rep.verdict == "fail"
            a, b = rep.witness
            assert op_norm(a @ b) <= 1e-12  # genuinely disjoint inputs
            assert op_norm(s(a) @ s(b)) > 1e-9  # overlapping images

        # corner compatibility on every case whose density-picture maps pass
        rng = np.random.default_rng(77)
        for s in (swap, cycle3, perm_kernel):
            action = zplus_action(s)
            dec = neveu_decompose(action)
            x = action.algebra.random_density(rng)
            rep = corner_compatibility(action, dec, x)
            assert rep.passed
            assert rep.detail["max_deviation"] <= 1e-9
        # a merging kernel passes on observables but its predual does not
        # preserve disjointness, so the corner check must refuse, not lie
        action = zplus_action(merge_kernel)
        dec = neveu_decompose(action)
        with pytest.raises(PreconditionError):
            corner_compatibility(action, dec, C3.identity())

    _verdict(7, "lamperti classification", check)


# ---------------------------------------------------------------------------
# 8. convex hull characterization
# ---------------------------------------------------------------------------


def test_criterion_08_convex_hull():
    def check():
        e11 = M2.operator([np.diag([0.0, 1.0])])
        swap_action = next(s for s in GALLERY if s.name == "swap-automorphism").action
        res = convex_hull_residual(swap_action, e11, a=2)
        assert res.residual <= 1e-10

        g = 0.5
        ad_action = next(s for s in GALLERY if s.name == "amplitude-damping").action
        for a in (1, 2, 4, 8, 16):
            res = convex_hull_residual(ad_action, e11, a=a)
            assert res.residual <= (1.0 - g) ** a + 1e-10

    _verdict(8, "convex hull characterization", check)


# ---------------------------------------------------------------------------
# 9. in-measure convergence does not imply b.a.u.
# ---------------------------------------------------------------------------


def test_criterion_09_bau_measure_separation():
    def check():
        algebra, seq, limit, schedule = moving_bump_counterexample()
        measure = measure_certify(
            seq, limit, eps=0.5, schedule=schedule, delta_tol=0.05
        )
        assert measure.passed
        bau = bau_certify(seq, limit, delta_budget=0.1, schedule=schedule)
        assert bau.verdict == "fail"

    _verdict(9, "bau/measure separation", check)


# ---------------------------------------------------------------------------
# 10. decomposition uniqueness across faithful initial densities
# ---------------------------------------------------------------------------


def test_criterion_10_uniqueness_across_densities():
    def check():
        for sc in GALLERY:
            schr = sc.action.to_picture("schrodinger")
            proj = mean_ergodic_projection(schr)
            y_ref = invariant_state(schr, projection=proj)
            e_ref = (
                support(y_ref)
                if y_ref is not None
                else sc.algebra.zero()
            )
            rank_ref = getattr(e_ref, "rank", 0)
            for probe in range(10):
                rng = np.random.default_rng(500 + probe)
                phi = schr.algebra.random_density(rng)
                y = invariant_state(schr, phi0=phi, projection=proj)
                assert (y is None) == (y_ref is None), sc.name
                if y is None:
                    continue
                e = support(y)
                assert e.rank == rank_ref, sc.name
                assert op_norm(e - e_ref) <= 1e-8, sc.name

    _verdict(10, "uniqueness across densities", check)
