"""The certificate layer one point at a time.

Each deviation is compressed onto the corner basis as its own list of block
matrices and takes its own hermiticity test, ``eigh`` (or SVD), witness
V V* and norms.  The tests compare the stacked certificates of
:mod:`neveukit.convergence` against these functions; the package does not
use them.
"""

import numpy as np

from neveukit.algebra import (
    BOUNDARY_SNAP,
    HERMITIAN_RTOL,
    Projection,
    op_norms,
)
from neveukit.convergence import (
    CROSS_TERM_SLACK,
    DECAY_TOL,
    SUPPORT_LEAK_TOL,
    BauCertificate,
    MeasureCertificate,
    StochasticReport,
)
from neveukit.dynamics import averages
from neveukit.maps import PreconditionError
from neveukit.neveu import (
    DEFAULT_SCHEDULE,
    SLOPE_WINDOW,
    neveu_decompose,
    tail_decay_verdict,
)


def _norm(mats):
    """The largest spectral norm of a list of block matrices (0 if all are
    empty)."""
    return max([np.linalg.norm(m, 2) for m in mats if m.size] + [0.0])


def _is_hermitian(mats):
    """``Operator.is_hermitian`` of block matrices: equal to the adjoint
    exactly, else ``||x - x*|| <= 1e-12 ||x||``."""
    if all(np.array_equal(m, m.conj().T) for m in mats):
        return True
    return _norm([m - m.conj().T for m in mats]) <= HERMITIAN_RTOL * _norm(mats) + 1e-30


def _abs_eigpairs(mats):
    """Per block ``(mags, vecs)``: the eigenvalues of |x| ascending and
    their eigenvectors as columns, from the ``eigh`` of the hermitian part
    when x is hermitian, else from the SVD."""
    pairs = []
    herm = _is_hermitian(mats)
    for m in mats:
        if herm:
            lam, v = np.linalg.eigh((m + m.conj().T) / 2.0)
            order = np.argsort(np.abs(lam), kind="stable")
            pairs.append((np.abs(lam)[order], v[:, order]))
        else:
            _, s, vh = np.linalg.svd(m)
            pairs.append((s[::-1], vh.conj().T[:, ::-1]))
    return herm, pairs


def _corner_basis(within):
    """Per-block orthonormal column bases of the range of ``within``; None
    for the whole algebra."""
    if within is None:
        return None
    return [v[:, lam >= 0.5] for lam, v in within.eigh()]


def _compress(basis, mats):
    if basis is None:
        return list(mats)
    return [b.conj().T @ m @ b for b, m in zip(basis, mats)]


def _corner_projection(algebra, basis, vecs, counts, within):
    """``(e, active)``: the projection onto the first ``counts[b]`` columns
    of ``vecs[b]`` in the corner, and the same glued to the complement of
    ``within`` (if any)."""
    cols = [
        [v[:, k] if basis is None else basis[b] @ v[:, k] for k in range(c)]
        for b, (v, c) in enumerate(zip(vecs, counts))
    ]
    active = Projection.from_eigvecs(algebra, cols)
    if within is None:
        return active, active
    outside = within.complement()
    return Projection._built(
        algebra,
        [p + q for p, q in zip(active.block_mats, outside.block_mats)],
        [r + s for r, s in zip(active.ranks, outside.ranks)],
    ), active


def _deviations(sequence, limit, schedule, within):
    """``(algebra, schedule, basis, points)`` of a certificate's input, each
    point X_a - limit as a list of block matrices in corner coordinates.

    The schedule defaults to 1, 2, ...; with ``within`` given, every
    deviation must be supported in that corner.
    """
    sequence = list(sequence)
    if not sequence:
        raise ValueError("empty sequence")
    schedule = list(schedule if schedule is not None else range(1, len(sequence) + 1))
    if len(schedule) != len(sequence):
        raise ValueError("schedule and sequence lengths differ")
    scale = max(op_norms(sequence + [limit]) + [1.0])
    deviations = [x - limit for x in sequence]
    if within is not None:
        for leak in op_norms([d - within @ d @ within for d in deviations]):
            if leak > SUPPORT_LEAK_TOL * max(1.0, scale):
                raise ValueError(
                    f"sequence is not supported in the given corner (leak {leak:.3e})"
                )
    basis = _corner_basis(within)
    points = [_compress(basis, d.block_mats) for d in deviations]
    return sequence[0].algebra, schedule, basis, points


def _ranks(algebra, points, counts):
    """Per-block ranks of a witness keeping ``counts`` corner directions."""
    return [c + n - m.shape[0] for c, n, m in zip(counts, algebra.blocks, points[0])]


def _measure(algebra, schedule, basis, points, eps, delta_tol, within):
    """The measure certificate of corner-coordinate points, and the
    per-point counts of kept eigenvectors with their eigenvector lists."""
    rows, kept = [], []
    for a, point in zip(schedule, points):
        herm, pairs = _abs_eigpairs(point)
        counts = [int(np.sum(mags < eps - BOUNDARY_SNAP)) for mags, _ in pairs]
        ranks = _ranks(algebra, points, counts)
        excluded = zip(algebra.weights, algebra.blocks, ranks)
        delta = float(sum(w * float(n - r) for w, n, r in excluded))
        if herm:
            corner = max([float(mags[c - 1]) for (mags, _), c in zip(pairs, counts) if c] + [0.0])
        else:
            corner = _norm(
                [v[:, :c].conj().T @ m @ v[:, :c] for (_, v), c, m in zip(pairs, counts, point)]
            )
        rows.append({"a": a, "delta": delta, "rank_kept": sum(ranks), "corner_norm": corner})
        kept.append((counts, [v for _, v in pairs]))

    n0 = None
    for i in range(len(rows)):
        if all(r["delta"] <= delta_tol for r in rows[i:]):
            n0 = schedule[i]
            break

    def build():
        built = [_corner_projection(algebra, basis, v, c, within) for c, v in kept]
        return [e for e, _ in built], [q for _, q in built]

    verdict = "pass" if n0 is not None else "fail"
    cert = MeasureCertificate(
        schedule, float(eps), float(delta_tol), rows, n0, verdict, within, build
    )
    return cert, kept


def measure_certify(sequence, limit, eps, schedule=None, delta_tol=1e-6, within=None):
    """Certify X_a -> limit in measure along the (finite) sequence.

    For each index the spectral projection e_a of |X_a - limit| below eps is
    produced; its complement mass delta_a = tau(1 - e_a) is read off the
    ranks e_a is built with.  The verdict passes iff from some schedule point
    n0 on every delta_a is at most delta_tol.  ``within`` restricts the
    construction to a corner projection.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    algebra, schedule, basis, points = _deviations(sequence, limit, schedule, within)
    return _measure(algebra, schedule, basis, points, eps, delta_tol, within)[0]


def _bau(algebra, schedule, basis, points, delta_budget, n0, decay_tol, window, within):
    """The b.a.u. certificate of corner-coordinate points, and per block
    the eigenvectors its witness keeps."""
    if not 0 <= n0 < len(points):
        raise ValueError("n0 must index into the sequence")
    s = [0 for _ in algebra.blocks]
    for k in range(n0, len(points)):
        pairs = _abs_eigpairs(points[k])[1]
        s = [t + ((v * mags) @ v.conj().T) * (2.0 ** -(k - n0)) for t, (mags, v) in zip(s, pairs)]
    eigs = [np.linalg.eigh((m + m.conj().T) / 2.0) for m in s]
    candidates = sorted(set([0.0] + [float(t) for lam, _ in eigs for t in lam]))
    theta = None
    excluded = None
    for cand in candidates:
        mass = sum(
            w * float(np.sum(lam > cand + BOUNDARY_SNAP))
            for w, (lam, _) in zip(algebra.weights, eigs)
        )
        if mass <= delta_budget:
            theta, excluded = cand, mass
            break
    counts = [int(np.sum(lam <= theta + BOUNDARY_SNAP)) for lam, _ in eigs]
    kept = [v[:, :c] for (_, v), c in zip(eigs, counts)]

    corner = [_norm([w.conj().T @ m @ w for w, m in zip(kept, point)]) for point in points]
    sup = 0.0
    sups = [0.0] * len(corner)
    for i in range(len(corner) - 1, n0 - 1, -1):
        sup = max(sup, corner[i])
        sups[i] = sup
    tail = [(schedule[i], sups[i]) for i in range(n0, len(corner))]
    final = tail[-1][1]
    slope, _, verdict = tail_decay_verdict(tail, decay_tol, window)
    detail = {"corner_norms": corner, "candidates_tried": len(candidates)}

    def build():
        return _corner_projection(algebra, basis, [v for _, v in eigs], counts, within)

    cert = BauCertificate(
        schedule,
        float(delta_budget),
        float(theta),
        float(excluded),
        tuple(_ranks(algebra, points, counts)),
        tail,
        float(final),
        slope,
        n0,
        verdict,
        within,
        detail,
        build,
    )
    return cert, kept


def bau_certify(
    sequence,
    limit,
    delta_budget,
    schedule=None,
    n0=0,
    decay_tol=DECAY_TOL,
    window=SLOPE_WINDOW,
    within=None,
):
    """Certify almost-uniform-type convergence with one witness projection.

    The witness is the spectral projection e = chi_[0, theta](S) of the
    weighted deviation sum S = sum_{k >= n0} 2^-(k - n0) |X_k - limit|, with
    theta the smallest spectral candidate whose excluded mass tau(1 - e)
    stays within delta_budget, and tail suprema of ||e (X_b - X) e||.
    """
    if delta_budget <= 0:
        raise ValueError("delta budget must be > 0; the certificate is infeasible")
    algebra, schedule, basis, points = _deviations(sequence, limit, schedule, within)
    return _bau(
        algebra, schedule, basis, points, delta_budget, n0, decay_tol, window, within
    )[0]


def stochastic_run(
    action,
    x,
    schedule=None,
    eps=0.1,
    delta=0.1,
    decomposition=None,
    seed=0,
    decay_tol=DECAY_TOL,
):
    """Certify the two-mode convergence of the averages of a density x >= 0:
    e1 A_a(x) e1 b.a.u. toward e1 xbar e1, e2 A_a(x) e2 in measure toward 0,
    each compressed onto its corner basis, and the glued r_a = p + q_a."""
    if action.picture != "schrodinger":
        raise PreconditionError(
            "stochastic_run works on the density picture; pass action.dual()"
        )
    if not x.is_positive():
        raise ValueError("x must be positive for the stochastic certificate")
    if delta <= 0 or eps <= 0:
        raise ValueError("eps and delta must be > 0")
    schedule = list(schedule if schedule is not None else DEFAULT_SCHEDULE)
    if decomposition is None:
        decomposition = neveu_decompose(
            action, schedule=schedule, seed=seed, decay_tol=decay_tol
        )
    e1, e2 = decomposition.e1, decomposition.e2
    algebra = action.algebra

    avgs = averages(action, x, schedule)
    # E applied as the run applies it: in the hermitian basis
    xbar = decomposition.projection_schrodinger(x)
    xbar = (xbar + xbar.H) * 0.5

    def herm(m):
        return (m + m.conj().T) / 2.0

    b1, b2 = _corner_basis(e1), _corner_basis(e2)
    lim1 = [herm(m) for m in _compress(b1, xbar.block_mats)]
    c1 = [[herm(c) - m for c, m in zip(_compress(b1, a.block_mats), lim1)] for a in avgs]
    c2 = [[herm(b.conj().T @ (m @ b)) for b, m in zip(b2, a.block_mats)] for a in avgs]
    bau, kept1 = _bau(
        algebra, schedule, b1, c1, delta / 2.0, 0, decay_tol, SLOPE_WINDOW, e1
    )
    measure, kept2 = _measure(algebra, schedule, b2, c2, eps, delta / 2.0, e2)

    burn_bau = next((a for a, v in bau.tail if v <= eps), None)
    burn = None
    if burn_bau is not None and measure.n0 is not None:
        burn = max(burn_bau, measure.n0)

    bound_base = _norm([w.conj().T @ m @ w for w, m in zip(kept1, lim1)])
    bound = float(np.sqrt(eps * (eps + bound_base))) + CROSS_TERM_SLACK
    rows = []
    budget_ok = True
    cross_ok = True
    for a, avg, (counts, vecs) in zip(schedule, avgs, kept2):
        cross_norm = _norm(
            [
                (b @ w).conj().T @ (m @ b2_) @ v[:, :c]
                for b, w, m, b2_, v, c in zip(b1, kept1, avg.block_mats, b2, vecs, counts)
            ]
        )
        ranks = zip(algebra.weights, algebra.blocks, kept1, counts)
        excluded = float(sum(w * float(n - p.shape[1] - c) for w, n, p, c in ranks))
        active = burn is not None and a >= burn
        row = {
            "a": a,
            "tau_excluded": excluded,
            "cross_norm": cross_norm,
            "cross_bound": bound,
            "past_burn_in": active,
        }
        if active:
            if excluded > delta + 1e-12:
                budget_ok = False
                row["budget_violation"] = True
            if cross_norm > bound:
                cross_ok = False
                row["cross_violation"] = True
        rows.append(row)

    verdicts = {
        "bau": bau.verdict,
        "measure": measure.verdict,
        "budget": "pass" if (burn is not None and budget_ok) else "fail",
        "cross_term": "pass" if (burn is not None and cross_ok) else "fail",
    }
    detail = {"burn_in_bau": burn_bau, "burn_in_measure": measure.n0}
    return StochasticReport(
        schedule,
        float(eps),
        float(delta),
        xbar,
        decomposition,
        bau,
        measure,
        burn,
        rows,
        verdicts,
        detail,
    )
