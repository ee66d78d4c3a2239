"""The certificate layer as it was before each deviation was diagonalised once.

Per block stack: |d| is formed at full size (one batched ``eigh`` or SVD of
d), then compressed onto the corner basis (the identity on the whole
algebra) and decomposed a second time; witnesses are V V* at full size and
every norm is taken of a full-size product.  The tests compare the
corner-coordinate certificates of :mod:`neveukit.convergence` against these
functions; the package does not use them.
"""

import numpy as np

from neveukit.algebra import (
    BOUNDARY_SNAP,
    Projection,
    _abs_eigh,
    _adjoint,
    _hermitian_mask,
    _max_norms,
)
from neveukit.convergence import (
    CROSS_TERM_SLACK,
    DECAY_TOL,
    BauCertificate,
    MeasureCertificate,
    StochasticReport,
)
from neveukit.dynamics import _average_stacks
from neveukit.neveu import SLOPE_WINDOW, tail_decay_verdict


def _abs_stacks(stacks):
    """|x_j| of k operators given as per-block stacks, at full size."""
    herm = _hermitian_mask(stacks)
    h = slice(None) if herm.all() else np.flatnonzero(herm)
    other = np.flatnonzero(~herm)
    out = []
    for s in stacks:
        m = np.empty_like(s)
        if herm.any():
            m[h] = _abs_eigh(*np.linalg.eigh((s[h] + _adjoint(s[h])) / 2.0))
        if other.size:
            _, sv, Vh = np.linalg.svd(s[other])
            m[other] = (_adjoint(Vh) * sv[..., None, :]) @ Vh
        out.append(m)
    return out


def _corner_eigh(algebra, within, stacks):
    """Per-block ``(lam, v, base)``: the eigenpairs of each slice compressed
    onto the corner basis (the identity for the whole algebra)."""
    if within is None:
        bases = [np.eye(n) for n in algebra.blocks]
    else:
        bases = [v[:, lam >= 0.5] for lam, v in within.eigh()]
    eigs = []
    for base, s in zip(bases, stacks):
        comp = base.conj().T @ s @ base
        eigs.append(np.linalg.eigh((comp + _adjoint(comp)) / 2.0) + (base,))
    return eigs


def _witnesses(algebra, eigs, counts, within):
    """``(active, e)`` stacks of the projections onto the first
    ``counts[b][j]`` corner eigenvectors, with their per-block ranks."""
    actives = []
    for (_, v, base), count in zip(eigs, counts):
        rows = (base @ v.transpose(0, 2, 1)[..., None])[..., 0]
        n = base.shape[0]
        active = np.zeros((len(v), n, n), dtype=complex)
        for r in sorted(set(count.tolist())):
            if r:
                idx = np.flatnonzero(count == r)
                V = np.ascontiguousarray(rows[idx, :r].transpose(0, 2, 1))
                active[idx] = V @ _adjoint(V)
        actives.append(active)
    if within is None:
        return actives, actives, counts
    outside = within.complement()
    es = [p + q for p, q in zip(actives, outside.block_mats)]
    return actives, es, [c + r for c, r in zip(counts, outside.ranks)]


def _projections(algebra, stacks, ranks):
    ranks = [r.tolist() for r in ranks]
    return [
        Projection._built(algebra, mats, rks)
        for mats, rks in zip(zip(*stacks), zip(*ranks))
    ]


def _stacks(sequence, limit):
    """The deviations X_a - limit as per-block stacks."""
    stacks = [np.array(mats) for mats in zip(*(x.block_mats for x in sequence))]
    return [s - m for s, m in zip(stacks, limit.block_mats)]


def _measure(algebra, schedule, devs, eps, delta_tol, within):
    """The measure certificate of full-size deviation stacks, and the
    stacks of its active witnesses."""
    eigs = _corner_eigh(algebra, within, _abs_stacks(devs))
    counts = [np.sum(lam < eps - BOUNDARY_SNAP, axis=-1) for lam, _, _ in eigs]
    actives, es, ranks = _witnesses(algebra, eigs, counts, within)
    deltas = 0
    for w, n, r in zip(algebra.weights, algebra.blocks, ranks):
        deltas = deltas + w * (n - r)
    deltas = np.asarray(deltas, dtype=float).tolist()
    corners = _max_norms([e @ d @ e for e, d in zip(es, devs)])
    kept = np.sum(ranks, axis=0).tolist()
    rows = [
        {"a": a, "delta": delta, "rank_kept": rank, "corner_norm": corner}
        for a, delta, rank, corner in zip(schedule, deltas, kept, corners)
    ]
    n0 = next(
        (schedule[i] for i in range(len(rows)) if all(d <= delta_tol for d in deltas[i:])),
        None,
    )
    built = (_projections(algebra, es, ranks), _projections(algebra, actives, counts))
    verdict = "pass" if n0 is not None else "fail"
    cert = MeasureCertificate(
        schedule, float(eps), float(delta_tol), rows, n0, verdict, within, lambda: built
    )
    return cert, actives


def measure_certify(sequence, limit, eps, schedule, delta_tol=1e-6, within=None):
    """:func:`neveukit.convergence.measure_certify` of valid input."""
    algebra = limit.algebra
    return _measure(algebra, schedule, _stacks(sequence, limit), eps, delta_tol, within)[0]


def _bau(algebra, schedule, devs, delta_budget, n0, decay_tol, window, within):
    """The b.a.u. certificate of full-size deviation stacks."""
    s = [
        sum(a * 2.0 ** -k for k, a in enumerate(stack[n0:]))[None]
        for stack in _abs_stacks(devs)
    ]
    eigs = _corner_eigh(algebra, within, s)
    lams = [lam[0] for lam, _, _ in eigs]
    candidates = sorted(set([0.0] + [float(t) for t in np.concatenate(lams)]))
    for cand in candidates:
        mass = sum(
            w * float(np.sum(lam > cand + BOUNDARY_SNAP))
            for w, lam in zip(algebra.weights, lams)
        )
        if mass <= delta_budget:
            theta, excluded = cand, mass
            break
    counts = [np.sum(lam <= theta + BOUNDARY_SNAP, axis=-1) for lam, _, _ in eigs]
    actives, es, ranks = _witnesses(algebra, eigs, counts, within)
    [e_active] = _projections(algebra, actives, counts)
    [e] = _projections(algebra, es, ranks)
    corner = _max_norms([m @ d @ m for m, d in zip(e.block_mats, devs)])
    sups = [max(corner[i:]) for i in range(len(corner))]
    tail = [(schedule[i], sups[i]) for i in range(n0, len(corner))]
    slope, _, verdict = tail_decay_verdict(tail, decay_tol, window)
    detail = {"corner_norms": corner, "candidates_tried": len(candidates)}
    return BauCertificate(
        schedule,
        float(delta_budget),
        float(theta),
        float(excluded),
        e.ranks,
        tail,
        float(tail[-1][1]),
        slope,
        n0,
        verdict,
        within,
        detail,
        lambda: (e, e_active),
    )


def bau_certify(
    sequence,
    limit,
    delta_budget,
    schedule,
    n0=0,
    decay_tol=DECAY_TOL,
    window=SLOPE_WINDOW,
    within=None,
):
    """:func:`neveukit.convergence.bau_certify` of valid input."""
    algebra = limit.algebra
    devs = _stacks(sequence, limit)
    return _bau(algebra, schedule, devs, delta_budget, n0, decay_tol, window, within)


def stochastic_run(action, x, schedule, eps, delta, decomposition, decay_tol=DECAY_TOL):
    """:func:`neveukit.convergence.stochastic_run` of valid input: full-size
    corners p A p and q A q, full-size witnesses, tau(1 - r_a) from traces."""
    e1, e2 = decomposition.e1, decomposition.e2
    algebra = action.algebra
    avgs = _average_stacks(action, x, schedule)
    # E applied as the run applies it: in the hermitian basis
    xbar = decomposition.projection_schrodinger(x)
    xbar = (xbar + xbar.H) * 0.5
    lim1 = e1 @ xbar @ e1
    c1 = [p @ a @ p - m for p, a, m in zip(e1.block_mats, avgs, lim1.block_mats)]
    c2 = [q @ a @ q for q, a in zip(e2.block_mats, avgs)]
    bau = _bau(algebra, schedule, c1, delta / 2.0, 0, decay_tol, SLOPE_WINDOW, e1)
    measure, actives = _measure(algebra, schedule, c2, eps, delta / 2.0, e2)
    p = bau.e_active

    burn_bau = next((a for a, v in bau.tail if v <= eps), None)
    burn = None
    if burn_bau is not None and measure.n0 is not None:
        burn = max(burn_bau, measure.n0)
    bound_base, *cross_norms = _max_norms(
        [
            np.concatenate([(pb @ xb @ pb)[None], pb @ a @ q])
            for pb, xb, a, q in zip(p.block_mats, xbar.block_mats, avgs, actives)
        ]
    )
    excluded = 0
    for w, n, pb, q in zip(algebra.weights, algebra.blocks, p.block_mats, actives):
        excluded = excluded + w * np.trace(
            np.eye(n, dtype=complex) - (pb + q), axis1=1, axis2=2
        )
    bound = float(np.sqrt(eps * (eps + bound_base))) + CROSS_TERM_SLACK
    rows = []
    budget_ok = cross_ok = True
    for a, tau_excluded, cross_norm in zip(schedule, excluded.real.tolist(), cross_norms):
        active = burn is not None and a >= burn
        row = {
            "a": a,
            "tau_excluded": tau_excluded,
            "cross_norm": cross_norm,
            "cross_bound": bound,
            "past_burn_in": active,
        }
        if active:
            if tau_excluded > delta + 1e-12:
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
        schedule, float(eps), float(delta), xbar, decomposition, bau, measure,
        burn, rows, verdicts, detail,
    )
