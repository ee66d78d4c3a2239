"""The certificate layer as it was before it ran on per-block stacks.

One point at a time: each deviation is its own ``Operator`` with its own
``abs_op``, corner ``eigh``, witness V V* and norm.  The tests compare the
stacked certificates of :mod:`neveukit.convergence` against these functions;
the package does not use them.
"""

import numpy as np

from neveukit.algebra import (
    BOUNDARY_SNAP,
    HERMITIAN_RTOL,
    Operator,
    Projection,
    op_norms,
    trace,
)
from neveukit.convergence import (
    CROSS_TERM_SLACK,
    DECAY_TOL,
    SUPPORT_LEAK_TOL,
    BauCertificate,
    MeasureCertificate,
    StochasticReport,
    corner_compatibility,
)
from neveukit.dynamics import averages
from neveukit.maps import PreconditionError
from neveukit.neveu import (
    DEFAULT_SCHEDULE,
    SLOPE_WINDOW,
    neveu_decompose,
    tail_decay_verdict,
)


def _is_hermitian(x):
    """``Operator.is_hermitian`` as it was: x == x* exactly, else
    ``||x - x*|| <= 1e-12 ||x||``."""
    if all(np.array_equal(m, m.conj().T) for m in x.block_mats):
        return True
    dev, norm = op_norms([x - x.H, x])
    return dev <= HERMITIAN_RTOL * norm + 1e-30


def abs_op(x):
    """``algebra.abs_op`` as it was, with its own hermiticity test."""
    if _is_hermitian(x):
        return Operator(
            x.algebra, [(V * np.abs(lam)) @ V.conj().T for lam, V in x.eigh()]
        )
    svds = (np.linalg.svd(m) for m in x.block_mats)
    return Operator(x.algebra, [(Vh.conj().T * s) @ Vh for _, s, Vh in svds])


def _corner_basis(algebra, within):
    """Per-block orthonormal column bases of the range of ``within``, and
    the complement of ``within``.

    ``None`` means the whole algebra (no complement).  Restricting the
    spectral calculus to this basis keeps certificate projections exactly
    inside the corner the data lives in, so they add cleanly to the
    complementary corner.
    """
    if within is None:
        return [np.eye(n) for n in algebra.blocks], None
    cols = [v[:, lam >= 0.5] for lam, v in within.eigh()]
    return cols, within.complement()


def _corner_eigh(basis, x):
    """Per-block ``(lam, v, base)``: eigenpairs of x compressed onto the basis."""
    eigs = []
    for base, m in zip(basis, x.block_mats):
        comp = base.conj().T @ m @ base
        lam, v = np.linalg.eigh((comp + comp.conj().T) / 2.0)
        eigs.append((lam, v, base))
    return eigs


def _corner_projection(algebra, eigs, keeps, outside):
    """``(active, e)``: the projection onto the kept corner eigenvectors, and
    the same glued to the complementary corner ``outside`` (if any)."""
    kept_cols = [
        [base @ v[:, k] for k in range(lam.size) if keep[k]]
        for (lam, v, base), keep in zip(eigs, keeps)
    ]
    active = Projection.from_eigvecs(algebra, kept_cols)
    if outside is None:
        return active, active
    return active, Projection._built(
        algebra,
        [p + q for p, q in zip(active.block_mats, outside.block_mats)],
        [r + s for r, s in zip(active.ranks, outside.ranks)],
    )


def _deviations(sequence, limit, schedule, within):
    """``(algebra, schedule, [X_a - limit])`` of a certificate's input.

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
    return sequence[0].algebra, schedule, deviations


def measure_certify(sequence, limit, eps, schedule=None, delta_tol=1e-6, within=None):
    """Certify X_a -> limit in measure along the (finite) sequence.

    For each index the spectral projection e_a of |X_a - limit| below eps is
    produced; its complement mass delta_a = tau(1 - e_a) is read off the
    ranks e_a is built with, so the reported mass and the witness projection
    can never drift apart.  The verdict passes iff from some schedule point
    n0 on every delta_a is at most delta_tol.

    ``within`` restricts the construction to a corner projection: witnesses
    then satisfy e_a = q_a + (1 - within) with q_a inside the corner, and
    delta_a only ever charges corner directions.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    algebra, schedule, deviations = _deviations(sequence, limit, schedule, within)
    basis, outside = _corner_basis(algebra, within)

    deltas, witnesses, actives = [], [], []
    for d in deviations:
        eigs = _corner_eigh(basis, abs_op(d))
        keeps = [lam < eps - BOUNDARY_SNAP for lam, _, _ in eigs]
        active, e = _corner_projection(algebra, eigs, keeps, outside)
        excluded = zip(algebra.weights, algebra.blocks, e.ranks)
        deltas.append(float(sum(w * float(n - r) for w, n, r in excluded)))
        witnesses.append(e)
        actives.append(active)
    corners = op_norms([e @ d @ e for e, d in zip(witnesses, deviations)])
    rows = [
        {"a": a, "delta": delta, "rank_kept": e.rank, "corner_norm": corner}
        for a, delta, e, corner in zip(schedule, deltas, witnesses, corners)
    ]

    n0 = None
    for i in range(len(rows)):
        if all(r["delta"] <= delta_tol for r in rows[i:]):
            n0 = schedule[i]
            break
    verdict = "pass" if n0 is not None else "fail"
    return MeasureCertificate(
        schedule,
        float(eps),
        float(delta_tol),
        rows,
        witnesses,
        actives,
        n0,
        verdict,
        within,
    )


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
    stays within delta_budget.  Tail suprema sup_{b >= a} ||e (X_b - X) e||
    are reported per schedule point; the verdict passes iff the final
    supremum is at most decay_tol or the tail-window log-log slope is at
    most -0.9 (:func:`neveukit.neveu.tail_decay_verdict`; its non-increasing
    test always holds here, since suprema over shrinking tails cannot grow).

    ``within`` has the same corner semantics as in :func:`measure_certify`;
    ``e_active`` is the part of e inside the corner.
    """
    if delta_budget <= 0:
        raise ValueError("delta budget must be > 0; the certificate is infeasible")
    algebra, schedule, deviations = _deviations(sequence, limit, schedule, within)
    if not 0 <= n0 < len(deviations):
        raise ValueError("n0 must index into the sequence")
    s = algebra.zero()
    for k in range(n0, len(deviations)):
        s = s + abs_op(deviations[k]) * (2.0 ** -(k - n0))

    basis, outside = _corner_basis(algebra, within)
    comp_eigs = _corner_eigh(basis, s)
    all_lams = np.concatenate([lam for lam, _, _ in comp_eigs]) if comp_eigs else np.array([])
    candidates = sorted(set([0.0] + [float(t) for t in all_lams]))
    theta = None
    excluded = None
    for cand in candidates:
        mass = sum(
            w * float(np.sum(lam > cand + BOUNDARY_SNAP))
            for w, (lam, _, _) in zip(algebra.weights, comp_eigs)
        )
        if mass <= delta_budget:
            theta, excluded = cand, mass
            break
    keeps = [lam <= theta + BOUNDARY_SNAP for lam, _, _ in comp_eigs]
    e_active, e = _corner_projection(algebra, comp_eigs, keeps, outside)

    corner = op_norms([e @ d @ e for d in deviations])
    sup = 0.0
    sups = [0.0] * len(corner)
    for i in range(len(corner) - 1, n0 - 1, -1):
        sup = max(sup, corner[i])
        sups[i] = sup
    tail = [(schedule[i], sups[i]) for i in range(n0, len(corner))]
    final = tail[-1][1]
    slope, _, verdict = tail_decay_verdict(tail, decay_tol, window)
    detail = {"corner_norms": corner, "candidates_tried": len(candidates)}
    return BauCertificate(
        schedule,
        float(delta_budget),
        float(theta),
        float(excluded),
        e,
        e_active,
        tail,
        float(final),
        slope,
        n0,
        verdict,
        within,
        detail,
    )


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
    """Certify the two-mode convergence of the averages of a density x >= 0.

    The conservative corner sequence e1 A_a(x) e1 is certified b.a.u. toward
    the invariant compression xbar = E_*(x) with half the mass budget, and
    the wandering corner e2 A_a(x) e2 in measure toward 0 with the other
    half.  Past the burn-in index (both corner certificates below eps) the
    glued projections r_a = p + q_a satisfy tau(1 - r_a) <= delta and the
    cross-term obeys

        ||p A_a(x) q_a|| <= sqrt(eps (eps + ||p xbar p||)),

    which follows from Cauchy-Schwarz for the positive operator A_a(x); the
    inequality is checked numerically row by row, not assumed.  The schedule
    must be strictly ascending; a missing ``decomposition`` is computed here.
    """
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
    xbar = algebra.from_vec(decomposition.projection_schrodinger.matrix @ x.vec())
    xbar = (xbar + xbar.H) * 0.5
    lim1 = e1 @ xbar @ e1

    c1 = [e1 @ a @ e1 for a in avgs]
    c2 = [e2 @ a @ e2 for a in avgs]

    bau = bau_certify(
        c1,
        lim1,
        delta_budget=delta / 2.0,
        schedule=schedule,
        decay_tol=decay_tol,
        within=e1,
    )
    measure = measure_certify(
        c2, algebra.zero(), eps, schedule=schedule, delta_tol=delta / 2.0, within=e2
    )
    p = bau.e_active

    burn_bau = next((a for a, v in bau.tail if v <= eps), None)
    burn = None
    if burn_bau is not None and measure.n0 is not None:
        burn = max(burn_bau, measure.n0)

    actives = measure.witnesses_active  # q_a, inside e2
    bound_base, *cross_norms = op_norms(
        [p @ xbar @ p] + [p @ avg @ q for avg, q in zip(avgs, actives)]
    )
    rows = []
    budget_ok = True
    cross_ok = True
    for a, q, cross_norm in zip(schedule, actives, cross_norms):
        r = p + q
        excluded = trace(algebra.identity() - r).real
        bound = float(np.sqrt(eps * (eps + bound_base))) + CROSS_TERM_SLACK
        active = burn is not None and a >= burn
        row = {
            "a": a,
            "tau_excluded": float(excluded),
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

    if action.lamperti_attested():
        compat = corner_compatibility(action, decomposition, x)
        detail["corner_compatibility"] = compat.summary()
        if not compat.passed:
            raise ArithmeticError(
                "Lamperti-attested action violated corner compatibility"
            )

    return StochasticReport(
        schedule,
        float(eps),
        float(delta),
        xbar,
        decomposition,
        bau,
        measure,
        p,
        burn,
        rows,
        verdicts,
        detail,
    )
