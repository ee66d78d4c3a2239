"""Finite-schedule certificates for the stochastic convergence modes.

Convergence of a sequence X_a toward a limit is certified, never assumed:

* in measure       for each a one projection e_a with small corner norm
                   ||e_a (X_a - X) e_a|| < eps and complement mass
                   delta_a = tau(1 - e_a) read off the same spectral data;
* b.a.u.           one projection e with tau(1 - e) within budget such that
                   sup_{b >= a} ||e (X_b - X) e|| decays along the schedule;
* stochastic       both modes at once for the two Neveu corners of the
                   ergodic averages of a positive density, glued into a
                   single family r_a = p + q_a with a certified cross-term
                   bound.

The glue step is where the decomposition earns its keep: the conservative
corner e1 A_a(X) e1 converges b.a.u. toward the invariant compression while
the wandering corner e2 A_a(X) e2 only converges in measure, and the
off-diagonal block is controlled by Cauchy-Schwarz through the two corner
bounds, so no separate estimate is needed.

The distance from E(x) to the convex hull of the orbit of x is solved
exactly by Wolfe's active-set method for the nearest point of a polytope:
it stops on the KKT conditions of the convex problem, so its weights are
optimal and not merely stalled.

Every certificate runs on per-block stacks: the k points of a schedule are
held as one (k, n, n) array per block, and each stage (deviation, leak
check, |d|, corner ``eigh``, witness V V*, corner product, norm) runs once
per block for the whole schedule.  LAPACK and BLAS still run per matrix, and
witnesses of equal rank share one V V* product, so every rank, theta, n0 and
verdict, and every delta, norm and tau(1 - r_a), is bitwise what the
per-point construction (one ``Operator`` and one ``abs_op`` per point) gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy  # scipy.linalg loads on first use, in _orbit_vectors of a flow

from .algebra import (
    BOUNDARY_SNAP,
    Operator,
    Projection,
    TracialAlgebra,
    _abs_stacks,
    _adjoint,
    _max_norms,
    op_norm,
    trace_norm,
)
from .dynamics import _average_stacks
from .maps import CheckReport, PreconditionError
from .neveu import (
    DEFAULT_SCHEDULE,
    SLOPE_WINDOW,
    mean_ergodic_projection,
    neveu_decompose,
    tail_decay_verdict,
)

__all__ = [
    "MeasureCertificate",
    "BauCertificate",
    "StochasticReport",
    "HullResult",
    "HullConvergenceError",
    "measure_certify",
    "bau_certify",
    "stochastic_run",
    "corner_compatibility",
    "convex_hull_residual",
    "moving_bump_counterexample",
]

SUPPORT_LEAK_TOL = 1e-8
DECAY_TOL = 1e-6
CROSS_TERM_SLACK = 1e-10
CORNER_COMPAT_TOL = 1e-9
HULL_KKT_TOL = 1e-12
HULL_STEPS_PER_POINT = 10


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


def _corner_eigh(basis, stacks):
    """Per-block ``(lam, v)``: the eigenpairs of each slice of a stack
    compressed onto the corner basis, one batched ``eigh`` per block."""
    eigs = []
    for base, s in zip(basis, stacks):
        comp = base.conj().T @ s @ base
        eigs.append(np.linalg.eigh((comp + _adjoint(comp)) / 2.0))
    return eigs


def _witnesses(basis, eigs, counts, outside):
    """Per-block stacks ``(active, e)`` and the per-block ranks of e.

    Slice j of ``active`` is the projection onto the first ``counts[b][j]``
    corner eigenvectors of slice j (the kept eigenvalues are always the
    lowest), and e adds the complementary corner ``outside`` (if any).
    Points of equal rank share one product, so each slice is bitwise the
    V V* of :meth:`Projection.from_eigvecs`.
    """
    actives = []
    for base, (_, v), count in zip(basis, eigs, counts):
        # row q of slice j is base @ v_j[:, q], one matrix-vector product each
        rows = (base @ v.transpose(0, 2, 1)[..., None])[..., 0]
        n = base.shape[0]
        active = np.zeros((len(v), n, n), dtype=complex)
        for r in np.unique(count):
            if r:
                idx = np.flatnonzero(count == r)
                V = np.ascontiguousarray(rows[idx, :r].transpose(0, 2, 1))
                active[idx] = V @ _adjoint(V)
        actives.append(active)
    if outside is None:
        return actives, actives, counts
    es = [p + q for p, q in zip(actives, outside.block_mats)]
    return actives, es, [c + r for c, r in zip(counts, outside.ranks)]


def _projections(algebra, stacks, ranks):
    """The projections held slice by slice in per-block stacks, with their
    per-block rank arrays."""
    ranks = [r.tolist() for r in ranks]
    return [
        Projection._built(algebra, mats, rks)
        for mats, rks in zip(zip(*stacks), zip(*ranks))
    ]


class _Deviations:
    """A certificate's input X_a - limit as one (k, n, n) stack per block.

    With ``within`` given, every deviation must be supported in that
    corner.  The measure and b.a.u. certificates of one input read the same
    deviation stack and the same |d| stack.
    """

    def __init__(self, algebra, schedule, stacks, limit, within):
        self.algebra = algebra
        self.schedule = schedule
        self.stacks = [s - m for s, m in zip(stacks, limit.block_mats)]
        self.within = within
        if within is not None:
            # one batched norm per block: the k inputs and the limit, whose
            # largest norm scales the test, then the k leaks d - w d w
            k = len(schedule)
            norms = _max_norms(
                [
                    np.concatenate([s, m[None], d - w @ d @ w])
                    for s, m, d, w in zip(
                        stacks, limit.block_mats, self.stacks, within.block_mats
                    )
                ]
            )
            scale = max(1.0, *norms[: k + 1])
            for leak in norms[k + 1 :]:
                if leak > SUPPORT_LEAK_TOL * scale:
                    raise ValueError(
                        f"sequence is not supported in the given corner (leak {leak:.3e})"
                    )
        self.basis, self.outside = _corner_basis(algebra, within)

    @cached_property
    def abs(self):
        return _abs_stacks(self.stacks)


def _deviations(sequence, limit, schedule, within):
    """:class:`_Deviations` of a list of operators.

    The schedule defaults to 1, 2, ...
    """
    sequence = list(sequence)
    if not sequence:
        raise ValueError("empty sequence")
    schedule = list(schedule if schedule is not None else range(1, len(sequence) + 1))
    if len(schedule) != len(sequence):
        raise ValueError("schedule and sequence lengths differ")
    algebra = sequence[0].algebra
    others = sequence + [limit] + ([] if within is None else [within])
    if any(x.algebra is not algebra and x.algebra != algebra for x in others):
        raise ValueError("operators live in different algebras")
    stacks = [np.array(mats) for mats in zip(*(x.block_mats for x in sequence))]
    return _Deviations(algebra, schedule, stacks, limit, within)


def _require_eps(eps):
    if eps <= 0:
        raise ValueError("eps must be > 0")


def _require_budget(delta_budget):
    if delta_budget <= 0:
        raise ValueError("delta budget must be > 0; the certificate is infeasible")


@dataclass
class MeasureCertificate:
    """Per-index witness projections for convergence in measure."""

    schedule: list
    eps: float
    delta_tol: float
    rows: list
    witnesses: list
    witnesses_active: list
    n0: int
    verdict: str
    within: Projection = None

    @property
    def passed(self):
        return self.verdict == "pass"


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
    _require_eps(eps)
    return _measure(_deviations(sequence, limit, schedule, within), eps, delta_tol)[0]


def _measure(devs, eps, delta_tol):
    """:func:`measure_certify` of a deviation stack, and the per-block
    stacks of its active witnesses."""
    algebra, schedule = devs.algebra, devs.schedule
    eigs = _corner_eigh(devs.basis, devs.abs)
    counts = [np.sum(lam < eps - BOUNDARY_SNAP, axis=-1) for lam, _ in eigs]
    actives, es, ranks = _witnesses(devs.basis, eigs, counts, devs.outside)
    deltas = 0
    for w, n, r in zip(algebra.weights, algebra.blocks, ranks):
        deltas = deltas + w * (n - r)
    deltas = np.asarray(deltas, dtype=float).tolist()
    corners = _max_norms([e @ d @ e for e, d in zip(es, devs.stacks)])
    kept = np.sum(ranks, axis=0).tolist()
    rows = [
        {"a": a, "delta": delta, "rank_kept": rank, "corner_norm": corner}
        for a, delta, rank, corner in zip(schedule, deltas, kept, corners)
    ]

    n0 = None
    for i in range(len(rows)):
        if all(d <= delta_tol for d in deltas[i:]):
            n0 = schedule[i]
            break
    verdict = "pass" if n0 is not None else "fail"
    active_witnesses = _projections(algebra, actives, counts)
    return MeasureCertificate(
        schedule,
        float(eps),
        float(delta_tol),
        rows,
        active_witnesses if devs.outside is None else _projections(algebra, es, ranks),
        active_witnesses,
        n0,
        verdict,
        devs.within,
    ), actives


@dataclass
class BauCertificate:
    """A single witness projection with decaying tail suprema."""

    schedule: list
    delta_budget: float
    theta: float
    excluded_mass: float
    e: Projection
    e_active: Projection
    tail: list
    final: float
    slope: float
    n0: int
    verdict: str
    within: Projection = None
    detail: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"


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
    _require_budget(delta_budget)
    devs = _deviations(sequence, limit, schedule, within)
    return _bau(devs, delta_budget, n0, decay_tol, window)


def _bau(devs, delta_budget, n0, decay_tol, window):
    """:func:`bau_certify` of a deviation stack."""
    algebra, schedule = devs.algebra, devs.schedule
    if not 0 <= n0 < len(schedule):
        raise ValueError("n0 must index into the sequence")
    # summed from zero in schedule order, as the per-point sum of Operators
    s = [
        sum(a * 2.0 ** -k for k, a in enumerate(stack[n0:]))[None]
        for stack in devs.abs
    ]
    eigs = _corner_eigh(devs.basis, s)
    lams = [lam[0] for lam, _ in eigs]
    candidates = sorted(set([0.0] + [float(t) for t in np.concatenate(lams)]))
    theta = None
    excluded = None
    for cand in candidates:
        mass = sum(
            w * float(np.sum(lam > cand + BOUNDARY_SNAP))
            for w, lam in zip(algebra.weights, lams)
        )
        if mass <= delta_budget:
            theta, excluded = cand, mass
            break
    counts = [np.sum(lam <= theta + BOUNDARY_SNAP, axis=-1) for lam, _ in eigs]
    actives, es, ranks = _witnesses(devs.basis, eigs, counts, devs.outside)
    [e_active] = _projections(algebra, actives, counts)
    [e] = [e_active] if devs.outside is None else _projections(algebra, es, ranks)

    corner = _max_norms([m @ d @ m for m, d in zip(e.block_mats, devs.stacks)])
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
        devs.within,
        detail,
    )


def _certify(
    algebra, stacks, limit, schedule, eps, delta_tol, delta_budget, decay_tol
):
    """``(measure_certify, bau_certify)`` of one input on the whole algebra,
    given as per-block stacks: both read one deviation stack and one |d|
    stack, and raise what the two calls in a row would raise."""
    _require_eps(eps)
    devs = _Deviations(algebra, list(schedule), stacks, limit, None)
    measure = _measure(devs, eps, delta_tol)[0]
    _require_budget(delta_budget)
    return measure, _bau(devs, delta_budget, 0, decay_tol, SLOPE_WINDOW)


@dataclass
class StochasticReport:
    """Joint two-corner certificate for the averages of a positive density."""

    schedule: list
    eps: float
    delta: float
    xbar: Operator
    decomposition: object
    bau: BauCertificate
    measure: MeasureCertificate
    p: Projection
    burn_in: int
    rows: list
    verdicts: dict
    detail: dict = field(default_factory=dict)

    @property
    def passed(self):
        keys = ("bau", "measure", "budget", "cross_term")
        return all(self.verdicts.get(k) == "pass" for k in keys)


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
    return _stochastic_run(
        action,
        x,
        schedule,
        eps,
        delta,
        decomposition,
        seed,
        decay_tol,
        lambda schedule: _average_stacks(action, x, schedule),
    )


def _stochastic_run(
    action, x, schedule, eps, delta, decomposition, seed, decay_tol, walk
):
    """:func:`stochastic_run`, with ``walk(schedule)`` giving the averages
    of x as per-block stacks."""
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

    avgs = walk(schedule)
    xbar = algebra.from_vec(decomposition.projection_schrodinger.matrix @ x.vec())
    xbar = (xbar + xbar.H) * 0.5
    lim1 = e1 @ xbar @ e1

    c1 = [p @ a @ p for p, a in zip(e1.block_mats, avgs)]
    c2 = [q @ a @ q for q, a in zip(e2.block_mats, avgs)]
    bau = _bau(
        _Deviations(algebra, list(schedule), c1, lim1, e1),
        delta / 2.0,
        0,
        decay_tol,
        SLOPE_WINDOW,
    )
    measure, actives = _measure(
        _Deviations(algebra, list(schedule), c2, algebra.zero(), e2), eps, delta / 2.0
    )
    p = bau.e_active

    burn_bau = next((a for a, v in bau.tail if v <= eps), None)
    burn = None
    if burn_bau is not None and measure.n0 is not None:
        burn = max(burn_bau, measure.n0)

    # the bound's base ||p xbar p|| and the cross terms ||p A_a(x) q_a||,
    # one batched norm per block; actives are the q_a, inside e2
    bound_base, *cross_norms = _max_norms(
        [
            np.concatenate([(pb @ xb @ pb)[None], pb @ a @ q])
            for pb, xb, a, q in zip(p.block_mats, xbar.block_mats, avgs, actives)
        ]
    )
    # tau(1 - r_a) of the glued r_a = p + q_a, block traces summed in order
    excluded = 0
    for w, n, pb, q in zip(algebra.weights, algebra.blocks, p.block_mats, actives):
        excluded = excluded + w * np.trace(
            np.eye(n, dtype=complex) - (pb + q), axis1=1, axis2=2
        )
    excluded = excluded.real.tolist()
    bound = float(np.sqrt(eps * (eps + bound_base))) + CROSS_TERM_SLACK
    rows = []
    budget_ok = True
    cross_ok = True
    for a, tau_excluded, cross_norm in zip(schedule, excluded, cross_norms):
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


def corner_compatibility(action, decomposition, x, generator_index=None, tol=CORNER_COMPAT_TOL):
    """Check that the Neveu corners commute with the density evolution.

    For disjointness-preserving (Lamperti) L1 maps the corners of the image
    are the images of the corners:  e_i gamma(x) e_i = gamma(e_i x e_i).
    Requires a passing Lamperti attestation on every density-picture map;
    without one the identity can genuinely fail and the check refuses to run.
    """
    schr = action.to_picture("schrodinger")
    reports = schr.lamperti_reports()
    failing = [i for i, r in enumerate(reports) if not r.passed]
    if failing:
        raise PreconditionError(
            f"corner compatibility needs Lamperti-attested maps; generator(s) "
            f"{failing} failed the disjointness probe"
        )
    idxs = (
        range(len(schr.generators))
        if generator_index is None
        else [int(generator_index)]
    )
    scale = max(1.0, trace_norm(x))
    worst = 0.0
    witness = None
    for i in idxs:
        g = schr.generators[i]
        for e in (decomposition.e1, decomposition.e2):
            dev = trace_norm(e @ g(x) @ e - g(e @ x @ e))
            if dev > worst:
                worst = dev
                witness = (i, e)
    verdict = "pass" if worst <= tol * scale else "fail"
    return CheckReport(
        "corner-compatibility",
        verdict,
        witness=witness if verdict == "fail" else None,
        detail={"max_deviation": float(worst)},
    )


class HullConvergenceError(RuntimeError):
    """The active-set solve passed its step cap; carries the last iterate."""

    def __init__(self, message, weights, residual, objective):
        super().__init__(message)
        self.weights = weights
        self.residual = residual
        self.objective = objective


@dataclass
class HullResult:
    residual: float
    weights: np.ndarray
    objective: float
    iterations: int
    orbit_size: int


def _orbit_vectors(action, x, a):
    """Orbit of x over the inclusive index box {0..a}^d (all elements for
    finite groups, a 17-point grid per axis for continuous cubes)."""
    v = x.vec()
    kind = action.scheme.kind
    if kind == "finite-group":
        return [m @ v for m in action.matrices]
    if kind == "r-plus-cube":
        times = np.linspace(0.0, float(a), 17)
        cols = [v]
        for L in action.matrices:
            flows = [scipy.linalg.expm(t * L) for t in times]
            cols = [f @ c for c in cols for f in flows]
        return cols
    a = int(a)
    if a < 1:
        raise ValueError("a must be >= 1")
    # per axis the window starts at -back and takes a + back unit steps
    back = a if kind == "z-symmetric-box" else 0
    cols = [v]
    for axis in range(action.scheme.d):
        s = action.matrices[axis]
        new = []
        for c in cols:
            cur = c
            for _ in range(back):
                cur = action.inverses[axis] @ cur
            new.append(cur)
            for _ in range(a + back):
                cur = s @ cur
                new.append(cur)
        cols = new
    return cols


def _face_solve(gram, lin, face):
    """Weights on ``face`` minimising ||M mu - b||^2 subject only to
    sum(mu) = 1: the face's bordered KKT system, solved in least squares,
    so that repeated orbit points still give a solution."""
    k = len(face)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * gram[np.ix_(face, face)]
    kkt[k, k] = 0.0
    rhs = np.append(2.0 * lin[face], 1.0)
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def convex_hull_residual(action, x, a, projection=None):
    """Distance from the mean projection E(x) to the orbit's convex hull.

    Minimises ||sum_k c_k Gamma^k(x) - E(x)|| over the simplex in the
    weighted Hilbert-Schmidt metric, exactly, by Wolfe's active-set method
    for the nearest point of a polytope.  From the best single orbit point,
    each step adds the point whose gradient lies furthest below the face
    multiplier, solves the face's KKT system and, while a weight of that
    solution is not positive, walks back to the face boundary and drops the
    points there.  The solve stops when no gradient lies below the
    multiplier by more than 1e-12 of the problem's scale: the KKT conditions
    of a convex problem, so the weights are optimal.  Passing
    ``HULL_STEPS_PER_POINT`` steps per orbit point raises
    :class:`HullConvergenceError` carrying the last iterate.  The returned
    residual is reported in operator norm.
    """
    action.require_commuting()
    algebra = action.algebra
    if projection is None:
        projection = mean_ergodic_projection(action)
    target = projection(x)
    cols = np.column_stack(_orbit_vectors(action, x, a))
    sw = np.sqrt(algebra.weight_vec)
    m = cols * sw[:, None]
    b = target.vec() * sw
    # the objective is mu' G mu - 2 c' mu + |b|^2 over real weights
    gram = (m.conj().T @ m).real
    lin = (m.conj().T @ b).real
    k = m.shape[1]
    tol = HULL_KKT_TOL * max(gram.diagonal().max(), float(np.vdot(b, b).real))
    cap = HULL_STEPS_PER_POINT * k

    face = [int(np.argmin(gram.diagonal() - 2.0 * lin))]
    weights = np.ones(1)
    steps = 0
    while True:
        mu = np.zeros(k)
        mu[face] = weights
        r = m @ mu - b
        grad = 2.0 * (m.conj().T @ r).real
        j = int(np.argmin(grad))
        # the face multiplier is grad . mu: grad is constant on an optimal
        # face and mu sums to 1
        optimal = grad @ mu - grad[j] <= tol
        if optimal or steps >= cap:
            break
        face.append(j)
        weights = np.append(weights, 0.0)
        while steps < cap:
            steps += 1
            y = _face_solve(gram, lin, face)
            if y.min() > 0.0:
                weights = y
                break
            # walk toward y until the first weight reaches zero, drop it
            neg = np.flatnonzero(y <= 0.0)
            w = weights[neg]
            ratio = np.divide(w, w - y[neg], out=np.zeros_like(w), where=w > 0.0)
            weights = weights + ratio.min() * (y - weights)
            weights[neg[np.argmin(ratio)]] = 0.0
            keep = weights > 0.0
            face = [f for f, kept in zip(face, keep) if kept]
            weights = weights[keep]

    objective = float(np.vdot(r, r).real)
    residual = float(op_norm(algebra.from_vec(cols @ mu) - target))
    if not optimal:
        raise HullConvergenceError(
            f"no optimal weights in {cap} active-set steps (objective {objective:.3e})",
            mu,
            residual,
            objective,
        )
    return HullResult(residual, mu, objective, steps, k)


def moving_bump_counterexample(n_cycle=40, heavy_weight=0.5):
    """A sequence converging in measure but not b.a.u. on finite data.

    On an atomic algebra with one heavy atom and ``n_cycle`` light atoms of
    equal mass, the indicator of atom (a mod n_cycle) has vanishing mass, so
    measure certification passes at any delta_tol above the atom mass, while
    the weighted-sum witness construction must keep the late atoms (they
    carry the smallest weights) and the kept corner norm stays at 1.

    Returns (algebra, sequence, limit, schedule).
    """
    if n_cycle < 2 or not 0 < heavy_weight < 1:
        raise ValueError("need n_cycle >= 2 and 0 < heavy_weight < 1")
    light = (1.0 - heavy_weight) / n_cycle
    algebra = TracialAlgebra.commutative([heavy_weight] + [light] * n_cycle)
    schedule = list(range(1, n_cycle + 1))
    sequence = [
        algebra.basis_element(1 + ((a - 1) % n_cycle), 0, 0) for a in schedule
    ]
    limit = algebra.zero()
    return algebra, sequence, limit, schedule
