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
held as one (k, n, n) array per block, and each stage runs once per block
for the whole schedule: deviation and leak check, compression onto an
orthonormal basis of the corner (none on the whole algebra), one ``eigh``
(or SVD) giving the eigenpairs of |d| in corner coordinates, the b.a.u. sum
and its ``eigh``, and the norms, taken in corner coordinates too.  Masses
and tau(1 - r_a) are read off the witness ranks, and the full-size witness
projections are built only when a caller reads them.  LAPACK and BLAS still
run per matrix, so every rank, theta, n0 and verdict is bitwise what the
per-point construction (one decomposition per point) gives, and every norm
agrees with it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    BOUNDARY_SNAP,
    Operator,
    Projection,
    TracialAlgebra,
    _abs_eigh,
    _abs_spectra,
    _adjoint,
    _hermitian_part,
    _max_norms,
    _to_hermitian,
    _to_vec,
    op_norm,
    trace_norm,
)
from .dynamics import _average_stacks, _axis_orbit
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


def _corner_basis(within):
    """Per-block orthonormal bases of the range of ``within`` (None: all)."""
    if within is None:
        return None
    return [v[:, lam >= 0.5] for lam, v in within.eigh()]


def _compress(basis, stacks):
    """Per-block stacks in corner coordinates: B* s B for each slice."""
    if basis is None:
        return list(stacks)
    return [_adjoint(b) @ s @ b for b, s in zip(basis, stacks)]


def _kept(vecs, count):
    """``vecs`` with the columns past ``count[j]`` of slice j set to zero."""
    return vecs * (np.arange(vecs.shape[-1]) < count[:, None])[:, None, :]


def _witnesses(devs, vecs, counts):
    """The witnesses ``(e, active)`` of every slice, as lists: slice j of
    ``active`` projects onto the first ``counts[b][j]`` columns of
    ``vecs[b][j]`` taken through the corner basis, and e adds the complement
    of ``devs.within`` (if any).  Points of equal rank share one product, so
    each slice is bitwise the V V* of :meth:`Projection.from_eigvecs`.
    """
    algebra, basis, actives = devs.algebra, devs.basis, []
    for b, (v, count) in enumerate(zip(vecs, counts)):
        # row q of slice j is B v_j[:, q] (B the corner basis), one product each
        rows = v.transpose(0, 2, 1)
        if basis is not None:
            rows = (basis[b] @ rows[..., None])[..., 0]
        n = algebra.blocks[b]
        active = np.zeros((len(v), n, n), dtype=complex)
        for r in sorted(set(count.tolist())):
            if r:
                idx = np.flatnonzero(count == r)
                V = np.ascontiguousarray(rows[idx, :r].transpose(0, 2, 1))
                active[idx] = V @ _adjoint(V)
        actives.append(active)
    active = _projections(algebra, actives, counts)
    if devs.within is None:
        return active, active
    outside = devs.within.complement()
    es = [p + q for p, q in zip(actives, outside.block_mats)]
    ranks = [c + r for c, r in zip(counts, outside.ranks)]
    return _projections(algebra, es, ranks), active


def _projections(algebra, stacks, ranks):
    """The projections held slice by slice in per-block stacks, with their
    per-block rank arrays."""
    ranks = [r.tolist() for r in ranks]
    return [
        Projection._built(algebra, mats, rks)
        for mats, rks in zip(zip(*stacks), zip(*ranks))
    ]


class _Deviations:
    """A certificate's input X_a - limit in the coordinates of its corner
    ``within`` (None for the whole algebra): slice j of ``stacks[b]`` is
    B* (X_a - limit) B in block b, for the orthonormal basis B = ``basis[b]``
    of the corner.  One decomposition per block gives the eigenpairs of |d|
    (``spectra``) that both certificates of one input read.
    """

    def __init__(self, algebra, schedule, stacks, within=None, basis=None):
        self.algebra = algebra
        self.schedule = schedule
        self.stacks = stacks
        self.within = within
        self.basis = basis

    @cached_property
    def spectra(self):
        return _abs_spectra(self.stacks)

    def ranks(self, counts):
        """Per-block ranks of witnesses keeping ``counts`` corner vectors."""
        blocks = self.algebra.blocks
        return [c + (n - s.shape[-1]) for c, n, s in zip(counts, blocks, self.stacks)]


def _deviations(sequence, limit, schedule, within):
    """:class:`_Deviations` of a list of operators.

    The schedule defaults to 1, 2, ...  With ``within`` given, every
    deviation must be supported in that corner: the outside input is checked
    here, while the stochastic run compresses its corners itself.
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
    devs = [s - m for s, m in zip(stacks, limit.block_mats)]
    if within is not None:
        # one batched norm per block: the k inputs and the limit, whose
        # largest norm scales the test, then the k leaks d - w d w
        k = len(schedule)
        norms = _max_norms(
            [
                np.concatenate([s, m[None], d - w @ d @ w])
                for s, m, d, w in zip(stacks, limit.block_mats, devs, within.block_mats)
            ]
        )
        scale = max(1.0, *norms[: k + 1])
        for leak in norms[k + 1 :]:
            if leak > SUPPORT_LEAK_TOL * scale:
                raise ValueError(
                    f"sequence is not supported in the given corner (leak {leak:.3e})"
                )
    basis = _corner_basis(within)
    return _Deviations(algebra, schedule, _compress(basis, devs), within, basis)


def _require_eps(eps):
    if eps <= 0:
        raise ValueError("eps must be > 0")


def _require_budget(delta_budget):
    if delta_budget <= 0:
        raise ValueError("delta budget must be > 0; the certificate is infeasible")


@dataclass
class MeasureCertificate:
    """Per-index witness projections for convergence in measure; they are
    built when first read, and ``rows`` carry their ranks."""

    schedule: list
    eps: float
    delta_tol: float
    rows: list
    n0: int
    verdict: str
    within: Projection = None
    build: object = field(default=None, repr=False, compare=False)

    witnesses = property(lambda self: self._built[0])
    witnesses_active = property(lambda self: self._built[1])

    @cached_property
    def _built(self):
        return self.build()

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
    delta_a only ever charges corner directions.  Each deviation is
    diagonalised once, in corner coordinates (through its hermitian part
    when it is hermitian), where a hermitian one's corner norm is its
    largest kept |eigenvalue|; witnesses are built when first read.
    """
    _require_eps(eps)
    return _measure(_deviations(sequence, limit, schedule, within), eps, delta_tol)[0]


def _measure(devs, eps, delta_tol):
    """:func:`measure_certify` of a deviation stack, and the per-block
    counts of the eigenvectors its witnesses keep."""
    algebra, schedule = devs.algebra, devs.schedule
    herm, spectra = devs.spectra
    counts = [np.sum(mags < eps - BOUNDARY_SNAP, axis=-1) for mags, _ in spectra]
    ranks, deltas = devs.ranks(counts), 0
    for w, n, r in zip(algebra.weights, algebra.blocks, ranks):
        deltas = deltas + w * (n - r)
    deltas = np.asarray(deltas, dtype=float).tolist()
    # a hermitian deviation's corner norm is its largest kept |eigenvalue|
    corners = np.maximum.reduce([
        np.max(mags, -1, where=np.arange(mags.shape[-1]) < c[:, None], initial=0.0)
        for (mags, _), c in zip(spectra, counts)
    ])
    other = np.flatnonzero(~herm)
    if other.size:
        # that of a non-hermitian one is not read off its singular values
        kept = [_kept(v[other], c[other]) for (_, v), c in zip(spectra, counts)]
        corners[other] = _max_norms(
            [_adjoint(v) @ d[other] @ v for v, d in zip(kept, devs.stacks)]
        )
    kept_ranks = np.sum(ranks, axis=0).tolist()
    rows = [
        {"a": a, "delta": delta, "rank_kept": rank, "corner_norm": corner}
        for a, delta, rank, corner in zip(schedule, deltas, kept_ranks, corners.tolist())
    ]

    n0 = next((schedule[i] for i in range(len(rows)) if max(deltas[i:]) <= delta_tol), None)
    verdict = "pass" if n0 is not None else "fail"
    cert = MeasureCertificate(
        schedule, float(eps), float(delta_tol), rows, n0, verdict, devs.within,
        lambda: _witnesses(devs, [v for _, v in spectra], counts),
    )
    return cert, counts


@dataclass
class BauCertificate:
    """A single witness projection e with decaying tail suprema; e and
    ``e_active`` are built when first read, ``witness_ranks`` are e's."""

    schedule: list
    delta_budget: float
    theta: float
    excluded_mass: float
    witness_ranks: tuple
    tail: list
    final: float
    slope: float
    n0: int
    verdict: str
    within: Projection = None
    detail: dict = field(default_factory=dict)
    build: object = field(default=None, repr=False, compare=False)

    e = property(lambda self: self._built[0])
    e_active = property(lambda self: self._built[1])

    @cached_property
    def _built(self):
        return self.build()

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
    ``e_active`` is the part of e inside the corner.  S and the corner norms
    are formed in corner coordinates from the eigenpairs of each |X_k -
    limit| that :func:`measure_certify` reads; e is built when first read.
    """
    _require_budget(delta_budget)
    devs = _deviations(sequence, limit, schedule, within)
    return _bau(devs, delta_budget, n0, decay_tol, window)[0]


def _bau(devs, delta_budget, n0, decay_tol, window):
    """:func:`bau_certify` of a deviation stack, and per block the (1, m, r)
    stack of the r eigenvectors that e keeps in corner coordinates."""
    algebra, schedule = devs.algebra, devs.schedule
    if not 0 <= n0 < len(schedule):
        raise ValueError("n0 must index into the sequence")
    # summed from zero in schedule order, as the per-point sum of Operators
    s = [
        sum(a * 2.0 ** -k for k, a in enumerate(_abs_eigh(mags[n0:], vecs[n0:])))[None]
        for mags, vecs in devs.spectra[1]
    ]
    eigs = [np.linalg.eigh(_hermitian_part(m)) for m in s]
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
    kept = [v[..., : c[0]] for (_, v), c in zip(eigs, counts)]
    corner = _max_norms([_adjoint(w) @ d @ w for w, d in zip(kept, devs.stacks)])
    tail = [(schedule[i], max(corner[i:])) for i in range(n0, len(corner))]
    slope, _, verdict = tail_decay_verdict(tail, decay_tol, window)
    detail = {"corner_norms": corner, "candidates_tried": len(candidates)}
    ranks = tuple(int(r[0]) for r in devs.ranks(counts))
    cert = BauCertificate(
        schedule, float(delta_budget), float(theta), float(excluded), ranks, tail,
        float(tail[-1][1]), slope, n0, verdict, devs.within, detail,
        lambda: [w[0] for w in _witnesses(devs, [v for _, v in eigs], counts)],
    )
    return cert, kept


def _certify(
    algebra, stacks, limit, schedule, eps, delta_tol, delta_budget, decay_tol
):
    """``(measure_certify, bau_certify)`` of one input on the whole algebra,
    given as per-block stacks: both read one decomposition of each
    deviation, and raise what the two calls in a row would raise."""
    _require_eps(eps)
    devs = _Deviations(
        algebra, list(schedule), [s - m for s, m in zip(stacks, limit.block_mats)]
    )
    measure = _measure(devs, eps, delta_tol)[0]
    _require_budget(delta_budget)
    return measure, _bau(devs, delta_budget, 0, decay_tol, SLOPE_WINDOW)[0]


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
    burn_in: int
    rows: list
    verdicts: dict
    detail: dict = field(default_factory=dict)

    @property
    def p(self):
        """The glued conservative part p of every r_a = p + q_a."""
        return self.bau.e_active

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
    inequality is checked numerically row by row, not assumed.  The averages
    are compressed onto the e1 and e2 corner bases, where every norm is
    taken; tau(1 - r_a) is read off the ranks of p and q_a, and witnesses
    are built when first read.  The schedule must be strictly ascending; a
    missing ``decomposition`` is computed here.  ``seed`` has no effect.
    """
    return _stochastic_run(
        action, x, schedule, eps, delta, decomposition, decay_tol,
        lambda schedule: _average_stacks(action, x, schedule),
    )


def _stochastic_run(action, x, schedule, eps, delta, decomposition, decay_tol, walk):
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
        decomposition = neveu_decompose(action, schedule=schedule, decay_tol=decay_tol)
    e1, e2 = decomposition.e1, decomposition.e2
    algebra = action.algebra

    avgs = walk(schedule)
    xbar = decomposition.projection_schrodinger(x)
    xbar = (xbar + xbar.H) * 0.5

    # the corners e_i A_a(x) e_i and the limit e1 xbar e1 in corner coordinates
    b1, b2 = _corner_basis(e1), _corner_basis(e2)
    lim1 = [_hermitian_part(m) for m in _compress(b1, [m[None] for m in xbar.block_mats])]
    c1 = [_hermitian_part(c) - m for c, m in zip(_compress(b1, avgs), lim1)]
    ab2 = [a @ b for a, b in zip(avgs, b2)]
    c2 = [_hermitian_part(_adjoint(b) @ ab) for b, ab in zip(b2, ab2)]
    bau, kept1 = _bau(
        _Deviations(algebra, schedule, c1, e1, b1), delta / 2.0, 0, decay_tol, SLOPE_WINDOW
    )
    devs2 = _Deviations(algebra, schedule, c2, e2, b2)
    measure, counts2 = _measure(devs2, eps, delta / 2.0)

    burn_bau = next((a for a, v in bau.tail if v <= eps), None)
    burn = None
    if burn_bau is not None and measure.n0 is not None:
        burn = max(burn_bau, measure.n0)

    # ||p xbar p|| and the cross terms ||p A_a(x) q_a||: as p = (B1 W)(B1 W)*
    # and q_a = (B2 V_a)(B2 V_a)* on orthonormal columns, these are
    # ||W* lim1 W|| and ||(B1 W)* A_a(x) B2 V_a||, one batched norm per block
    (bound_base,) = _max_norms([_adjoint(w) @ m @ w for w, m in zip(kept1, lim1)])
    cross_norms = _max_norms(
        [
            _adjoint(b @ w) @ ab @ _kept(v, c)
            for b, w, ab, (_, v), c in zip(b1, kept1, ab2, devs2.spectra[1], counts2)
        ]
    )
    # tau(1 - r_a) of the glued r_a = p + q_a, read off their ranks
    excluded = 0
    for w, n, w1, c in zip(algebra.weights, algebra.blocks, kept1, counts2):
        excluded = excluded + w * (n - w1.shape[-1] - c)
    excluded = np.asarray(excluded, dtype=float).tolist()
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
    return StochasticReport(
        schedule, float(eps), float(delta), xbar, decomposition, bau, measure,
        burn, rows, verdicts, detail,
    )


def corner_compatibility(action, decomposition, x):
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
    scale = max(1.0, trace_norm(x))
    worst = 0.0
    witness = None
    for i, g in enumerate(schr.generators):
        for e in (decomposition.e1, decomposition.e2):
            dev = trace_norm(e @ g(x) @ e - g(e @ x @ e))
            if dev > worst:
                worst = dev
                witness = (i, e)
    verdict = "pass" if worst <= CORNER_COMPAT_TOL * scale else "fail"
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
    """Orbit of x over the inclusive index box {0..a}^d ({-a..a}^d for a
    symmetric box, all elements for finite groups, a 17-point grid per axis
    for continuous cubes), as vec coordinates, one axis after another.  The
    walk runs on the real generator matrices, with the real and imaginary
    parts of the hermitian-basis coordinates of x as two real columns."""
    a = action.scheme.side(a)
    r = _to_hermitian(action.algebra, x.vec())
    v = np.column_stack([r.real, r.imag])
    if action.scheme.kind == "finite-group":
        cols = [m @ v for m in action.real]
    else:
        cols = [v]
        for axis in range(action.scheme.d):
            cols = _axis_orbit(action, axis, cols, a)
    stack = np.stack(cols, axis=1)
    return list(_to_vec(action.algebra, stack[..., 0] + 1j * stack[..., 1]).T)


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
