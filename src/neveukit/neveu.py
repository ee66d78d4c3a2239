"""Neveu decomposition and mean ergodic projections.

For a commuting semigroup of positive L1 contractions gamma_g the algebra
splits along two central-free projections

    e1 = support of an invariant density Y (the conservative corner),
    e2 = 1 - e1                            (the weakly wandering corner),

where Y is produced by the mean ergodic projection of the density picture
applied to any faithful initial density.  When no invariant density exists
(the projection annihilates every density) e1 = 0.  The complementary
projection e2 is itself a weakly wandering witness: the observable-picture
averages A_a(e2) decay in operator norm, which is certified on a finite
schedule rather than assumed.

The mean ergodic projection is computed from one SVD per generator (the
null vectors of G = S - 1, multiplied across generators) and then
certified by its group inverse (C. D. Meyer, SIAM Review 17, 1975): a
singular P - G, or kappa = ||(P - G)^-1||_1 above ``KAPPA_BOUND``, raises
instead of returning a silently wrong projector (:func:`_group_inverse`).
E has rank r, the fixed-space dimension, and is also kept by its factors
E(y) = sum_i tau(psi_i y) x_i over the fixed basis x_i and the dual basis
psi_i = dual(E)(x_i*).  The observable-picture projection is the dual
E_h(b) = sum_i tau(x_i b) psi_i, so a scenario run computes E once, in the
density picture, and reads E_h off it (``_dual_projection``): the psi_i
become the fixed basis and the x_i the conserved functionals.  E_h keeps
the certificate of E and has its residuals and factor residual measured
again in its own picture.

When no generator moves mass between two groups of algebra blocks, L1
splits into invariant central summands, and E, its fixed space and the
averages split the same way.  The spectral work (the SVDs, the group
inverses, the residuals) then runs once per uncoupled summand, E holds
exact zeros between summands, and each fixed-basis element lives in one
summand.  Every check stays that of the whole matrices: one SVD rank
cutoff over all summands, Frobenius residuals combined as the 2-norm of
the per-summand ones, and kappa as its maximum.
The action caches its summands only: callers that reuse a projection pass
it on with ``projection=``, as the tasks of one scenario run do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Operator,
    Projection,
    op_norm,
    op_norms,
    support,
    trace,
    trace_norm,
)
from .dynamics import _ascending, _square, average_super, averages
from .maps import SuperOperator, _transpose_perm, dual

__all__ = [
    "MeanErgodicProjection",
    "MeanErgodicValidationError",
    "NeveuDecomposition",
    "WanderingCertificate",
    "InfProfile",
    "fixed_space",
    "mean_ergodic_projection",
    "invariant_state",
    "neveu_decompose",
    "weakly_wandering_certificate",
    "tail_decay_verdict",
    "reference_density",
    "inf_profile",
    "wandering_sum",
]

PROJECTION_RESIDUAL_TOL = 1e-9
INVARIANCE_TOL = 1e-9
ABSENCE_TOL = 1e-12
UNIQUENESS_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-10
DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64)
SLOPE_WINDOW = 5
SLOPE_THRESHOLD = -0.9
# on the hard spectra (an eigenvalue 1 - delta beside 1, alone or in a
# Jordan block), the SVD projector is off by ||E - E*||_F <= 0.86 u kappa
# (u = 2^-53; 2.5e-16 where G is normal), so kappa <= 1e-9 / (4 u) = 2.25e6
# keeps it under 2.2e-10, a factor 4.6 inside the residual tolerance
KAPPA_BOUND = PROJECTION_RESIDUAL_TOL / (4 * 2.0**-53)


class MeanErgodicValidationError(ArithmeticError):
    """The spectral projector failed a residual, a rank check or its
    group-inverse certificate (E - G singular, or kappa too large)."""


def _stacked_generator_matrices(action):
    mats = action.matrices
    if action.scheme.kind == "r-plus-cube":
        return list(mats)
    if action.scheme.kind == "finite-group":
        # element 0 is the identity; a trivial group keeps it
        mats = mats[1:] or mats
    eye = np.eye(action.algebra.dim)
    return [m - eye for m in mats]


def fixed_space(action, tol=1e-9):
    """tau-orthonormal basis of the joint fixed subspace of the action.

    Stacks the generator conditions (S_i - 1, or the flow generators L_i)
    and reads the null space off one SVD per uncoupled central summand,
    cut as the whole stacked matrix is (:func:`_null_spaces`).  Each basis
    element lives in one summand, and the elements come summand by summand.
    """
    action.require_commuting()
    parts = action._summands()
    stacks = [np.vstack(_stacked_generator_matrices(sub)) for _, sub in parts]
    return _fixed_basis(action.algebra, parts, _null_spaces(stacks, tol))


def _null_spaces(mats, tol):
    """``[(X, F)]`` for the summand pieces ``mats`` of one block-diagonal
    matrix: its right null vectors as columns and its left ones as rows, by
    one SVD per piece.  Singular values up to tol * max(1, sigma_max), with
    sigma_max the largest of all pieces, count as zero: the rank the SVD of
    the whole matrix decides.  A stacked (tall) matrix gets only part of F."""
    svds = [np.linalg.svd(m, full_matrices=False) for m in mats]
    cutoff = tol * max(1.0, *(sig[0] for _, sig, _ in svds))
    nulls = []
    for u, sig, vh in svds:
        r = int(np.sum(sig > cutoff))
        nulls.append((vh[r:].conj().T, u[:, r:].conj().T))
    return nulls


def _fixed_basis(algebra, parts, nulls):
    """The fixed basis from the null spaces ``nulls`` of the summands
    ``parts``, tau-orthonormal per summand and embedded in the algebra."""
    basis = []
    for (coords, sub), (null, _) in zip(parts, nulls):
        ortho, _ = _tau_orthonormal(null, sub.algebra.weight_vec)
        vecs = np.zeros((algebra.dim, ortho.shape[1]), dtype=complex)
        vecs[coords] = ortho
        basis += [algebra.from_vec(v) for v in vecs.T]
    return basis


def _tau_orthonormal(cols, w):
    """``(cols L^-*, L)``: a tau-orthonormal basis of the span of the vec
    columns ``cols``, with L L* the Cholesky factorisation of their Gram
    matrix cols* W cols under the trace weights ``w``.  cols L^-* is
    (L^-1 cols*)*, by a numpy solve with the triangular L (r x r for r
    fixed directions, so its LU costs no more than the Gram matrix)."""
    gram = cols.conj().T @ (w[:, None] * cols)
    chol = np.linalg.cholesky(gram)
    ortho = np.linalg.solve(chol, cols.conj().T).conj().T
    return ortho, chol


def _vec_columns(elements, dim):
    """The vec coordinates of the elements as the columns of a dim x r
    matrix (dim x 0 for no elements)."""
    vecs = np.array([y.vec() for y in elements], dtype=complex)
    return vecs.reshape(len(elements), dim).T


@dataclass(frozen=True)
class MeanErgodicProjection:
    """Projector onto the fixed space along the averaged-to-zero complement.

    E has finite rank r, the dimension of the fixed space, and factors as

        E(y) = sum_i tau(psi_i y) x_i,

    with x_i = ``fixed_basis[i]`` the tau-orthonormal fixed points and
    psi_i = ``dual_basis[i]`` = dual(E)(x_i*), the functionals conserved by
    the dual action: tau(psi_i x_j) = delta_ij.  In the density picture the
    psi_i are conserved observables.  ``factor_residual`` is the Frobenius
    norm of the difference between the factored and the dense E.  The
    observable-picture projection of a scenario run is the dual of the
    density-picture one: its ``cross_validation`` is the density picture's,
    while ``residuals`` and ``factor_residual`` are measured in its own
    picture.  ``cross_validation`` holds ``kappa`` (None for a finite
    group) and ``kappa_bound``.
    """

    superop: SuperOperator
    fixed_basis: list
    dual_basis: list
    residuals: dict
    cross_validation: dict
    rank: int
    factor_residual: float

    def __call__(self, x):
        return self.superop(x)


def mean_ergodic_projection(action, tol_fixed=1e-9):
    """The limit projector E of the Foelner averages A_a of the action.

    Per generator, one SVD of G = S - 1 (L for a flow) gives its right and
    left null vectors X and F, cut at ``tol_fixed`` (:func:`_null_spaces`),
    and P = X (F X)^-1 F, since the eigenvalue 1 of a contraction is
    semisimple (M. M. Wolf, Quantum Channels & Operations, 2012); the
    commuting per-generator projectors are then multiplied.  Four
    independent validations guard the result: idempotency and generator
    invariance residuals, agreement of its range with the SVD fixed space
    (in rank, then as subspaces through the factor residual
    ``||X F - E||_F``), and the :func:`_group_inverse` certificate of each
    generator's projector, which also refuses a wrong rank cut; commuting
    generators have commuting spectral projections, so certified factors
    make E the joint one.  With one generator, that SVD also gives the fixed
    space.  A finite group's E is the exact group average, with kappa None.
    The residuals ``||E^2 - E||`` and ``||S E - E||``, ``||E S - E||`` (for
    flows ``||L E||``, ``||E L||`` over ``max(1, ||L||_2)``) are Frobenius
    norms, upper bounds on the spectral norm, checked against 1e-9.

    When no generator couples two groups of algebra blocks, E splits along
    these uncoupled central summands: the SVDs, the group inverses and the
    residuals run per summand, E holds exact zeros between summands, and
    each fixed-basis element lives in one summand.  Every check stays that
    of the whole matrices: Frobenius residuals combine as the 2-norm of the
    per-summand ones, kappa (of a block-diagonal inverse) is the maximum
    over summands, and the spectral rank must match the fixed-space
    dimension in each summand and in total.
    """
    action.require_commuting()
    algebra = action.algebra
    dim = algebra.dim
    parts = action._summands()
    conditions = [_stacked_generator_matrices(sub) for _, sub in parts]
    joint = _null_spaces([np.vstack(c) for c in conditions], tol_fixed)
    basis = _fixed_basis(algebra, parts, joint)
    if action.scheme.kind == "finite-group":
        pieces, kappa = [average_super(sub, 1).matrix for _, sub in parts], None
    else:
        # one generator: its null spaces are the joint ones
        each = [joint] if len(conditions[0]) == 1 else [
            _null_spaces(mats, tol_fixed) for mats in zip(*conditions)
        ]
        pieces, kappas = zip(*map(_summand_projector, conditions, zip(*each)))
        kappa = max(kappas)
    if len(parts) == 1:
        e = pieces[0]
    else:
        e = np.zeros((dim, dim), dtype=complex)
        for (coords, _), piece in zip(parts, pieces):
            e[_square(coords)] = piece

    residuals = _projector_residuals(parts, e)
    ranks = [int(round(np.trace(piece).real)) for piece in pieces]
    rank = sum(ranks)
    if rank != len(basis):
        raise MeanErgodicValidationError(
            f"spectral rank {rank} != fixed-space dimension {len(basis)}"
        )
    w = algebra.weight_vec
    x = _vec_columns(basis, dim)
    if len(parts) > 1:
        # the basis elements that reach into each summand
        held = [int(np.any(x[coords] != 0, axis=0).sum()) for coords, _ in parts]
        if held != ranks:
            raise MeanErgodicValidationError(
                f"spectral ranks {ranks} != fixed-space dimensions {held} "
                f"per uncoupled summand"
            )
    # E = X F with X the fixed basis as vec columns and F = X* W E, since
    # X X* W is the tau-orthogonal projector onto the fixed space; this holds
    # only when range(E) is that space, not merely of its dimension
    f = x.conj().T @ (w[:, None] * e)
    factor_residual = _factor_residual(x, f, e)
    # tau(psi y) = F_i . vec(y) pairs psi's entry (p, q) with y's (q, p)
    dual_basis = [
        algebra.operator([m.T for m in algebra.from_vec(row / w).block_mats])
        for row in f
    ]
    cross = {"kappa": kappa, "kappa_bound": KAPPA_BOUND}
    sup = SuperOperator(algebra, e, source="mean-ergodic-projection")
    return MeanErgodicProjection(
        sup, basis, dual_basis, residuals, cross, rank, factor_residual
    )


def _summand_projector(gens, nulls):
    """``(E, kappa)`` on one uncoupled summand: the product of the
    projectors X (F X)^-1 F of the generator conditions ``gens`` with their
    null spaces ``nulls``, and the largest kappa of their certificates."""
    e, kappas = None, []
    for g, (x, f) in zip(gens, nulls):
        # a singular F X (the cut null vectors meet the range of G) leaves a
        # P that is no projector, which the certificate or residuals refuse
        p = x @ np.linalg.pinv(f @ x) @ f
        kappas.append(_group_inverse(p, g)[1])
        e = p if e is None else p @ e
    return e, max(kappas)


def _group_inverse(p, g):
    """``(Z, kappa)``: Z = (P - G)^-1 by one LU and kappa = ||Z||_1, for a
    null-space projector P and G = S - 1 (L for a flow); raises
    :class:`MeanErgodicValidationError` when P - G is singular or kappa
    exceeds ``KAPPA_BOUND``.

    With G P = P G = 0 (the invariance residuals), P - G is invertible iff
    range P = ker G and ker P = range G, i.e. iff P is the mean ergodic
    projection.  Z - P is then the group inverse of -G, and for G = S - 1
    the averages obey A_a - P = (1/a)(1 - S^a)(Z - P).
    """
    try:
        z = np.linalg.inv(p - g)
    except np.linalg.LinAlgError:
        raise MeanErgodicValidationError(
            "E - G is singular: the projector is not the spectral one"
        ) from None
    kappa = float(np.linalg.norm(z, 1))
    if not kappa <= KAPPA_BOUND:
        raise MeanErgodicValidationError(
            f"group-inverse certificate: ||(E - G)^-1||_1 = {kappa:.3e} "
            f"above {KAPPA_BOUND:.3e}"
        )
    return z, kappa


def _projector_residuals(parts, e):
    """Idempotency and invariance residuals of the dense projector ``e`` of
    an action split into the ``(coords, sub)`` summands ``parts``; raises
    :class:`MeanErgodicValidationError` above 1e-9.

    Each residual is computed per summand on the diagonal blocks of ``e``,
    and they combine to the norms of the whole matrices: Frobenius norms as
    the 2-norm of the per-summand ones, and the flow scale as the largest
    per-summand spectral norm.  So ``e`` must hold exact zeros between the
    summands, which is checked.
    """
    pieces = [(sub, e[_square(coords)]) for coords, sub in parts]
    if len(parts) > 1 and np.count_nonzero(e) != sum(
        np.count_nonzero(block) for _, block in pieces
    ):
        raise MeanErgodicValidationError(
            "projector couples summands that no generator couples"
        )
    continuous = parts[0][1].scheme.kind == "r-plus-cube"
    # Frobenius norms bound the spectral norm from above, so the residual
    # checks are at least as strict as spectral ones; the flow scale stays
    # spectral, since a larger divisor would loosen them
    residuals = {
        "idempotency": math.hypot(
            *(np.linalg.norm(b @ b - b, "fro") for _, b in pieces)
        )
    }
    inv = 0.0
    for i in range(len(parts[0][1].matrices)):
        mats = [(sub.matrices[i], b) for sub, b in pieces]
        if continuous:
            scale = max(1.0, *(np.linalg.norm(m, 2) for m, _ in mats))
            left = math.hypot(*(np.linalg.norm(m @ b, "fro") for m, b in mats))
            right = math.hypot(*(np.linalg.norm(b @ m, "fro") for m, b in mats))
            inv = max(inv, left / scale, right / scale)
        else:
            left = math.hypot(*(np.linalg.norm(m @ b - b, "fro") for m, b in mats))
            right = math.hypot(*(np.linalg.norm(b @ m - b, "fro") for m, b in mats))
            inv = max(inv, left, right)
    residuals["invariance"] = float(inv)
    bad = {k: v for k, v in residuals.items() if v > PROJECTION_RESIDUAL_TOL}
    if bad:
        raise MeanErgodicValidationError(f"projector residuals above 1e-9: {bad}")
    return residuals


def _factor_residual(x, f, e):
    """``||X F - E||_F`` for the fixed basis X (vec columns) and the pairing
    rows F of its dual basis; raises :class:`MeanErgodicValidationError`
    above 1e-9."""
    residual = float(np.linalg.norm(x @ f - e, "fro"))
    if residual > PROJECTION_RESIDUAL_TOL:
        raise MeanErgodicValidationError(
            f"range of the projector is not the fixed space: "
            f"||X F - E|| = {residual:.3e}"
        )
    return residual


def _dual_projection(proj, heis, sup):
    """The mean ergodic projection of the observable-picture action
    ``heis``, read off the validated projection ``proj`` of its density
    picture instead of computed a second time; ``sup`` is
    ``dual(proj.superop)``, which the caller may share with other work.

    E_h = dual(E) acts as E_h(b) = sum_i tau(x_i b) psi_i, so the psi_i of
    ``proj`` span its range and its x_i are the functionals that E_h
    conserves.  With L L* the Cholesky factorisation of the Gram matrix of
    the psi_i, the fixed basis Psi L^-* is tau-orthonormal and the dual
    basis X conj(L) pairs with it to the identity.  The certificate is
    that of ``proj``; the residuals and the factor residual are measured
    again on E_h, in the observable picture, and raise as in
    :func:`mean_ergodic_projection`.
    """
    algebra = heis.algebra
    w = algebra.weight_vec
    e = sup.matrix
    residuals = _projector_residuals(heis._summands(), e)
    fixed, chol = _tau_orthonormal(_vec_columns(proj.dual_basis, algebra.dim), w)
    conserved = _vec_columns(proj.fixed_basis, algebra.dim) @ chol.conj()
    # tau(psi y) = F_i . vec(y) pairs psi's entry (p, q) with y's (q, p)
    f = (w[:, None] * conserved[_transpose_perm(algebra.blocks)]).T
    factor_residual = _factor_residual(fixed, f, e)
    return MeanErgodicProjection(
        sup,
        [algebra.from_vec(v) for v in fixed.T],
        [algebra.from_vec(v) for v in conserved.T],
        residuals,
        dict(proj.cross_validation),
        proj.rank,
        factor_residual,
    )


def reference_density(algebra):
    """The normalised identity 1 / tau(1), the default faithful density."""
    one = algebra.identity()
    return one * (1.0 / trace(one).real)


def invariant_state(action, phi0=None, projection=None):
    """Invariant density E_*(phi0)/tau(E_*(phi0)), or None when none exists.

    phi0 must be a faithful positive density; the default is the normalised
    identity.  Works in the density picture (the action is dualised if it was
    given in the observable picture).  The returned Y is tau-normalised and
    its invariance under every generator is verified to 1e-9 in trace norm;
    a larger defect raises ``ArithmeticError``.
    """
    y, dev = _invariant_density(action.to_picture("schrodinger"), phi0, projection)
    if y is not None and dev > _invariance_bound(y):
        raise ArithmeticError(
            f"candidate density is not invariant: defect {dev:.3e}"
        )
    return y


def _invariance_bound(y):
    return INVARIANCE_TOL * max(1.0, trace_norm(y))


def _invariant_density(schr, phi0, projection):
    """``(Y, defect)``: the candidate density of :func:`invariant_state` on
    the density picture ``schr`` with its invariance defect, unchecked, or
    ``(None, 0.0)``."""
    if phi0 is None:
        phi0 = reference_density(schr.algebra)
    if not phi0.is_positive():
        raise ValueError("phi0 must be positive")
    min_eig = min(lam.min() for lam, _ in phi0.eigh())
    if min_eig <= ABSENCE_TOL:
        raise ValueError("phi0 must be faithful (strictly positive)")
    if projection is None:
        projection = mean_ergodic_projection(schr)
    y0 = projection(phi0)
    mass = trace(y0).real
    if mass <= ABSENCE_TOL:
        return None, 0.0
    y = (y0 + y0.H) * 0.5 * (1.0 / mass)
    return y, _invariance_defect(schr, y)


def _invariance_defect(schr, y):
    dev = 0.0
    if schr.scheme.kind == "r-plus-cube":
        for L in schr.matrices:
            scale = max(1.0, np.linalg.norm(L, 2))
            dev = max(dev, trace_norm(schr.algebra.from_vec(L @ y.vec())) / scale)
        return dev
    for s in schr.generators:
        dev = max(dev, trace_norm(s(y) - y))
    return dev


@dataclass
class WanderingCertificate:
    """Finite-schedule decay evidence for ||A_a(x)||."""

    points: list
    final: float
    slope: float
    verdict: str
    detail: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"


def tail_decay_verdict(points, decay_tol, window=SLOPE_WINDOW):
    """Decay verdict of a schedule of ``(a, norm)`` points.

    Pass iff the final norm is at or below decay_tol, or the log-log slope
    fitted over the positive points of the last ``window`` points is at most
    SLOPE_THRESHOLD with the norms non-increasing there (up to 1e-12).  The
    slope is fitted on the tail window, not the full range, because early
    preasymptotic points flatten the fit.  Returns ``(slope, nonincreasing,
    verdict)``; the slope is None with fewer than two positive tail points.
    """
    tail = points[-window:]
    slope = None
    positive = [(a, n) for a, n in tail if n > 0.0]
    if len(positive) >= 2:
        la = np.log([a for a, _ in positive])
        ln = np.log([n for _, n in positive])
        slope = float(np.polyfit(la, ln, 1)[0])
    nonincreasing = all(
        tail[i + 1][1] <= tail[i][1] + 1e-12 for i in range(len(tail) - 1)
    )
    if points[-1][1] <= decay_tol:
        verdict = "pass"
    elif slope is not None and slope <= SLOPE_THRESHOLD and nonincreasing:
        verdict = "pass"
    else:
        verdict = "fail"
    return slope, nonincreasing, verdict


def weakly_wandering_certificate(
    action, x, schedule=None, decay_tol=1e-6, window=SLOPE_WINDOW
):
    """Certify decay of the operator-norm averages of x along the schedule.

    The verdict is :func:`tail_decay_verdict` of the points ``(a, ||A_a(x)||)``
    along a strictly ascending schedule.
    """
    schedule = _ascending(schedule if schedule is not None else DEFAULT_SCHEDULE)
    if schedule[0] < 1:
        raise ValueError("schedule must be nonempty with entries >= 1")
    if op_norm(x) == 0.0:
        return WanderingCertificate([], 0.0, None, "pass", {"note": "zero element"})
    avgs = averages(action.to_picture("heisenberg"), x, schedule)
    points = list(zip(schedule, op_norms(avgs)))
    slope, nonincreasing, verdict = tail_decay_verdict(points, decay_tol, window)
    detail = {"nonincreasing_tail": nonincreasing, "window": window}
    return WanderingCertificate(points, points[-1][1], slope, verdict, detail)


@dataclass
class NeveuDecomposition:
    """e1/e2 splitting with its invariant density and decay evidence."""

    algebra: object
    e1: Projection
    e2: Projection
    invariant_density: Operator
    x0: Operator
    certificate: WanderingCertificate
    verdicts: dict
    detail: dict
    projection_schrodinger: SuperOperator

    @property
    def decay(self):
        return self.certificate.points

    @property
    def slope(self):
        return self.certificate.slope

    @property
    def overall(self):
        return all(v == "pass" for v in self.verdicts.values())


def neveu_decompose(
    action, schedule=None, seed=0, decay_tol=1e-6, tol_fixed=1e-9, projection=None
):
    """Split the algebra into the conservative and weakly wandering corners.

    Returns a :class:`NeveuDecomposition` carrying e1 = support of the
    invariant density (zero projection when no invariant density exists),
    e2 = 1 - e1, the wandering witness x0 = e2 with its finite-schedule decay
    certificate, and verdicts for decay, uniqueness under a second random
    faithful initial density, invariance, orthogonality, and agreement of the
    weighted wandering sum with e2.  A candidate density that is not
    invariant is reported by the ``invariance`` verdict, not raised.
    ``projection`` is a precomputed mean ergodic projection of the density
    picture, in place of ``tol_fixed``.
    """
    schr = action.to_picture("schrodinger")
    proj = projection or mean_ergodic_projection(schr, tol_fixed=tol_fixed)
    return _decompose(
        schr,
        action.to_picture("heisenberg"),
        proj,
        dual(proj.superop),
        schedule,
        seed,
        decay_tol,
    )


def _decompose(schr, heis, proj, e_heis, schedule, seed, decay_tol):
    """:func:`neveu_decompose` on both pictures of the action, given as
    ``schr`` and ``heis``, with the density-picture projection ``proj`` and
    its dual ``e_heis``."""
    algebra = schr.algebra
    y, inv_defect = _invariant_density(schr, None, proj)
    detail = {
        "mean_residuals": proj.residuals,
        "cross_validation": proj.cross_validation,
        "fixed_rank": proj.rank,
    }

    if y is None:
        e1 = Projection.from_eigvecs(algebra, [None] * algebra.n_blocks)
    else:
        e1 = support(y)
    e2 = e1.complement()
    x0 = e2
    detail["invariance_defect"] = float(inv_defect)

    cert = weakly_wandering_certificate(
        heis, x0, schedule=schedule, decay_tol=decay_tol
    )

    verdicts = {"decay": cert.verdict}
    invariant = y is None or inv_defect <= _invariance_bound(y)
    verdicts["invariance"] = "pass" if invariant else "fail"

    # a second faithful seed density must reproduce the same support
    rng = np.random.default_rng(seed)
    phi_alt = algebra.random_density(rng)
    y_alt = proj(phi_alt)
    mass_alt = trace(y_alt).real
    if y is None:
        uniq = "pass" if mass_alt <= ABSENCE_TOL else "fail"
        detail["uniqueness"] = {"alt_mass": float(mass_alt)}
    else:
        y_alt = (y_alt + y_alt.H) * 0.5 * (1.0 / mass_alt)
        e1_alt = support(y_alt)
        gap = op_norm(e1_alt - e1)
        same_rank = e1_alt.ranks == e1.ranks
        uniq = "pass" if (same_rank and gap <= UNIQUENESS_TOL) else "fail"
        detail["uniqueness"] = {"support_gap": float(gap), "rank_match": same_rank}
    verdicts["uniqueness"] = uniq

    # the observable-picture mean projection must annihilate e2
    wander_norm = op_norm(algebra.from_vec(e_heis.matrix @ e2.vec()))
    verdicts["wandering"] = (
        "pass" if wander_norm <= PROJECTION_RESIDUAL_TOL else "fail"
    )
    detail["mean_of_e2_norm"] = float(wander_norm)

    if y is None:
        ortho = 0.0
    else:
        ortho = abs(trace(y @ x0))
    verdicts["orthogonality"] = "pass" if ortho <= ORTHOGONALITY_TOL else "fail"
    detail["density_on_e2"] = float(ortho)

    sup_ws = support(wandering_sum([e2]))
    agree = sup_ws.ranks == e2.ranks and op_norm(sup_ws - e2) <= UNIQUENESS_TOL
    verdicts["wandering_sum_agreement"] = "pass" if agree else "fail"

    return NeveuDecomposition(
        algebra, e1, e2, y, x0, cert, verdicts, detail, proj.superop
    )


@dataclass
class InfProfile:
    values: list
    min_value: float
    argmin: int


def inf_profile(action, phi, p, a_max=64):
    """tau(phi . A_a(p)) for a = 1..a_max with its minimum and argmin.

    The averages act on p in the observable picture; phi is the reference
    density paired against them.
    """
    heis = action.to_picture("heisenberg")
    a_max = int(a_max)
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    avgs = averages(heis, p, range(1, a_max + 1))
    values = [(a, float(trace(phi @ y).real)) for a, y in enumerate(avgs, 1)]
    min_value = min(v for _, v in values)
    argmin = next(a for a, v in values if v == min_value)
    return InfProfile(values, float(min_value), argmin)


def wandering_sum(projections, weights=None):
    """The weighted sum sum_j w_j q_j of wandering projections.

    Defaults to the summable weights 2^-(j+1); the support of the result is
    the join of the supports, giving an independent construction path for the
    wandering corner.
    """
    projections = list(projections)
    if not projections:
        raise ValueError("need at least one projection")
    algebra = projections[0].algebra
    for q in projections:
        if not isinstance(q, Projection) or q.algebra != algebra:
            raise ValueError("inputs must be projections on a single algebra")
    if weights is None:
        weights = [2.0 ** -(j + 1) for j in range(len(projections))]
    weights = [float(w) for w in weights]
    if len(weights) != len(projections) or any(w <= 0 for w in weights):
        raise ValueError("need one positive weight per projection")
    acc = algebra.zero()
    for w, q in zip(weights, projections):
        acc = acc + q * w
    return acc
