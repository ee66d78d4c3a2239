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
schedule rather than assumed, and the observable-picture projection
annihilates it, read off the factors of E below.  Every faithful initial
density gives Y the
same support, so the decomposition draws nothing at random, and reports the
margin of Y's eigenvalues about the support cutoff, where rounding can move e1.

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
again in its own picture.  Every invariance (of E, E_h and Y) is measured
on the generator conditions G = S - 1, or L for a flow.  The residuals are
upper bounds read off the rank-r factors and the factor residual, in
O(r D^2) (:func:`mean_ergodic_projection`), and each group inverse Z also
gives 1/kappa, a lower bound on every nonzero eigenvalue modulus of its G
(:func:`_group_inverse`).

When no generator moves mass between two groups of algebra blocks, L1
splits into invariant central summands, and E, its fixed space and the
averages split the same way.  The spectral work (the SVDs, the group
inverses) then runs once per uncoupled summand, E holds exact zeros
between summands, and each fixed-basis element lives in one summand.
Every check stays that of the whole matrices: one SVD rank cutoff over all
summands, residual bounds over the whole factors, and kappa as the
maximum over summands.
The action caches its summands only: callers that reuse a projection pass
it on with ``projection=``, as the tasks of one scenario run do.

The spectral work runs on the real generator matrices of the action in the
hermitian basis (``SemigroupAction.real``, see :mod:`neveukit.algebra`): the
SVDs, the projectors, the group inverses and the residuals.  E is real
there, and its ``SuperOperator`` holds that matrix, as every map does
(:class:`~neveukit.maps.SuperOperator`).  kappa is still the 1-norm of (P - G)^-1 in
vec coordinates, where ``KAPPA_BOUND`` is calibrated, read off the real
entries of Z.  The fixed and dual bases are hermitian, and
each fixed-basis vector x has the sign that makes tau(x) > 0, or (where
tau(x) is near 0) its largest-modulus coordinate positive
(:func:`_sign_gauge`), so the sign does not follow the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Operator,
    Projection,
    _herm_index,
    _max_norms,
    _support_cutoff,
    _to_hermitian,
    _to_vec,
    _vec_norm1,
    op_norm,
    support,
    trace,
    trace_norm,
)
from .dynamics import _ascending, _average_stacks, _square
from .maps import SuperOperator, dual

__all__ = [
    "MeanErgodicProjection",
    "MeanErgodicValidationError",
    "NeveuDecomposition",
    "WanderingCertificate",
    "fixed_space",
    "mean_ergodic_projection",
    "invariant_state",
    "neveu_decompose",
    "weakly_wandering_certificate",
    "tail_decay_verdict",
    "reference_density",
]

PROJECTION_RESIDUAL_TOL = 1e-9
INVARIANCE_TOL = 1e-9
ABSENCE_TOL = 1e-12
GAUGE_TOL = 1e-10
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


def fixed_space(action, tol=1e-9):
    """tau-orthonormal basis of the joint fixed subspace of the action.

    Stacks the generator conditions (S_i - 1, or the flow generators L_i)
    and reads the null space off one SVD per uncoupled central summand,
    cut as the whole stacked matrix is (:func:`_null_spaces`).  Each basis
    element lives in one summand, and the elements come summand by summand.
    """
    action.require_commuting()
    parts = action._summands()
    stacks = [np.vstack(sub.conditions) for _, sub in parts]
    algebra = action.algebra
    return _elements(algebra, _fixed_columns(algebra, parts, _null_spaces(stacks, tol)))


def _null_spaces(mats, tol):
    """``[(X, F)]`` for the real summand pieces ``mats`` of one
    block-diagonal matrix: its right null vectors as columns and its left
    ones as rows, by one SVD per piece.  Singular values up to tol *
    max(1, sigma_max), with sigma_max the largest of all pieces, count as
    zero: the rank the SVD of the whole matrix decides.  A stacked (tall)
    matrix gets only part of F."""
    svds = [np.linalg.svd(m, full_matrices=False) for m in mats]
    cutoff = tol * max(1.0, *(sig[0] for _, sig, _ in svds))
    nulls = []
    for u, sig, vh in svds:
        r = int(np.sum(sig > cutoff))
        nulls.append((vh[r:].T, u[:, r:].T))
    return nulls


def _fixed_columns(algebra, parts, nulls):
    """The hermitian-basis coordinates, as real columns, of the fixed basis
    from the real null spaces ``nulls`` of the summands ``parts``:
    tau-orthonormal per summand in the gauge of :func:`_sign_gauge`, and
    embedded in the algebra."""
    cols = np.zeros((algebra.dim, sum(null.shape[1] for null, _ in nulls)))
    k = 0
    for (coords, sub), (null, _) in zip(parts, nulls):
        w = sub.algebra.weight_vec
        ortho, _ = _sign_gauge(sub.algebra, *_tau_orthonormal(null, w))
        cols[coords, k : k + ortho.shape[1]] = ortho
        k += ortho.shape[1]
    return cols


def _elements(algebra, cols):
    """The elements with the hermitian-basis coordinates ``cols``."""
    return [algebra.from_vec(v) for v in _to_vec(algebra, cols).T]


def _sign_gauge(algebra, ortho, chol):
    """``(ortho, chol)`` of :func:`_tau_orthonormal` for real columns, each
    column of both multiplied by the sign that makes tau(x) > 0 for its
    column x, or, where |tau(x)| <= 1e-10 (x is tau-normalised, so |tau(x)|
    <= tau(1)^(1/2)), the largest-modulus coordinate of x positive: the
    first coordinate within 1e-9 (relative) of the largest, so that the
    choice does not follow rounding.  ortho L^-* stays ortho L^-* and the
    pairing X L of :func:`_dual_projection` stays dual to it."""
    diag = _herm_index(algebra.blocks)[0]
    key = algebra.weight_vec[diag] @ ortho[diag]
    weak = np.abs(key) <= GAUGE_TOL
    if weak.any():
        mags = np.abs(ortho)
        lead = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)
        key = np.where(weak, ortho[lead, np.arange(len(key))], key)
    sign = np.copysign(1.0, key)
    return ortho * sign, chol * sign


def _tau_orthonormal(cols, w):
    """``(cols L^-*, L)``: a tau-orthonormal basis of the span of the
    columns ``cols``, in vec or hermitian-basis coordinates (B commutes with
    the weights), with L L* the Cholesky factorisation of their Gram
    matrix cols* W cols under the trace weights ``w``.  cols L^-* is
    (L^-1 cols*)*, by a numpy solve with the triangular L (r x r for r
    fixed directions, so its LU costs no more than the Gram matrix)."""
    gram = cols.conj().T @ (w[:, None] * cols)
    chol = np.linalg.cholesky(gram)
    ortho = np.linalg.solve(chol, cols.conj().T).conj().T
    return ortho, chol


def _vecs(algebra, elements):
    """The vec coordinates of the elements as the rows of an r x D array."""
    return np.array([y.vec() for y in elements], dtype=complex).reshape(-1, algebra.dim)


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
    group) and ``kappa_bound``, and ``gaps`` 1/kappa_i for each generator
    (None for a finite group): a lower bound on every nonzero
    |lambda(G_i)|.
    """

    superop: SuperOperator
    fixed_basis: list
    dual_basis: list
    residuals: dict
    cross_validation: dict
    rank: int
    factor_residual: float
    gaps: tuple = None

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

    The residuals ``||E^2 - E||``, ``||G E||`` and ``||E G||`` (over
    ``max(1, ||L||_2)`` for a flow) are Frobenius norms, upper bounds on the
    spectral norm, checked against 1e-9.  They are not formed densely: with
    E = X F + Delta, X the fixed basis as columns, F its pairing rows and
    delta = ||Delta||_F the factor residual, :func:`_residual_bounds` reports

        ||G E||_F     <= ||(G X) F||_F + ||G||_F delta,
        ||E G||_F     <= ||X (F G)||_F + ||G||_F delta,
        ||E^2 - E||_F <= ||X (F X - 1) F||_F + delta (2 ||X||_2 ||F||_2 + delta + 1),

    by the triangle inequality on GE = (GX)F + G Delta, and on E^2 - E =
    X (F X - 1) F + X F Delta + Delta X F + Delta^2 - Delta.  Each bound
    exceeds its dense residual by at most twice its delta term, and holds
    over the whole matrices, so each check is at least as strict as a dense
    one; the bounds cost O(r D^2), against the D^3 of a dense product.

    When no generator couples two groups of algebra blocks, E splits along
    these uncoupled central summands: the SVDs and the group inverses run
    per summand, E holds exact zeros between summands, and each fixed-basis
    element lives in one summand.  Every check stays that of the whole
    matrices: kappa (of a block-diagonal inverse) is the maximum over
    summands, and the spectral rank must match the fixed-space dimension in
    each summand and in total.  ``gaps`` holds 1/kappa_i per generator, a
    lower bound on every nonzero |lambda(G_i)| (:func:`_group_inverse`).
    """
    action.require_commuting()
    algebra = action.algebra
    dim = algebra.dim
    parts = action._summands()
    conditions = [sub.conditions for _, sub in parts]
    joint = _null_spaces([np.vstack(c) for c in conditions], tol_fixed)
    # the basis is hermitian: x holds its real coordinates
    x = _fixed_columns(algebra, parts, joint)
    basis = _elements(algebra, x)
    if action.scheme.kind == "finite-group":
        pieces = [sum(sub.real) / sub.scheme.order for _, sub in parts]
        kappa = gaps = None
    else:
        # one generator: its null spaces are the joint ones
        each = [joint] if len(conditions[0]) == 1 else [
            _null_spaces(mats, tol_fixed) for mats in zip(*conditions)
        ]
        subs = [sub for _, sub in parts]
        pieces, kappas = zip(*map(_summand_projector, subs, conditions, zip(*each)))
        # the kappa of generator i over the whole block-diagonal matrices
        kappas = [max(k) for k in zip(*kappas)]
        kappa, gaps = max(kappas), tuple(1.0 / k for k in kappas)
    if len(parts) == 1:
        e = pieces[0]
    else:
        e = np.zeros((dim, dim))
        for (coords, _), piece in zip(parts, pieces):
            e[_square(coords)] = piece

    ranks = [int(round(np.trace(piece))) for piece in pieces]
    rank = sum(ranks)
    if rank != len(basis):
        raise MeanErgodicValidationError(
            f"spectral rank {rank} != fixed-space dimension {len(basis)}"
        )
    w = algebra.weight_vec
    if len(parts) > 1:
        # the basis elements that reach into each summand
        held = [int(np.any(x[coords] != 0, axis=0).sum()) for coords, _ in parts]
        if held != ranks:
            raise MeanErgodicValidationError(
                f"spectral ranks {ranks} != fixed-space dimensions {held} "
                f"per uncoupled summand"
            )
    # E = X F with X the fixed basis as columns and F = X^T W E, since
    # X X^T W is the tau-orthogonal projector onto the fixed space; this
    # holds only when range(E) is that space, not merely of its dimension
    f = x.T @ (w[:, None] * e)
    gens = conditions[0] if len(parts) == 1 else action.conditions
    residuals, factor_residual = _validated(action, gens, x, f, e)
    # tau(psi y) = F_i . y for y in the hermitian basis: psi_i is hermitian,
    # with the coordinates F_i / w
    cross = {"kappa": kappa, "kappa_bound": KAPPA_BOUND}
    sup = SuperOperator.from_hermitian(algebra, e, source="mean-ergodic-projection")
    dual_basis = _elements(algebra, (f / w).T)
    return MeanErgodicProjection(
        sup, basis, dual_basis, residuals, cross, rank, factor_residual, gaps
    )


def _summand_projector(sub, gens, nulls):
    """``(E, kappas)`` on the uncoupled summand ``sub``: the product of the
    projectors X (F X)^-1 F of the real generator conditions ``gens`` with
    their null spaces ``nulls``, and the kappa of each one's certificate."""
    e, kappas = None, []
    for g, (x, f) in zip(gens, nulls):
        # a singular F X (the cut null vectors meet the range of G) leaves a
        # P that is no projector, which the certificate or residuals refuse
        p = x @ np.linalg.pinv(f @ x) @ f
        kappas.append(_group_inverse(p, g, sub.algebra)[1])
        e = p if e is None else p @ e
    return e, kappas


def _group_inverse(p, g, algebra):
    """``(Z, kappa)``: Z = (P - G)^-1 by one LU, for a null-space projector
    P and G = S - 1 (L for a flow), real matrices in the hermitian basis of
    ``algebra``, and kappa = ||B Z B*||_1, the 1-norm of Z in vec
    coordinates, where ``KAPPA_BOUND`` is calibrated, read off the real
    entries of Z (:func:`~neveukit.algebra._vec_norm1`); raises
    :class:`MeanErgodicValidationError` when P - G is singular or kappa
    exceeds ``KAPPA_BOUND``.

    With G P = P G = 0 (the invariance residuals), P - G is invertible iff
    range P = ker G and ker P = range G, i.e. iff P is the mean ergodic
    projection.  Z - P is then the group inverse of -G, and for G = S - 1
    the averages obey A_a - P = (1/a)(1 - S^a)(Z - P).

    The gap lemma: 1/kappa is a lower bound on every nonzero |lambda| of G.
    If G v = lambda v with lambda != 0, then v = G v / lambda lies in
    range G = ker P, so P v = 0 and (P - G) v = -lambda v, i.e.
    Z v = -v / lambda; hence 1/|lambda| <= ||Z|| in any induced norm, and
    |lambda| >= 1/kappa in the vec-coordinate 1-norm (B is unitary, so G
    has the same eigenvalues in both bases).
    """
    try:
        z = np.linalg.inv(p - g)
    except np.linalg.LinAlgError:
        raise MeanErgodicValidationError(
            "E - G is singular: the projector is not the spectral one"
        ) from None
    kappa = _vec_norm1(algebra, z)
    if not kappa <= KAPPA_BOUND:
        raise MeanErgodicValidationError(
            f"group-inverse certificate: ||(E - G)^-1||_1 = {kappa:.3e} "
            f"above {KAPPA_BOUND:.3e}"
        )
    return z, kappa


def _residual_bounds(action, gens, x, f, delta):
    """Upper bounds on the Frobenius residuals ``idempotency``
    (||E^2 - E||) and ``invariance`` (the largest ||G E|| and ||E G|| over
    the whole generator conditions ``gens``, each over the scale of its
    generator, max(1, ||L||_2) for a flow) of E = X F + Delta with
    ||Delta||_F = ``delta``, from the fixed basis columns ``x`` and the
    pairing rows ``f`` alone (see :func:`mean_ergodic_projection`).  Each
    ||A M||_F of a tall A and a wide M is ||R M||_F with R the triangular
    factor of a thin QR of A, so no Gram matrix squares a condition number.
    The scales are ``action._scales()``, all 1 for steps."""
    fro, qr = np.linalg.norm, lambda a: np.linalg.qr(a, mode="r")
    rx = qr(x)
    spread = delta + 1.0
    if x.shape[1]:
        # the spectral norms, which for one column or row are the Frobenius
        # ones, taken without an SVD
        norm2 = 2 if x.shape[1] > 1 else None
        spread += 2.0 * fro(rx, norm2) * fro(f, norm2)
    residuals = {
        "idempotency": float(
            fro(rx @ (f @ x - np.eye(x.shape[1])) @ f) + delta * spread
        )
    }
    # the flow scale stays spectral, since a larger divisor would loosen the
    # checks
    inv = 0.0
    for g, scale in zip(gens, action._scales()):
        slack = fro(g) * delta
        left = fro(qr(g @ x) @ f) + slack
        right = fro(rx @ (f @ g)) + slack
        inv = max(inv, left / scale, right / scale)
    residuals["invariance"] = float(inv)
    return residuals


def _validated(action, gens, x, f, e):
    """``(residuals, factor_residual)`` of E = ``e`` with the fixed basis
    columns ``x`` and the pairing rows ``f``: the bounds of
    :func:`_residual_bounds` and ||X F - E||_F; raises
    :class:`MeanErgodicValidationError` when any is above 1e-9, naming the
    residual bounds first."""
    delta = float(np.linalg.norm(x @ f - e, "fro"))
    residuals = _residual_bounds(action, gens, x, f, delta)
    bad = {k: v for k, v in residuals.items() if v > PROJECTION_RESIDUAL_TOL}
    errors = [f"projector residuals above 1e-9: {bad}"] if bad else []
    if delta > PROJECTION_RESIDUAL_TOL:
        errors.append(
            f"range of the projector is not the fixed space: ||X F - E|| = {delta:.3e}"
        )
    if errors:
        raise MeanErgodicValidationError("; ".join(errors))
    return residuals, delta


def _dual_projection(proj, heis):
    """The mean ergodic projection of the observable-picture action
    ``heis``, read off the validated projection ``proj`` of its density
    picture instead of computed a second time.

    E_h = dual(E) acts as E_h(b) = sum_i tau(x_i b) psi_i, so the psi_i of
    ``proj`` span its range and its x_i are the functionals that E_h
    conserves.  With L L^T the Cholesky factorisation of the Gram matrix of
    the psi_i, in the hermitian basis where all of them are real, the fixed
    basis Psi L^-T is tau-orthonormal and the dual basis X L pairs with it
    to the identity; both take the signs of :func:`_sign_gauge`.  The
    certificate and the gaps are those of ``proj`` (G and its dual have one
    spectrum).  E_h = W^-1 E^T W is formed in the hermitian basis alone;
    its residual bounds and its factor residual are measured again, in the
    observable picture, on these factors and the generator conditions of
    ``heis``, and raise as in :func:`mean_ergodic_projection`.
    """
    sup = dual(proj.superop)
    algebra = heis.algebra
    w = algebra.weight_vec
    r = len(proj.dual_basis)
    # the bases built here are hermitian: their coordinates are real
    cols = _to_hermitian(algebra, _vecs(algebra, proj.dual_basis + proj.fixed_basis).T).real
    fixed, chol = _sign_gauge(algebra, *_tau_orthonormal(cols[:, :r], w))
    conserved = cols[:, r:] @ chol
    # tau(c y) = (w c) . y for a hermitian c and y in the hermitian basis
    f = (w[:, None] * conserved).T
    gens = heis.conditions
    residuals, factor_residual = _validated(heis, gens, fixed, f, sup.hermitian())
    elements = _elements(algebra, np.hstack([fixed, conserved]))
    return MeanErgodicProjection(
        sup, elements[:r], elements[r:], residuals, dict(proj.cross_validation),
        proj.rank, factor_residual, proj.gaps,
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
    """max ||G Y||_1 / scale over the generator conditions G and their scales
    (``_scales``), in the hermitian basis, where the hermitian Y is real."""
    algebra = schr.algebra
    coords = _to_hermitian(algebra, y.vec()).real
    dev = 0.0
    for g, scale in zip(schr.conditions, schr._scales()):
        moved = algebra.from_vec(_to_vec(algebra, g @ coords))
        dev = max(dev, trace_norm(moved) / scale)
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
    action.scheme.side(schedule[0])  # the ascending schedule's first index, checked
    if op_norm(x) == 0.0:
        return WanderingCertificate([], 0.0, None, "pass", {"note": "zero element"})
    avgs = _average_stacks(action.to_picture("heisenberg"), x, schedule)
    points = list(zip(schedule, _max_norms(avgs)))
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
    invariant density Y (zero projection when no invariant density exists),
    e2 = 1 - e1, the wandering witness x0 = e2 with its finite-schedule decay
    certificate, and the verdicts ``decay``, ``invariance`` (of Y) and
    ``wandering`` (E_h(e2) = 0 for the observable-picture projection E_h).
    A candidate density that is not invariant is reported by the
    ``invariance`` verdict, not raised.  ``detail["support_margin"]`` holds
    the cutoff of :func:`support` on Y with the smallest kept and the largest
    dropped eigenvalue (None when Y is faithful); it is None without Y.
    ``projection`` is a precomputed mean ergodic projection of the density
    picture, in place of ``tol_fixed``, as a scenario run passes its own;
    ``wandering`` reads E_h(e2) = sum_i tau(x_i e2) psi_i off its factors.
    A derived picture gives back its source, so a run that passes its
    density picture builds no action here.  ``seed`` has no effect.
    """
    schr = action.to_picture("schrodinger")
    proj = projection or mean_ergodic_projection(schr, tol_fixed=tol_fixed)
    algebra = schr.algebra
    y, inv_defect = _invariant_density(schr, None, proj)
    detail = {
        "mean_residuals": proj.residuals,
        "cross_validation": proj.cross_validation,
        "fixed_rank": proj.rank,
    }

    if y is None:
        e1 = Projection.from_eigvecs(algebra, [None] * algebra.n_blocks)
        detail["support_margin"] = None
    else:
        e1 = support(y)
        detail["support_margin"] = _support_margin(y)
    e2 = e1.complement()
    x0 = e2
    detail["invariance_defect"] = float(inv_defect)

    cert = weakly_wandering_certificate(action, x0, schedule=schedule, decay_tol=decay_tol)

    verdicts = {"decay": cert.verdict}
    invariant = y is None or inv_defect <= _invariance_bound(y)
    verdicts["invariance"] = "pass" if invariant else "fail"

    # the observable-picture mean projection must annihilate e2: with e2
    # hermitian, tau(x e2) = sum_u w_u x_u conj(e2_u) in vec coordinates
    xs, psis = _vecs(algebra, proj.fixed_basis), _vecs(algebra, proj.dual_basis)
    mean_e2 = (xs @ (algebra.weight_vec * e2.vec().conj())) @ psis
    wander_norm = op_norm(algebra.from_vec(mean_e2))
    verdicts["wandering"] = "pass" if wander_norm <= PROJECTION_RESIDUAL_TOL else "fail"
    detail["mean_of_e2_norm"] = float(wander_norm)

    return NeveuDecomposition(
        algebra, e1, e2, y, x0, cert, verdicts, detail, proj.superop
    )


def _support_margin(y):
    """The cutoff of :func:`support` on Y with the smallest eigenvalue kept
    and the largest dropped (or None), read off the eigh() cached on Y."""
    eigs = y.eigh()
    lam = np.concatenate([lam for lam, _ in eigs])
    cutoff = _support_cutoff(eigs)
    dropped = lam[lam <= cutoff]
    return {
        "cutoff": float(cutoff),
        "kept_min": float(lam[lam > cutoff].min()),
        "dropped_max": float(dropped.max()) if dropped.size else None,
    }
