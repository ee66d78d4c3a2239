"""Semigroup actions and their Foelner-scheme ergodic averages.

Supported index semigroups and their Foelner sets K_a:

* ``zplus-box``        Z_+^d with K_a = {0, ..., a-1}^d
* ``z-symmetric-box``  Z^d   with K_a = {-a, ..., a}^d (generators invertible)
* ``finite-group``     a finite group, K_a = the whole group for every a
* ``r-plus-cube``      R_+^d with K_a = [0, a)^d, one-parameter semigroups
                       exp(t L_i) described by commuting generator matrices

An axis moves in one of three ways: a power step S, a symmetric step S and
S^-1, or a flow exp(t L).  The per-axis facts live here alone, and no other
module reads a scheme kind but to branch off a finite group: the check of
the index a (:meth:`FolnerScheme.side`), the back steps and size of a box
window, (0, a) or (a, 2a + 1) (:meth:`FolnerScheme.window`), whether the
axes are flows, the generator conditions G = S - 1 or L
(``SemigroupAction.conditions``), and one flow scale max(1, ||L||_2) per
generator and picture (``SemigroupAction._scales``).

A_a is the product of the per-axis Cesaro means, so :func:`averages`,
:func:`average_super` and the hull orbit each loop one per-axis step over
the axes (:func:`_axis_means`, :func:`_axis_mean_matrix`,
:func:`_axis_orbit`); a finite group averages its element maps once.
:func:`averages` walks an ascending schedule with one running sum per box
axis: max(schedule) - 1 matvecs for d = 1 (63 on 1, 2, ..., 64, against 120
for a fresh sum per point), twice that for z-symmetric windows.  For d >= 2
only axis 0 is shared, as later axes act on a different vector per a.
:func:`average_super` builds each per-axis sum of powers by binary doubling
in O(d log a) D x D products; a scenario run builds none, and tests and
demos use them as oracles.  Summation order is fixed (ascending k for the
zplus matvecs, the bits of a for the doubling, then ascending axis) so
results are bitwise reproducible.  A flow mean (1/a) int_0^a exp(t L) dt B
is one block exponential (C. F. Van Loan, "Computing integrals involving
the matrix exponential", IEEE TAC 23(3), 1978), the top-right block of
expm(a [[L, B], [0, 0]]) / a, for B the hermitian-basis coordinates of x
(one or two real columns) or B = 1.

Every walk, flow average and averaging matrix is formed on the real
generator matrices of the action (``SemigroupAction.real``) and on the real
hermitian-basis coordinates of its input (see :mod:`neveukit.algebra`); the
results go back to vec coordinates, so a hermitian input has exactly
hermitian averages.  The exponential is the package's own :func:`_expm`,
scaling and squaring with Pade degrees 3 to 13 (A. H. Al-Mohy and N. J.
Higham, "A new scaling and squaring algorithm for the matrix exponential",
SIAM J. Matrix Anal. Appl. 31(3), 2009, Algorithm 5.1) with exact 1-norms
in place of its norm estimates.  It works on the matrix and never
diagonalises, so a defective generator needs no fallback, and no run
imports scipy.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .algebra import Operator, TracialAlgebra, _to_hermitian, _to_vec
from .maps import (
    CheckReport,
    PreconditionError,
    SuperOperator,
    _flow_contraction_report,
    _positive_contraction_report,
    _weight_ratio,
    check_commuting,
    check_contraction,
    check_lamperti,
    dual,
)

__all__ = [
    "FolnerScheme",
    "SemigroupAction",
    "folner_set",
    "folner_ratio",
    "average",
    "averages",
    "average_super",
]

SCHEME_KINDS = ("zplus-box", "z-symmetric-box", "finite-group", "r-plus-cube")
INVERSE_TOL = 1e-10
REPRESENTATION_TOL = 1e-10


@dataclass(frozen=True)
class FolnerScheme:
    """Which Foelner sequence indexes the averages."""

    kind: str
    d: int = 1
    order: int = None
    table: tuple = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "finite-group":
            if self.order is None or self.table is None:
                raise ValueError("finite-group scheme needs order and table")
            table = tuple(tuple(int(v) for v in row) for row in self.table)
            object.__setattr__(self, "table", table)
            object.__setattr__(self, "d", 1)
            n = self.order
            if len(table) != n or any(len(r) != n for r in table):
                raise ValueError("group table must be order x order")
            for g in range(n):
                if sorted(table[g]) != list(range(n)) or sorted(
                    table[r][g] for r in range(n)
                ) != list(range(n)):
                    raise ValueError("group table rows/columns must be permutations")
            if any(table[0][g] != g or table[g][0] != g for g in range(n)):
                raise ValueError("element 0 must act as the identity")
        else:
            if self.d < 1:
                raise ValueError("dimension d must be >= 1")

    @property
    def flow(self):
        """Whether the axes are flows exp(t L_i), t >= 0 (``r-plus-cube``)."""
        return self.kind == "r-plus-cube"

    def side(self, a):
        """The Foelner index ``a``, checked: a finite cube side > 0 (as a
        float) for flows, an integral number >= 1 otherwise (2.0 is 2); any
        other index raises ValueError naming it, and is never truncated."""
        whole = isinstance(a, numbers.Integral)
        if not (whole or math.isfinite(a)):
            raise ValueError(f"Foelner index a must be finite, got {a!r}")
        if self.flow:
            if a <= 0:
                raise ValueError(f"cube side a must be > 0, got {a!r}")
            return float(a)
        if not (whole or float(a).is_integer()):
            raise ValueError(f"Foelner index a must be an integer, got {a!r}")
        if a < 1:
            raise ValueError(f"Foelner index a must be >= 1, got {a!r}")
        return int(a)

    def window(self, a):
        """``(back, size)`` of a box axis at the index ``a``: its window is
        k = -back, ..., size - back - 1, so (0, a) for ``zplus-box`` and
        (a, 2a + 1) for ``z-symmetric-box``."""
        a = self.side(a)
        return (a, 2 * a + 1) if self.kind == "z-symmetric-box" else (0, a)


def folner_set(scheme, a):
    """Enumerate K_a (boxes, groups) or describe it (continuous cubes)."""
    a = scheme.side(a)
    if scheme.flow:
        return {"kind": "cube", "d": scheme.d, "side": a}
    if scheme.kind == "finite-group":
        return list(range(scheme.order))
    back, size = scheme.window(a)
    return list(itertools.product(range(-back, size - back), repeat=scheme.d))


def folner_ratio(scheme, a, g):
    """Exact |K_a Delta K_a g| / |K_a| for a generator step g.

    ``g`` is an axis index (one unit step along that axis); for
    ``r-plus-cube`` it may also be ``(axis, t)`` for a shift by t >= 0.
    Finite groups are exactly invariant, so the ratio is 0.
    """
    if scheme.kind == "finite-group":
        return 0.0
    g, t = (g[0], float(g[1])) if scheme.flow and isinstance(g, tuple) else (g, 1.0)
    if not 0 <= g < scheme.d:
        raise ValueError(f"axis {g} out of range")
    if t < 0:
        raise ValueError("shift t must be >= 0")
    # the shifted window drops one slab of width t and adds another
    size = scheme.side(a) if scheme.flow else scheme.window(a)[1]
    return 2.0 * min(t, size) / size


class GeneratorError(ValueError):
    """A generator refused at construction; ``index`` is its position."""

    def __init__(self, index, message):
        super().__init__(f"generators[{index}]: {message}")
        self.index = index


def _real_generator(index, s):
    """The real hermitian-basis matrix of the map ``s``, generator
    ``index``."""
    try:
        return s.real_hermitian()
    except ValueError as exc:
        raise GeneratorError(index, str(exc)) from None


def _real_inverse(index, m):
    """The inverse of the real generator matrix ``m``, generator ``index``."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise GeneratorError(index, "z-symmetric-box generators must be invertible") from None
    if np.linalg.norm(m @ inv - np.eye(len(m)), 2) > INVERSE_TOL:
        raise GeneratorError(index, "generator inverse residual above 1e-10")
    return inv


class SemigroupAction:
    """A commuting family of positive contractions indexed by a scheme.

    ``picture`` records whether the maps act on observables ("heisenberg",
    operator-norm contractions) or on densities ("schrodinger", L1
    contractions).  Structural checks run at construction and are stored,
    not raised: operations that need a property guard on it explicitly, so
    that a scenario with a broken action still produces a report.

    ``generators`` holds :class:`SuperOperator`s, for an ``r-plus-cube``
    scheme the flow generators L_i (source ``"flow-generator"``, no
    attestations).  ``real`` holds their matrices in the hermitian basis of
    :mod:`neveukit.algebra`, the very arrays the generators hold, and
    ``real_inverses`` the z-symmetric inverses: each generator must map
    self-adjoint elements to self-adjoint ones, so these are real up to
    rounding, and a larger imaginary part is refused with a
    :class:`GeneratorError`.  The checks, the averages, the mean projection
    and the spectra run on them; ``matrices`` and ``inverses``, the same
    maps in vec coordinates, are formed on each read.

    The construction checks run in ``__init__`` only: the other picture
    (:meth:`dual`) and the uncoupled summands (:meth:`_summands`, cached
    with the Lamperti reports) share ``checks``.
    A scenario run shares its derived work through a run context instead.
    The generators are not meant to change after construction.
    """

    def __init__(self, algebra, picture, scheme, generators):
        if picture not in ("heisenberg", "schrodinger"):
            raise ValueError(f"unknown picture {picture!r}")
        gens = list(generators)
        if scheme.flow:
            gens = [SuperOperator(algebra, L, source="flow-generator") for L in gens]
        for s in gens:
            if not isinstance(s, SuperOperator) or s.algebra != algebra:
                raise ValueError("generators must be SuperOperators on the algebra")
        expected = scheme.order if scheme.kind == "finite-group" else scheme.d
        if len(gens) != expected:
            raise ValueError(f"need {expected} generators, got {len(gens)}")
        real = [_real_generator(i, s) for i, s in enumerate(gens)]
        invs = None
        if scheme.kind == "z-symmetric-box":
            invs = tuple(_real_inverse(i, m) for i, m in enumerate(real))
        self._set(algebra, picture, scheme, gens, real, invs, {})

        if scheme.kind == "finite-group":
            self.checks["representation"] = self._check_representation()
        else:
            self.checks["commuting"] = check_commuting(self.generators)
        self.checks["contraction"] = self._check_contractions()

    def _set(self, algebra, picture, scheme, gens, real, invs, checks, parts=None, origin=None):
        """Set every field: ``__init__``, :meth:`dual` and :meth:`_restricted` come here."""
        self.algebra, self.picture, self.scheme = algebra, picture, scheme
        self.generators = tuple(gens)
        self.real, self.real_inverses, self._origin = tuple(real), invs, origin
        self.checks = checks
        self._lamperti = None
        self._parts, self._scale = parts, None

    @property
    def matrices(self):
        """The vec-coordinate matrices of the generators, formed on each read."""
        return tuple(s.matrix for s in self.generators)

    @property
    def inverses(self):
        """The z-symmetric inverses in vec coordinates, formed on each read
        (``None`` for other schemes)."""
        if self.real_inverses is None:
            return None
        return tuple(_to_vec(self.algebra, m, matrix=True) for m in self.real_inverses)

    @property
    def conditions(self):
        """The generator conditions G = S - 1 (L for a flow), the real
        matrices whose joint kernel is the fixed space, formed on each read;
        a finite group drops element 0, the identity, unless it is alone."""
        if self.scheme.flow:
            return list(self.real)
        eye = np.eye(self.algebra.dim)
        mats = self.real[1:] if self.scheme.kind == "finite-group" else self.real
        return [m - eye for m in mats or self.real]

    # -- construction-time checks ------------------------------------------

    def _check_representation(self):
        n = self.scheme.order
        worst = 0.0
        witness = None
        for g in range(n):
            for h in range(n):
                k = self.scheme.table[g][h]
                dev = np.linalg.norm(self.real[g] @ self.real[h] - self.real[k], 2)
                if dev > worst:
                    worst, witness = dev, (g, h)
        verdict = "pass" if worst <= REPRESENTATION_TOL else "fail"
        return CheckReport(
            "representation", verdict, witness=witness, detail={"max_deviation": worst}
        )

    def _check_contractions(self):
        """check_contraction in the observable picture; a certified positive
        density-picture S is judged by dual(S)(1), the density of
        y -> tau(S(y)), read off W^-1 R^T W applied to the coordinates of 1
        (R the real matrix of S, W the trace weights) with no dual of S.  A
        flow generator L is judged by L_h(1), read the same way
        (:func:`~neveukit.maps._flow_contraction_report`); when every flow
        generator passes, the detail keeps their ``max_eigenvalue_of_unit_image``
        and ``generator_scale`` as lists in generator order."""
        reports, algebra, w = [], self.algebra, self.algebra.weight_vec
        flow, one = self.scheme.flow, self.algebra.identity()
        ones = _to_hermitian(algebra, one.vec()).real
        margins = {"max_eigenvalue_of_unit_image": [], "generator_scale": []}
        for idx, (s, r, scale) in enumerate(zip(self.generators, self.real, self._scales())):
            if self.picture == "heisenberg":
                rep = _flow_contraction_report(s(one), scale) if flow else check_contraction(s)
            elif flow or s.positivity_certified:
                unit = algebra.from_vec(_to_vec(algebra, r.T @ (w * ones) / w))
                rep = (_flow_contraction_report(unit, scale) if flow
                       else _positive_contraction_report(unit))
            else:
                rep = check_contraction(dual(s))
            reports.append((idx, rep.verdict))
            if rep.verdict == "fail":
                return CheckReport(
                    "contraction",
                    "fail",
                    witness=(idx,),
                    detail={"per_generator": reports, **rep.detail},
                )
            if flow:
                for key, values in margins.items():
                    values.append(rep.detail[key])
        verdicts = {v for _, v in reports}
        verdict = "pass" if verdicts == {"pass"} else "unknown"
        detail = {"per_generator": reports, **(margins if flow else {})}
        return CheckReport("contraction", verdict, detail=detail)

    # -- guards --------------------------------------------------------------

    def require_commuting(self):
        rep = self.checks.get("commuting")
        if rep is not None and not rep.passed:
            raise PreconditionError(
                f"generators do not commute (max commutator {rep.detail['max_commutator_norm']:.3e})"
            )
        rep = self.checks.get("representation")
        if rep is not None and not rep.passed:
            raise PreconditionError("finite-group maps do not satisfy the table")

    # -- pictures --------------------------------------------------------------

    def dual(self):
        """The same dynamics in the other picture.

        An action derived here gives back its source (a back-reference from
        the derived action only, so no cycle); any other derives a new one.

        Each generator becomes its dual (:func:`neveukit.maps.dual`), which
        forms the real matrix W^-1 R^T W from this action's R (W the trace
        weights); the z-symmetric inverses follow by the same rule, with no
        second inversion.  No check runs again: the result shares ``checks``,
        which duality carries over.  Maps commute iff their duals do, the
        duals of a group representation represent the opposite group (whose
        table is the transpose), and a positive map contracts the operator
        norm iff its dual contracts L1.  So a shared verdict can differ from
        a recomputed one only for a deviation within a factor max w / min w
        of a check tolerance.
        """
        if self._origin is not None:
            return self._origin
        picture = "schrodinger" if self.picture == "heisenberg" else "heisenberg"
        scheme = self.scheme
        if scheme.kind == "finite-group":
            table_op = tuple(zip(*scheme.table))
            scheme = FolnerScheme("finite-group", order=scheme.order, table=table_op)
        gens = [dual(s) for s in self.generators]
        invs = self.real_inverses
        if invs is not None:
            ratio = _weight_ratio(self.algebra)
            invs = tuple(m.T * ratio for m in invs)
        out = object.__new__(SemigroupAction)
        out._set(
            self.algebra, picture, scheme, gens,
            [_real_generator(i, s) for i, s in enumerate(gens)], invs, self.checks,
            origin=self,
        )
        return out

    def to_picture(self, picture):
        return self if picture == self.picture else self.dual()

    # -- central summands ------------------------------------------------------

    def _summands(self):
        """The action split along its uncoupled central summands.

        A summand is a group of algebra blocks that no real generator matrix
        (nor a z-symmetric inverse) couples to the other blocks (B is block
        diagonal, so these are the blocks that the vec matrices couple, save
        for an imaginary part at rounding that the real ones drop): union-find over
        the off-diagonal block pairs holding any nonzero entry, with no
        tolerance, so an entry of 1e-300 still couples.  Returns one
        ``(coords, sub)`` pair per summand, in the order of its first block:
        its vec coordinates (a slice where its blocks are contiguous, an
        index array otherwise; index with :func:`_square`) and the action
        restricted to it.  A restriction shares this action's construction
        checks and runs none.  An action with one summand gives
        ``[(slice(None), self)]``, so callers run on its whole matrices.
        Scanned once and cached, one summand as ``[]`` so that the action
        holds no reference to itself.
        """
        if self._parts is None:
            self._parts = self._scan_summands()
        return self._parts or [(slice(None), self)]

    def _scales(self):
        """The scale of each generator, cached: 1 for a step, max(1, ||L||_2)
        for a flow L, with ||L||_2 the largest spectral norm of its pieces on
        the uncoupled summands (that of the block-diagonal whole)."""
        if self._scale is None:
            self._scale = (1.0,) * len(self.real)
            if self.scheme.flow:
                pieces = zip(*(sub.real for _, sub in self._summands()))
                norms = [[float(np.linalg.norm(p, 2)) for p in ps] for ps in pieces]
                self._scale = tuple(max(1.0, *n) for n in norms)
        return self._scale

    def _scan_summands(self):
        """The summands of :meth:`_summands`, or ``[]`` for one."""
        if self.algebra.n_blocks == 1:
            return []
        offsets = self.algebra._offsets
        root = list(range(self.algebra.n_blocks))

        def find(b):
            while root[b] != b:
                b = root[b]
            return b

        for m in self.real + (self.real_inverses or ()):
            pairs = np.logical_or.reduceat(m != 0, offsets[:-1], axis=0)
            pairs = np.logical_or.reduceat(pairs, offsets[:-1], axis=1)
            for b, c in zip(*np.nonzero(pairs)):
                rb, rc = find(b), find(c)
                root[max(rb, rc)] = min(rb, rc)
        groups = {}
        for b in range(len(root)):
            groups.setdefault(find(b), []).append(b)
        if len(groups) == 1:
            return []
        out = []
        for blocks in groups.values():
            if blocks[-1] - blocks[0] == len(blocks) - 1:
                coords = slice(offsets[blocks[0]], offsets[blocks[-1] + 1])
            else:
                coords = np.concatenate(
                    [np.arange(offsets[b], offsets[b + 1]) for b in blocks]
                )
            out.append((coords, self._restricted(blocks, coords)))
        return out

    def _restricted(self, blocks, coords):
        """This action on the summand of ``blocks`` at vec ``coords``."""
        algebra = TracialAlgebra(
            [self.algebra.blocks[b] for b in blocks],
            [self.algebra.weights[b] for b in blocks],
        )
        square = _square(coords)
        invs = self.real_inverses
        real = [m[square] for m in self.real]
        gens = [SuperOperator.from_hermitian(algebra, m) for m in real]
        sub = object.__new__(SemigroupAction)
        # a summand's blocks are coupled: it has one summand
        sub._set(
            algebra, self.picture, self.scheme, gens, real,
            None if invs is None else tuple(m[square] for m in invs),
            self.checks, parts=[],
        )
        return sub

    # -- Lamperti attestation ----------------------------------------------

    def lamperti_reports(self, trials=8, seed=11):
        """check_lamperti on every predual (L1-picture) map; cached."""
        if self._lamperti is None:
            if self.scheme.flow:
                raise PreconditionError(
                    "Lamperti attestation of a continuous flow is not supported; "
                    "attest the time-1 maps instead"
                )
            maps = self.to_picture("schrodinger").generators
            self._lamperti = tuple(
                check_lamperti(m, trials=trials, seed=seed + 7 * i)
                for i, m in enumerate(maps)
            )
        return self._lamperti

    def lamperti_attested(self):
        if self._lamperti is None:
            return False
        return all(r.passed for r in self._lamperti)

    def __repr__(self):
        return (
            f"SemigroupAction(picture={self.picture!r}, scheme={self.scheme.kind!r}, "
            f"d={self.scheme.d})"
        )


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def _square(coords):
    """The index of the square sub-matrix on the vec ``coords`` of a summand:
    a view for a slice, a copy (or a scattered write) for an index array."""
    if isinstance(coords, slice):
        return coords, coords
    return np.ix_(coords, coords)


def _ascending(schedule):
    """The schedule as a list, checked nonempty and strictly ascending."""
    schedule = list(schedule)
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be nonempty and strictly ascending")
    return schedule


def _axis_means(action, axis, v, schedule):
    """The Cesaro means along ``axis`` of the real hermitian-basis
    coordinates v (one vector or columns) for every a of a checked ascending
    schedule: one running sum over the window of a box axis (S^k v, then
    S^-k v on a symmetric window, for k = 1, 2, ...), or one block
    exponential per a on a flow axis."""
    s = action.real[axis]
    if action.scheme.flow:
        return [_flow_mean(s, v.reshape(len(v), -1), a) for a in schedule]
    acc, lo, hi, top = v.copy(), v, v, 0
    means = []
    for a in schedule:
        back, size = action.scheme.window(a)
        while top < size - back - 1:
            top += 1
            hi = s @ hi
            acc += hi
            if back:
                lo = action.real_inverses[axis] @ lo
                acc += lo
        means.append(acc / size)
    return means


def _axis_mean_matrix(action, axis, a, b=None):
    """The Cesaro mean along ``axis`` at a checked ``a`` as a real
    hermitian-basis matrix, applied from the left to ``b`` unless b is None:
    S^-back sum_{k < size} S^k / size on a box axis, by doubling."""
    s = action.real[axis]
    if action.scheme.flow:
        return _flow_mean(s, np.eye(len(s)) if b is None else b, a)
    back, size = action.scheme.window(a)
    total = _power_sum(s, size)
    if back:
        total = np.linalg.matrix_power(action.real_inverses[axis], back) @ total
    mean = total / size
    return mean if b is None else mean @ b


def _axis_orbit(action, axis, cols, a):
    """The orbit points along ``axis`` at a checked ``a`` of each column c
    of ``cols``, column by column: S^k c for k = -back, ..., a on a box
    axis, exp(t L) c on a 17-point grid of t in [0, a] on a flow axis."""
    s = action.real[axis]
    if action.scheme.flow:
        flows = [_expm(t * s) for t in np.linspace(0.0, a, 17)]
        return [f @ c for c in cols for f in flows]
    back, _ = action.scheme.window(a)
    out = []
    for c in cols:
        for _ in range(back):
            c = action.real_inverses[axis] @ c
        out.append(c)
        for _ in range(a + back):
            c = s @ c
            out.append(c)
    return out


def _power_sum(s, n):
    """sum_{k<n} S^k for a square matrix S, by doubling.

    Reads the bits of n from the top: a 0 bit doubles m (the sum becomes
    (1 + S^m) sum_{k<m} S^k), a 1 bit doubles and then appends S^m.  That
    takes O(log n) matrix products instead of the n - 1 of the literal sum.
    """
    total = np.eye(s.shape[0], dtype=s.dtype)
    power = s
    for bit in bin(int(n))[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = s @ power
    return total


def average(action, x, a):
    """The ergodic average A_a(x) over the scheme's Foelner set."""
    return averages(action, x, [a])[0]


def averages(action, x, schedule):
    """The ergodic averages A_a(x) for every a of a strictly ascending
    schedule, one axis after another (:func:`_walk`)."""
    stacks = _average_stacks(action, x, schedule)
    return [action.algebra.operator(mats) for mats in zip(*stacks)]


def _average_stacks(action, x, schedule):
    """:func:`averages` as one (k, n, n) stack per block: slice j of block b
    is block b of A_a(x) for the j-th a of the schedule.

    The walk runs on the real hermitian-basis coordinates of x: one vector
    when x is hermitian (its coordinates have no imaginary part), else the
    coordinates of its hermitian and anti-hermitian parts as two columns.
    The k results go back to vec coordinates in one step, and each slice is
    a reshaped view of them.
    """
    if not isinstance(x, Operator) or x.algebra != action.algebra:
        raise ValueError("element is not in the action's algebra")
    schedule = _ascending(schedule)
    algebra = action.algebra
    r = _to_hermitian(algebra, x.vec())
    v = np.column_stack([r.real, r.imag]) if r.imag.any() else r.real
    means = np.stack(_walk(action, v, schedule), axis=1)
    means = means.reshape(algebra.dim, len(schedule), -1)
    means = means[..., 0] + 1j * means[..., 1] if means.shape[2] == 2 else means[..., 0]
    return algebra._stacks(_to_vec(algebra, means).T)


def _walk(action, v, schedule):
    """The averages of :func:`averages` for the real hermitian-basis
    coordinates v (one vector or columns) of x."""
    schedule = [action.scheme.side(a) for a in schedule]
    action.require_commuting()
    if action.scheme.kind == "finite-group":
        return [sum(m @ v for m in action.real) / action.scheme.order] * len(schedule)
    vecs = _axis_means(action, 0, v, schedule)
    for axis in range(1, action.scheme.d):
        vecs = [_axis_means(action, axis, w, [a])[0] for w, a in zip(vecs, schedule)]
    return vecs


def average_super(action, a):
    """The averaging operator A_a as a SuperOperator (usable in either
    picture), formed on the real generator matrices."""
    a = action.scheme.side(a)
    action.require_commuting()
    if action.scheme.kind == "finite-group":
        mat = sum(action.real) / action.scheme.order
    else:
        mat = None
        for axis in range(action.scheme.d):
            mat = _axis_mean_matrix(action, axis, a, mat)
    return SuperOperator.from_hermitian(action.algebra, mat, source="composite")


def _flow_mean(L, b, a):
    """(1/a) int_0^a exp(t L) dt applied to the columns of b, real
    hermitian-basis coordinates: the top-right block of expm(a [[L, b],
    [0, 0]]) / a."""
    dim = len(L)
    aug = np.zeros((dim + b.shape[1],) * 2)
    aug[:dim, :dim], aug[:dim, dim:] = L, b
    return _expm(a * aug)[:dim, dim:] / a


def continuous_average_super(action, a):
    """The vec-coordinate matrix of (1/a^d) int_{[0,a]^d} exp(sum t_i L_i) dt."""
    if not action.scheme.flow:
        raise ValueError("continuous averages require an r-plus-cube scheme")
    return average_super(action, a).matrix


# the [m/m] Pade approximant r_m of exp keeps its backward error below
# u = 2^-53 where the d_k of :func:`_expm` are at most theta_m; r_m has the
# coefficients b_j = (2m - j)! / (j! (m - j)!), and its error series starts
# at c x^(2m+1) with 1 / |c| = (2m)! (2m + 1)! / m!^2
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
_PADE = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
             for j in range(m + 1)] for m in _THETA}
_ERR_COEF = {m: float(math.factorial(2 * m) * math.factorial(2 * m + 1) // math.factorial(m) ** 2)
             for m in _THETA}


def _ell(a, m):
    """Squarings to add so that r_m keeps its backward error at u; the 1-norm
    of (|a|)^(2m+1) is the largest entry of 1^T |a|^(2m+1), walked on |a| / ||a||_1."""
    norm = np.abs(a).sum(axis=0).max()
    scaled, v = np.abs(a) / (norm or 1.0), np.ones(len(a))
    for _ in range(2 * m + 1):
        v = v @ scaled
    if v.max() == 0:
        return 0
    # log2(alpha / u) with alpha = |c| ||(|a|)^(2m+1)||_1 / ||a||_1
    log2_ratio = np.log2(v.max()) + 2 * m * np.log2(norm) - np.log2(_ERR_COEF[m]) + 53
    return max(int(np.ceil(log2_ratio / (2 * m))), 0)


def _pade(a, powers, m, s):
    """r_m(2^-s a) from the even powers of a."""
    b, ks = _PADE[m], ((2, 4, 6) if m == 13 else range(2, m, 2))
    p = [np.eye(len(a), dtype=a.dtype)] + [powers[k] * 0.5 ** (k * s) for k in ks]
    u = sum(b[2 * j + 1] * x for j, x in enumerate(p))
    v = sum(b[2 * j] * x for j, x in enumerate(p))
    if m == 13:
        u = p[3] @ (b[13] * p[3] + b[11] * p[2] + b[9] * p[1]) + u
        v = p[3] @ (b[12] * p[3] + b[10] * p[2] + b[8] * p[1]) + v
    u = (a * 0.5 ** s) @ u
    return np.linalg.solve(v - u, v + u)


def _expm(a):
    """exp(a) of a square array: Al-Mohy and Higham 2009, Algorithm 5.1.

    The Pade degree m and the scaling 2^-s come from the exact 1-norms
    d_k = ||a^k||_1^(1/k) of the even powers a^4, a^6, a^8 and a^4 a^6, each
    formed on first use, and from the backward-error squarings :func:`_ell`;
    one solve gives r_m(2^-s a), and s squarings its 2^s-th power.
    """
    a = np.asarray(a)
    if a.shape == (1, 1):
        return np.exp(a)
    powers, d = {2: a @ a}, {}

    def eta(*ks):
        for k in ks:
            if k not in d:
                powers[k] = powers[2] @ powers[2] if k == 4 else powers[4] @ powers[k - 4]
                d[k] = np.abs(powers[k]).sum(axis=0).max() ** (1 / k)
        return max(d[k] for k in ks)

    for m, ks in ((3, (4, 6)), (5, (4, 6)), (7, (6, 8)), (9, (6, 8))):
        if eta(*ks) <= _THETA[m] and _ell(a, m) == 0:
            return _pade(a, powers, m, 0)
    eta5 = min(eta(6, 8), eta(8, 10))
    s = max(int(np.ceil(np.log2(eta5 / _THETA[13]))), 0) if eta5 > 0 else 0
    s += _ell(a * 0.5 ** s, 13)
    x = _pade(a, powers, 13, s)
    for _ in range(s):
        x = x @ x
    return x
