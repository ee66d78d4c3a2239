"""Semigroup actions and their Foelner-scheme ergodic averages.

Supported index semigroups and their Foelner sets K_a:

* ``zplus-box``        Z_+^d with K_a = {0, ..., a-1}^d
* ``z-symmetric-box``  Z^d   with K_a = {-a, ..., a}^d (generators invertible)
* ``finite-group``     a finite group, K_a = the whole group for every a
* ``r-plus-cube``      R_+^d with K_a = [0, a)^d, one-parameter semigroups
                       exp(t L_i) described by commuting generator matrices

For the box schemes the average over K_a factors into a product of
per-axis Cesaro means,

    A_a = prod_i (1/a) sum_{k<a} Gamma_i^k,

so :func:`averages` walks an ascending schedule with one running sum per
axis: max(schedule) - 1 matvecs for d = 1 (63 on 1, 2, ..., 64, against 120
for a fresh sum per point), twice that for z-symmetric windows.  For d >= 2
only axis 0 is shared, as later axes act on a different vector per a.
:func:`average_super` builds each per-axis sum of powers by binary doubling
in O(d log a) D x D products; on zplus-box one walk serves several sizes
(A_16, then A_64 with two more doublings).  Summation order is fixed
(ascending k for the zplus matvecs, the bits of a for the doubling, then
ascending axis) so results are bitwise reproducible.  Brute-force
cross-checks over small boxes and against the literal sums live in the
test-suite.

Flow averages factor the same way, A_a = prod_i (1/a) int_0^a exp(t L_i) dt,
and each factor is one block exponential (C. F. Van Loan, "Computing
integrals involving the matrix exponential", IEEE TAC 23(3), 1978): the
top-right block of expm(a [[L_i, B], [0, 0]]) is int_0^a exp(t L_i) dt B.
:func:`averages` takes B = vec(x), a single column, and :func:`average_super`
takes B = 1.  ``scipy.linalg.expm`` handles defective generators directly,
so no generator needs a fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .algebra import Operator, TracialAlgebra
from .maps import (
    CheckReport,
    PreconditionError,
    SuperOperator,
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


def folner_set(scheme, a):
    """Enumerate K_a (boxes, groups) or describe it (continuous cubes)."""
    if scheme.kind == "r-plus-cube":
        if a <= 0:
            raise ValueError("cube side must be > 0")
        return {"kind": "cube", "d": scheme.d, "side": float(a)}
    a = int(a)
    if a < 1:
        raise ValueError("Foelner index a must be >= 1")
    if scheme.kind == "zplus-box":
        return list(itertools.product(range(a), repeat=scheme.d))
    if scheme.kind == "z-symmetric-box":
        return list(itertools.product(range(-a, a + 1), repeat=scheme.d))
    return list(range(scheme.order))


def folner_ratio(scheme, a, g):
    """Exact |K_a Delta K_a g| / |K_a| for a generator step g.

    ``g`` is an axis index (one unit step along that axis); for
    ``r-plus-cube`` it may also be ``(axis, t)`` for a shift by t > 0.
    Finite groups are exactly invariant, so the ratio is 0.
    """
    if scheme.kind == "finite-group":
        return 0.0
    if scheme.kind == "r-plus-cube":
        t = 1.0
        if isinstance(g, tuple):
            g, t = g[0], float(g[1])
        if not 0 <= g < scheme.d:
            raise ValueError(f"axis {g} out of range")
        if a <= 0 or t < 0:
            raise ValueError("need a > 0 and t >= 0")
        t = min(t, float(a))
        return 2.0 * t / float(a)
    a = int(a)
    if a < 1:
        raise ValueError("Foelner index a must be >= 1")
    if not 0 <= g < scheme.d:
        raise ValueError(f"axis {g} out of range")
    if scheme.kind == "zplus-box":
        return 2.0 / a
    # z-symmetric-box: |K| = (2a+1)^d, the shifted box drops/adds one slab
    return 2.0 / (2 * a + 1)


class SemigroupAction:
    """A commuting family of positive contractions indexed by a scheme.

    ``picture`` records whether the maps act on observables ("heisenberg",
    operator-norm contractions) or on densities ("schrodinger", L1
    contractions).  Structural checks run at construction and are stored,
    not raised: operations that need a property guard on it explicitly, so
    that a scenario with a broken action still produces a report.

    ``matrices`` holds the generator matrices: the flow generators L_i of an
    ``r-plus-cube`` scheme, the superoperator matrices of the maps otherwise.

    Only the Lamperti reports are cached on the instance; :meth:`dual`
    builds a new action on each call.  A scenario run shares its derived
    work through a run context instead.  The generators are not meant to
    change after construction.
    """

    def __init__(self, algebra, picture, scheme, generators):
        if picture not in ("heisenberg", "schrodinger"):
            raise ValueError(f"unknown picture {picture!r}")
        self.algebra = algebra
        self.picture = picture
        self.scheme = scheme
        self.checks = {}
        self._lamperti = None
        self.inverses = None

        if scheme.kind == "r-plus-cube":
            mats = []
            for L in generators:
                L = np.asarray(L, dtype=complex)
                if L.shape != (algebra.dim, algebra.dim):
                    raise ValueError(
                        f"flow generator shape {L.shape} != ({algebra.dim}, {algebra.dim})"
                    )
                mats.append(L)
            if len(mats) != scheme.d:
                raise ValueError(f"need {scheme.d} flow generators, got {len(mats)}")
            self.generators = None
            self.flow_generators = tuple(mats)
            self.matrices = self.flow_generators
            self.checks["commuting"] = check_commuting(self.flow_generators)
            return

        gens = list(generators)
        for s in gens:
            if not isinstance(s, SuperOperator) or s.algebra != algebra:
                raise ValueError("generators must be SuperOperators on the algebra")
        expected = scheme.order if scheme.kind == "finite-group" else scheme.d
        if len(gens) != expected:
            raise ValueError(f"need {expected} generator maps, got {len(gens)}")
        self.generators = tuple(gens)
        self.flow_generators = None
        self.matrices = tuple(s.matrix for s in gens)

        if scheme.kind == "z-symmetric-box":
            invs = []
            for s in gens:
                try:
                    inv = np.linalg.inv(s.matrix)
                except np.linalg.LinAlgError as exc:
                    raise ValueError("z-symmetric-box generators must be invertible") from exc
                if np.linalg.norm(s.matrix @ inv - np.eye(algebra.dim), 2) > INVERSE_TOL:
                    raise ValueError("generator inverse residual above 1e-10")
                invs.append(inv)
            self.inverses = tuple(invs)

        if scheme.kind == "finite-group":
            self.checks["representation"] = self._check_representation()
        else:
            self.checks["commuting"] = check_commuting(self.generators)
        self.checks["contraction"] = self._check_contractions()

    # -- construction-time checks ------------------------------------------

    def _check_representation(self):
        n = self.scheme.order
        worst = 0.0
        witness = None
        for g in range(n):
            for h in range(n):
                k = self.scheme.table[g][h]
                dev = np.linalg.norm(
                    self.generators[g].matrix @ self.generators[h].matrix
                    - self.generators[k].matrix,
                    2,
                )
                if dev > worst:
                    worst, witness = dev, (g, h)
        verdict = "pass" if worst <= REPRESENTATION_TOL else "fail"
        return CheckReport(
            "representation", verdict, witness=witness, detail={"max_deviation": worst}
        )

    def _check_contractions(self):
        reports = []
        for idx, s in enumerate(self.generators):
            probe = s if self.picture == "heisenberg" else dual(s)
            rep = check_contraction(probe)
            reports.append((idx, rep.verdict))
            if rep.verdict == "fail":
                return CheckReport(
                    "contraction",
                    "fail",
                    witness=(idx,),
                    detail={"per_generator": reports, **rep.detail},
                )
        verdicts = {v for _, v in reports}
        verdict = "pass" if verdicts == {"pass"} else "unknown"
        return CheckReport("contraction", verdict, detail={"per_generator": reports})

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
        """The same dynamics in the other picture, built anew on each call."""
        picture = "schrodinger" if self.picture == "heisenberg" else "heisenberg"
        if self.scheme.kind == "r-plus-cube":
            gens = [dual(SuperOperator(self.algebra, L)).matrix for L in self.matrices]
            return SemigroupAction(self.algebra, picture, self.scheme, gens)
        scheme = self.scheme
        if scheme.kind == "finite-group":
            # the adjoints form a representation of the opposite group
            n = scheme.order
            table_op = tuple(
                tuple(scheme.table[h][g] for h in range(n)) for g in range(n)
            )
            scheme = FolnerScheme("finite-group", order=n, table=table_op)
        return SemigroupAction(
            self.algebra, picture, scheme, [dual(s) for s in self.generators]
        )

    def to_picture(self, picture):
        return self if picture == self.picture else self.dual()

    # -- central summands ------------------------------------------------------

    def _summands(self):
        """The action split along its uncoupled central summands.

        A summand is a group of algebra blocks that no generator matrix (nor
        a z-symmetric inverse) couples to the other blocks: union-find over
        the off-diagonal block pairs holding any nonzero entry, with no
        tolerance, so an entry of 1e-300 still couples.  Returns one
        ``(coords, sub)`` pair per summand, in the order of its first block:
        its vec coordinates (a slice where its blocks are contiguous, an
        index array otherwise; index with :func:`_square`) and the action
        restricted to it.  A restriction shares this action's construction
        checks and runs none.  An action with one summand gives
        ``[(slice(None), self)]``, so callers run on its whole matrices.
        Computed anew on each call, as the action caches nothing.
        """
        if self.algebra.n_blocks == 1:
            return [(slice(None), self)]
        offsets = self.algebra._offsets
        root = list(range(self.algebra.n_blocks))

        def find(b):
            while root[b] != b:
                b = root[b]
            return b

        for m in self.matrices + (self.inverses or ()):
            pairs = np.logical_or.reduceat(m != 0, offsets[:-1], axis=0)
            pairs = np.logical_or.reduceat(pairs, offsets[:-1], axis=1)
            for b, c in zip(*np.nonzero(pairs)):
                rb, rc = find(b), find(c)
                root[max(rb, rc)] = min(rb, rc)
        groups = {}
        for b in range(len(root)):
            groups.setdefault(find(b), []).append(b)
        if len(groups) == 1:
            return [(slice(None), self)]
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
        sub = object.__new__(SemigroupAction)
        sub.algebra, sub.picture, sub.scheme = algebra, self.picture, self.scheme
        sub.checks, sub._lamperti = self.checks, None
        sub.matrices = tuple(m[_square(coords)] for m in self.matrices)
        sub.inverses = None
        if self.inverses is not None:
            sub.inverses = tuple(m[_square(coords)] for m in self.inverses)
        if self.generators is None:
            sub.generators, sub.flow_generators = None, sub.matrices
        else:
            sub.generators = tuple(SuperOperator(algebra, m) for m in sub.matrices)
            sub.flow_generators = None
        return sub

    # -- Lamperti attestation ----------------------------------------------

    def lamperti_reports(self, trials=8, seed=11):
        """check_lamperti on every predual (L1-picture) map; cached."""
        if self._lamperti is None:
            maps = (
                self.generators
                if self.picture == "schrodinger"
                else self.dual().generators
            )
            if maps is None:
                raise PreconditionError(
                    "Lamperti attestation of a continuous flow is not supported; "
                    "attest the time-1 maps instead"
                )
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


def _cesaro_walk(action, axis, v, schedule):
    """Per-axis Cesaro means of v for every a of an ascending schedule: one
    running sum over k = 0..a-1 (zplus-box, ascending k) or k = -a..a
    (z-symmetric-box, S^k v then S^-k v for k = 1, 2, ...)."""
    symmetric = action.scheme.kind == "z-symmetric-box"
    s = action.matrices[axis]
    acc, lo, hi, top = v.copy(), v, v, 0
    means = []
    for a in schedule:
        while top < (a if symmetric else a - 1):
            top += 1
            hi = s @ hi
            acc += hi
            if symmetric:
                lo = action.inverses[axis] @ lo
                acc += lo
        means.append(acc / (2 * a + 1 if symmetric else a))
    return means


def _power_sums(s, ns):
    """[sum_{k<n} S^k for n in ns] for a square matrix S, by one doubling walk.

    Reads the bits of n from the top: a 0 bit doubles m (the sum becomes
    (1 + S^m) sum_{k<m} S^k), a 1 bit doubles and then appends S^m.  That
    takes O(log n) matrix products instead of the n - 1 of the literal sum.
    The binary digits of each n must begin with those of the n before it
    (16 then 64), so each walk continues the last one and every sum is
    bitwise the one a walk to n alone gives.
    """
    total = np.eye(s.shape[0], dtype=complex)
    power = s
    done = "1"
    sums = []
    for n in ns:
        bits = bin(int(n))[2:]
        if not bits.startswith(done):
            raise ValueError(f"the bits of {n} do not extend those of {int(done, 2)}")
        for bit in bits[len(done):]:
            total = total + power @ total
            power = power @ power
            if bit == "1":
                total = total + power
                power = s @ power
        done = bits
        sums.append(total)
    return sums


def _axis_cesaro_supers(action, axis, sizes):
    """The per-axis Cesaro means (1/|window|) sum of window powers, as
    matrices, for each a in sizes; zplus-box walks one doubling for all."""
    s = action.generators[axis].matrix
    if action.scheme.kind == "zplus-box":
        return [t / a for t, a in zip(_power_sums(s, sizes), sizes)]
    # z-symmetric-box: sum_{-a <= k <= a} S^k = S^{-a} sum_{k <= 2a} S^k
    means = []
    for a in sizes:
        back = np.linalg.matrix_power(action.inverses[axis], a)
        means.append(back @ _power_sums(s, [2 * a + 1])[0] / (2 * a + 1))
    return means


def average(action, x, a):
    """The ergodic average A_a(x) over the scheme's Foelner set."""
    return averages(action, x, [a])[0]


def averages(action, x, schedule):
    """The ergodic averages A_a(x) for every a of a strictly ascending schedule.

    Box schemes walk the per-axis Cesaro sums (only axis 0 is shared across
    the schedule), finite groups average all element maps once, and cubes
    integrate the flow applied to x alone, one exponential per axis and a.
    """
    if not isinstance(x, Operator) or x.algebra != action.algebra:
        raise ValueError("element is not in the action's algebra")
    schedule = _ascending(schedule)
    v = x.vec()
    from_vec = action.algebra.from_vec
    if action.scheme.kind == "r-plus-cube":
        return [from_vec(_flow_average(action, v[:, None], a)[:, 0]) for a in schedule]
    schedule = [int(a) for a in schedule]
    if schedule[0] < 1:
        raise ValueError("Foelner index a must be >= 1")
    action.require_commuting()
    if action.scheme.kind == "finite-group":
        acc = np.zeros(action.algebra.dim, dtype=complex)
        for s in action.generators:
            acc += s.matrix @ v
        return [from_vec(acc / action.scheme.order)] * len(schedule)
    vecs = _cesaro_walk(action, 0, v, schedule)
    for axis in range(1, action.scheme.d):
        vecs = [_cesaro_walk(action, axis, w, [a])[0] for w, a in zip(vecs, schedule)]
    return [from_vec(w) for w in vecs]


def average_super(action, a):
    """The averaging operator A_a as a SuperOperator (usable in either picture)."""
    return SuperOperator(
        action.algebra, _average_matrices(action, [a])[0], source="composite"
    )


def _average_matrices(action, sizes):
    """The matrices of A_a for each a in sizes, each bitwise that of
    :func:`average_super`.

    On zplus-box one doubling walk per axis serves every size, so the binary
    digits of each size must begin with those of the size before it.
    """
    if action.scheme.kind == "r-plus-cube":
        return [continuous_average_super(action, a) for a in sizes]
    sizes = [int(a) for a in sizes]
    if min(sizes) < 1:
        raise ValueError("Foelner index a must be >= 1")
    action.require_commuting()
    if action.scheme.kind == "finite-group":
        mat = sum(s.matrix for s in action.generators) / action.scheme.order
        return [mat] * len(sizes)
    mats = _axis_cesaro_supers(action, 0, sizes)
    for axis in range(1, action.scheme.d):
        mats = [
            m_axis @ m
            for m_axis, m in zip(_axis_cesaro_supers(action, axis, sizes), mats)
        ]
    return mats


def _flow_average(action, b, a):
    """(1/a^d) int_{[0,a]^d} exp(sum t_i L_i) dt applied to the columns of b.

    Per axis, b <- top-right block of expm(a [[L_i, b], [0, 0]]) / a; the
    augmented matrix has D + (number of columns of b) rows.
    """
    a = float(a)
    if a <= 0:
        raise ValueError("cube side a must be > 0")
    action.require_commuting()
    dim = action.algebra.dim
    aug = np.zeros((dim + b.shape[1],) * 2, dtype=complex)
    for L in action.flow_generators:
        aug[:dim, :dim] = L
        aug[:dim, dim:] = b
        b = scipy.linalg.expm(a * aug)[:dim, dim:] / a
    return b


def continuous_average_super(action, a):
    """The matrix of (1/a^d) int_{[0,a]^d} exp(sum t_i L_i) dt."""
    if action.scheme.kind != "r-plus-cube":
        raise ValueError("continuous averages require an r-plus-cube scheme")
    return _flow_average(action, np.eye(action.algebra.dim, dtype=complex), a)
