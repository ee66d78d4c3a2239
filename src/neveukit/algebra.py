"""Tracial block-matrix algebras: elements, traces, norms, spectral calculus.

Every finite-dimensional von Neumann algebra is a finite direct sum of full
complex matrix blocks.  ``TracialAlgebra`` fixes the block sizes ``n_i``
together with strictly positive trace weights ``w_i`` so that

    tau(x) = sum_i w_i * tr(x_i)

is a faithful normal trace (a tracial state when ``sum_i w_i n_i == 1``).
``Operator`` holds one element as a tuple of per-block complex matrices; the
same object serves as a bounded observable (operator norm) and as an L1
density (trace norm), which in finite dimension are two norms on one space.

Vectorisation convention, used by every superoperator in this package:
block-major, column-stacking per block, i.e.

    vec(x) = concat_i  x_i.reshape(-1, order="F")

so that for a single block vec(A X B) = (B.T kron A) vec(X).

Operator norms (:func:`op_norm`, :func:`op_norms`) are the exact largest
singular value, never a bound.  There is one spectral-norm kernel,
``_max_norms``: k operators held as one (k, n, n) stack per block take one
batched ``np.linalg.norm(stack, 2, axis=(-2, -1))`` per block, then the
largest over blocks; LAPACK still runs per matrix, so every value is bitwise
equal to ``np.linalg.norm(m, 2)`` of the block that attains it.
:func:`op_norms` stacks a list of operators for it.  The certificate layer
also takes |x| of a whole stack at once (``_abs_stacks``); the hermiticity
decision (``_hermitian_mask``) and the |x| formulas it uses are those of
:meth:`Operator.is_hermitian` and :func:`abs_op`, so every matrix is bitwise
``abs_op`` of its slice.

All functions are pure and operators are treated as immutable.  Each
``Operator`` decomposes its hermitian part at most once (:meth:`Operator.eigh`)
and every spectral function reads that cached decomposition, so the block
matrices of an operator must not be mutated after a spectral query.

Algebra equality is exact: two algebras are equal when their block sizes and
their trace weights are equal as floats.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "TracialAlgebra",
    "Operator",
    "Projection",
    "trace",
    "trace_norm",
    "op_norm",
    "op_norms",
    "abs_op",
    "spectral_decompose",
    "spectral_projection",
    "support",
    "distribution",
    "order_leq",
]

# Flag verification slacks (relative).
HERMITIAN_RTOL = 1e-12
POSITIVE_RTOL = 1e-10
# Projection admission of matrices from outside: idempotency / self-adjointness
# and eigenvalue snap.  Projections built from orthonormal eigenvectors (V V*,
# 1 - P, corner glue) know their ranks by construction and skip it.
PROJECTION_TOL = 1e-10
PROJECTION_EIG_TOL = 1e-8
# Eigenvalue clustering gap, relative to the operator norm of the input.
CLUSTER_GAP_RTOL = 1e-10
# Support threshold, relative to max(lambda_max, 1).
SUPPORT_RTOL = 1e-10
# Half-open interval boundary snap for spectral projections.
BOUNDARY_SNAP = 1e-10
# Loewner order slack, scaled by (||x|| + ||y|| + 1).
ORDER_SLACK = 1e-9


class TracialAlgebra:
    """A direct sum of full matrix blocks with a weighted trace.

    :param blocks: block sizes ``n_i >= 1``.
    :param weights: finite, strictly positive trace weights ``w_i``; defaults to the
        uniform normalised choice ``w_i = 1 / sum_j n_j``.
    :param normalized: if given, assert that ``sum_i w_i n_i == 1`` matches.
    """

    def __init__(self, blocks, weights=None, normalized=None):
        blocks = tuple(int(n) for n in blocks)
        if len(blocks) == 0:
            raise ValueError("algebra needs at least one block")
        if any(n < 1 for n in blocks):
            raise ValueError(f"block sizes must be >= 1, got {blocks}")
        if weights is None:
            weights = tuple(1.0 / sum(blocks) for _ in blocks)
        else:
            weights = tuple(float(w) for w in weights)
        if len(weights) != len(blocks):
            raise ValueError("one weight per block required")
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ValueError(f"trace weights must be finite and > 0, got {weights}")
        mass = sum(w * n for w, n in zip(weights, blocks))
        is_normalized = abs(mass - 1.0) <= 1e-12
        if normalized is True and not is_normalized:
            raise ValueError(f"tau(1) = {mass!r}, not a tracial state")
        self.blocks = blocks
        self.weights = weights
        self.normalized = is_normalized
        # Total vectorised dimension and per-block offsets into vec(x).
        self.dim = sum(n * n for n in blocks)
        offs = np.cumsum([0] + [n * n for n in blocks])
        self._offsets = tuple(int(o) for o in offs)
        # The trace weight of each vec coordinate: tau(x y) pairs vec
        # entries of one block with that block's weight.
        self.weight_vec = np.repeat(weights, [n * n for n in blocks])
        self.weight_vec.flags.writeable = False

    # -- equality is exact and structural, so it is transitive and agrees
    # with the hash --

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TracialAlgebra)
            and self.blocks == other.blocks
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.blocks, self.weights))

    def __repr__(self):
        return f"TracialAlgebra(blocks={list(self.blocks)}, weights={list(self.weights)})"

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def is_commutative(self):
        return all(n == 1 for n in self.blocks)

    # -- constructors ------------------------------------------------------

    @classmethod
    def full_matrix(cls, n):
        """M_n with the normalised trace tr/n."""
        return cls([n], [1.0 / n])

    @classmethod
    def commutative(cls, weights):
        """A diagonal (classical) algebra with one atom per weight."""
        return cls([1] * len(weights), weights)

    # -- element factories -------------------------------------------------

    def operator(self, block_mats):
        return Operator(self, block_mats)

    def zero(self):
        return Operator(self, [np.zeros((n, n), dtype=complex) for n in self.blocks])

    def identity(self):
        return Operator(self, [np.eye(n, dtype=complex) for n in self.blocks])

    def diag(self, values):
        """Diagonal operator from a flat list of the per-block diagonals."""
        values = np.asarray(values, dtype=complex).ravel()
        if values.size != sum(self.blocks):
            raise ValueError(
                f"need {sum(self.blocks)} diagonal entries, got {values.size}"
            )
        mats, k = [], 0
        for n in self.blocks:
            mats.append(np.diag(values[k : k + n]))
            k += n
        return Operator(self, mats)

    def basis_element(self, block, row, col):
        """The matrix unit E_{row,col} sitting in one block."""
        mats = [np.zeros((n, n), dtype=complex) for n in self.blocks]
        mats[block][row, col] = 1.0
        return Operator(self, mats)

    def _stacks(self, rows):
        """Per-block (k, n, n) stacks of the rows of a (k, dim) array; each
        slice is the block of ``from_vec`` of its row, as a view."""
        rows = np.asarray(rows, dtype=complex)
        return [
            rows[:, self._offsets[i] : self._offsets[i + 1]]
            .reshape(-1, n, n)
            .transpose(0, 2, 1)
            for i, n in enumerate(self.blocks)
        ]

    def from_vec(self, v):
        """Inverse of ``Operator.vec`` (block-major, column-stacked)."""
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != self.dim:
            raise ValueError(f"vector length {v.size} != algebra dim {self.dim}")
        mats = []
        for i, n in enumerate(self.blocks):
            seg = v[self._offsets[i] : self._offsets[i + 1]]
            mats.append(seg.reshape((n, n), order="F"))
        return Operator(self, mats)

    def random_hermitian(self, rng, scale=1.0):
        mats = []
        for n in self.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(scale * (g + g.conj().T) / 2.0)
        return Operator(self, mats)

    def random_positive(self, rng, scale=1.0):
        mats = []
        for n in self.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(scale * (g @ g.conj().T) / n)
        return Operator(self, mats)

    def random_density(self, rng, faithful=True):
        """Random positive element with tau = 1; full rank when faithful."""
        x = self.random_positive(rng)
        if faithful:
            x = x + 0.1 * op_norm(x) * self.identity() + 1e-3 * self.identity()
        t = trace(x).real
        return (1.0 / t) * x


class Operator:
    """One element of a :class:`TracialAlgebra`.

    Stores per-block complex matrices.  Hermitian / positive flags and the
    eigendecomposition of the hermitian part are computed lazily and cached;
    construction only checks shapes.
    """

    def __init__(self, algebra, block_mats):
        if len(block_mats) != algebra.n_blocks:
            raise ValueError(
                f"expected {algebra.n_blocks} blocks, got {len(block_mats)}"
            )
        mats = []
        for n, m in zip(algebra.blocks, block_mats):
            m = np.asarray(m, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"block shape {m.shape} != ({n}, {n})")
            mats.append(m)
        self.algebra = algebra
        self.block_mats = tuple(mats)
        self._flags = {}

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if self.algebra != other.algebra:
            raise ValueError("operators live in different algebras")

    def __add__(self, other):
        self._require_same(other)
        return Operator(
            self.algebra,
            [a + b for a, b in zip(self.block_mats, other.block_mats)],
        )

    def __sub__(self, other):
        self._require_same(other)
        return Operator(
            self.algebra,
            [a - b for a, b in zip(self.block_mats, other.block_mats)],
        )

    def __neg__(self):
        return Operator(self.algebra, [-a for a in self.block_mats])

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Operator(self.algebra, [scalar * a for a in self.block_mats])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._require_same(other)
        return Operator(
            self.algebra,
            [a @ b for a, b in zip(self.block_mats, other.block_mats)],
        )

    @property
    def H(self):
        """Adjoint x*."""
        return Operator(self.algebra, [a.conj().T for a in self.block_mats])

    def vec(self):
        """Block-major column-stacked coordinates (see module docstring)."""
        return np.concatenate([m.reshape(-1, order="F") for m in self.block_mats])

    def dense(self):
        """Full block-diagonal matrix, mostly for debugging and printing."""
        n_tot = sum(self.algebra.blocks)
        out = np.zeros((n_tot, n_tot), dtype=complex)
        k = 0
        for n, m in zip(self.algebra.blocks, self.block_mats):
            out[k : k + n, k : k + n] = m
            k += n
        return out

    # -- verified flags ----------------------------------------------------

    def is_hermitian(self):
        """``||x - x*|| <= 1e-12 ||x||``; no norm is taken when x == x* exactly."""
        if "hermitian" not in self._flags:
            stacks = [m[None] for m in self.block_mats]
            self._flags["hermitian"] = bool(_hermitian_mask(stacks)[0])
        return self._flags["hermitian"]

    def is_positive(self):
        """Hermitian with no eigenvalue below ``-1e-10 ||x||``; the norm of
        a hermitian x is its largest |eigenvalue|, so no norm is taken."""
        if "positive" not in self._flags:
            positive = self.is_hermitian()
            if positive:
                lam = np.concatenate([lam for lam, _ in self.eigh()])
                scale = np.abs(lam).max() + 1e-30
                positive = bool(lam.min() >= -POSITIVE_RTOL * scale)
            self._flags["positive"] = positive
        return self._flags["positive"]

    def eigh(self):
        """Per-block ``(lam, V)`` of the hermitian part ``(x + x*) / 2``.

        Computed once and cached, with read-only arrays; every spectral
        function reads it.  For a hermitian operator (:meth:`is_hermitian`)
        this is the eigendecomposition of the operator itself.
        """
        if "eigh" not in self._flags:
            pairs = []
            for m in self.block_mats:
                lam, V = np.linalg.eigh((m + m.conj().T) / 2.0)
                lam.flags.writeable = V.flags.writeable = False
                pairs.append((lam, V))
            self._flags["eigh"] = tuple(pairs)
        return self._flags["eigh"]

    def __repr__(self):
        return f"Operator(algebra={self.algebra!r}, norm={op_norm(self):.6g})"


class Projection(Operator):
    """A self-adjoint idempotent, carrying its per-block ranks.

    ``Projection(algebra, mats)`` admits matrices from outside: it checks
    ``||p^2 - p|| <= 1e-10``, self-adjointness and eigenvalues within 1e-8 of
    {0, 1}, and reads the ranks off the eigenvalues.  :meth:`from_eigvecs`
    (V V*), :meth:`complement` (1 - p) and the corner glue of the certificates
    know their ranks by construction; only rounding could fail the admission
    there, so they skip it.
    """

    def __init__(self, algebra, block_mats):
        super().__init__(algebra, block_mats)
        for m in self.block_mats:
            idem, adj = np.linalg.norm(
                np.array([m @ m - m, m - m.conj().T]), 2, axis=(-2, -1)
            )
            if idem > PROJECTION_TOL:
                raise ValueError("not idempotent within 1e-10")
            if adj > PROJECTION_TOL:
                raise ValueError("not self-adjoint within 1e-10")
        ranks = []
        for ev, _ in self.eigh():
            if np.abs(ev - np.round(ev)).max() > PROJECTION_EIG_TOL:
                raise ValueError("eigenvalues not within 1e-8 of {0, 1}")
            ranks.append(int(np.round(ev.sum())))
        self.ranks, self.rank = tuple(ranks), sum(ranks)

    @classmethod
    def _built(cls, algebra, block_mats, ranks):
        """A projection made by construction, with known ranks: no admission."""
        p = cls.__new__(cls)
        Operator.__init__(p, algebra, block_mats)
        p.ranks, p.rank = tuple(ranks), sum(ranks)
        return p

    @classmethod
    def from_eigvecs(cls, algebra, vec_lists):
        """Build sum_k v_k v_k* blockwise from orthonormal column lists.

        The caller vouches for orthonormality; a block's rank is its column
        count, and an empty (or ``None``) list gives a zero block.  n
        orthonormal columns span C^n: such a block is exactly the identity.
        """
        Vs = [
            np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)
            for n, cols in zip(algebra.blocks, vec_lists)
        ]
        return cls._built(
            algebra,
            [
                np.eye(n, dtype=complex) if V.shape[1] == n else V @ V.conj().T
                for n, V in zip(algebra.blocks, Vs)
            ],
            [V.shape[1] for V in Vs],
        )

    def complement(self):
        blocks = self.algebra.blocks
        return Projection._built(
            self.algebra,
            [np.eye(n) - m for n, m in zip(blocks, self.block_mats)],
            [n - r for n, r in zip(blocks, self.ranks)],
        )

    def __repr__(self):
        return f"Projection(ranks={list(self.ranks)})"


# ---------------------------------------------------------------------------
# traces and norms
# ---------------------------------------------------------------------------


def trace(x):
    """The weighted trace tau(x) = sum_i w_i tr(x_i).  Returns a complex scalar."""
    return complex(
        sum(w * np.trace(m) for w, m in zip(x.algebra.weights, x.block_mats))
    )


def _singvals(x):
    """Per-block singular values; eigenvalue magnitudes when hermitian."""
    if x.is_hermitian():
        return [np.abs(lam) for lam, _ in x.eigh()]
    return [np.linalg.svd(m, compute_uv=False) for m in x.block_mats]

def trace_norm(x):
    """||x||_1 = tau(|x|), via per-block singular values."""
    return float(
        sum(w * s.sum() for w, s in zip(x.algebra.weights, _singvals(x)))
    )


def op_norm(x):
    """Operator norm: the largest singular value over all blocks."""
    return op_norms([x])[0]


def op_norms(xs):
    """The operator norm of each of a list of operators on one algebra.

    The operators are stacked per block for ``_max_norms``, so each value is
    bitwise the per-matrix ``np.linalg.norm(m, 2)``.
    """
    xs = list(xs)
    if not xs:
        return []
    first = xs[0].algebra
    if any(x.algebra is not first and x.algebra != first for x in xs):
        raise ValueError("operators live in different algebras")
    return _max_norms([np.array(mats) for mats in zip(*(x.block_mats for x in xs))])


def _abs_eigh(lam, V):
    """|h| of a hermitian h (or of each slice of a stack) from its ``eigh``."""
    return (V * np.abs(lam)[..., None, :]) @ _adjoint(V)


def _abs_svd(s, Vh):
    """|x| of x (or of each slice of a stack) from its singular values and
    right singular vectors: (x* x)^(1/2) = Vh* diag(s) Vh."""
    return (_adjoint(Vh) * s[..., None, :]) @ Vh


def abs_op(x):
    """|x| = (x* x)^(1/2).  Uses the eigendecomposition of x when hermitian."""
    if x.is_hermitian():
        return Operator(x.algebra, [_abs_eigh(lam, V) for lam, V in x.eigh()])
    svds = (np.linalg.svd(m) for m in x.block_mats)
    return Operator(x.algebra, [_abs_svd(s, Vh) for _, s, Vh in svds])


# ---------------------------------------------------------------------------
# stacks: k operators held as one (k, n, n) array per block
# ---------------------------------------------------------------------------


def _adjoint(stack):
    """The adjoint of a matrix, or of each slice of a stack, as a view."""
    return stack.conj().swapaxes(-1, -2)


def _max_norms(stacks):
    """The operator norm of each of k operators given as per-block stacks.

    The one spectral-norm kernel: one ``np.linalg.norm(stack, 2, axis=(-2,
    -1))`` per block, then the largest over blocks.
    """
    norms = [np.linalg.norm(s, 2, axis=(-2, -1)) for s in stacks]
    return np.maximum.reduce(norms).tolist()


def _hermitian_mask(stacks):
    """Which of k operators, given as per-block stacks, are hermitian.

    The one hermiticity decision: x is hermitian when every block equals its
    adjoint exactly (no norm is taken), else when ``||x - x*|| <= 1e-12
    ||x||``, with one batched norm per block for the slices that are not
    exactly hermitian.
    """
    herm = True
    for s in stacks:
        herm = herm & (s == _adjoint(s)).all(axis=(-2, -1))
    near = np.flatnonzero(~herm)
    if near.size:
        if near.size < herm.size:
            stacks = [s[near] for s in stacks]
        both = [np.concatenate([s - _adjoint(s), s]) for s in stacks]
        norms = np.array(_max_norms(both))
        dev, norm = norms[: near.size], norms[near.size :]
        herm[near] = dev <= HERMITIAN_RTOL * norm + 1e-30
    return herm


def _abs_stacks(stacks):
    """|x_j| of k operators given as per-block stacks ``stacks[b][j]``.

    Per block, one batched ``eigh`` of the hermitian parts serves the x_j
    that ``_hermitian_mask`` finds hermitian and one batched SVD the others;
    each slice is bitwise ``abs_op(x_j)``.
    """
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
            m[other] = _abs_svd(sv, Vh)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


def _clusters(h, who):
    """``(mean eigenvalue, per-block eigenvector lists)`` of each eigenvalue
    cluster of a hermitian h, ascending (see :func:`spectral_decompose`)."""
    if not h.is_hermitian():
        raise ValueError(f"{who} requires a hermitian operator")
    triples = [
        (float(lam[k]), b, V[:, k])
        for b, (lam, V) in enumerate(h.eigh())
        for k in range(lam.size)
    ]
    triples.sort(key=lambda t: t[0])
    gap = CLUSTER_GAP_RTOL * max(op_norm(h), 1e-300)
    clusters = []  # (eigenvalues, per-block columns)
    for i, (lam, b, v) in enumerate(triples):
        if i == 0 or lam - triples[i - 1][0] > gap:
            clusters.append(([], [[] for _ in h.algebra.blocks]))
        clusters[-1][0].append(lam)
        clusters[-1][1][b].append(v)
    return [(float(np.mean(lams)), cols) for lams, cols in clusters]


def spectral_decompose(h):
    """Clustered spectral decomposition of a hermitian operator.

    Eigenvalues across all blocks are sorted and merged into clusters when
    consecutive gaps are <= 1e-10 * ||h||.  Returns a list of
    ``(eigenvalue, Projection)`` pairs; the projections sum to the identity
    and ``sum_k lam_k P_k`` reassembles ``h`` to 1e-10.
    """
    return [
        (lam, Projection.from_eigvecs(h.algebra, cols))
        for lam, cols in _clusters(h, "spectral_decompose")
    ]


def _interval_member(lam, lo, hi):
    """Half-open [lo, hi) membership with 1e-10 boundary snapping."""
    if abs(lam - lo) <= BOUNDARY_SNAP:
        return True
    return abs(lam - hi) > BOUNDARY_SNAP and lo <= lam < hi


def spectral_projection(h, interval):
    """chi_[lo, hi)(h) for a hermitian h.

    ``interval`` is a pair ``(lo, hi)``; either end may be ``None`` (or
    +-inf) for an unbounded side.  Eigenvalue clusters within 1e-10 of an
    endpoint are assigned by the half-open convention: the lower endpoint
    belongs to the interval, the upper one does not.
    """
    lo, hi = interval
    lo = -np.inf if lo is None else lo
    hi = np.inf if hi is None else hi
    kept = [[] for _ in h.algebra.blocks]
    for lam, cols in _clusters(h, "spectral_projection"):
        if _interval_member(lam, lo, hi):
            for block, c in zip(kept, cols):
                block.extend(c)
    return Projection.from_eigvecs(h.algebra, kept)


def support(x):
    """Support projection of a positive operator.

    chi_(theta, inf)(x) with theta = 1e-10 * max(lambda_max, 1).  The
    dropped eigenvalues lie in [-1e-10 ||x||, theta], so ``s(x) x = x``
    holds to about 1e-10 * max(||x||, 1).
    """
    if not x.is_positive():
        raise ValueError("support requires a positive operator")
    eigs = x.eigh()
    theta = SUPPORT_RTOL * max(max(lam.max() for lam, _ in eigs), 1.0)
    return Projection.from_eigvecs(
        x.algebra,
        [[V[:, k] for k in np.flatnonzero(lam > theta)] for lam, V in eigs],
    )


def distribution(x, eps):
    """tau of the spectral projection of |x| at and above eps.

    Counts the weighted eigenvalue mass of |x| in [eps, inf), the complement
    of the half-open [0, eps); eigenvalues within 1e-10 of eps count as eps.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    total = 0.0
    for w, s in zip(x.algebra.weights, _singvals(x)):
        total += w * int(np.sum(s >= eps - BOUNDARY_SNAP))
    return float(total)


def order_leq(x, y):
    """Loewner order test x <= y, with slack 1e-9 * (||x|| + ||y|| + 1)."""
    x._require_same(y)
    d = y - x
    if not d.is_hermitian():
        return False
    slack = ORDER_SLACK * (op_norm(x) + op_norm(y) + 1.0)
    lo = min(lam.min() for lam, _ in d.eigh())
    return bool(lo >= -slack)
