"""Positive maps on a tracial algebra, represented as dense superoperators.

A ``SuperOperator`` is a D x D complex matrix acting on the block-major
column-stacked coordinates of :mod:`neveukit.algebra` (D = sum_i n_i^2).
Constructors cover the admissible generator sources:

* ``from_kraus``        Heisenberg-form x -> sum_j K_j* x K_j  (CP certified)
* ``from_classical``    substochastic kernel on a commutative algebra
* ``from_conjugation``  x -> u x u* for a unitary u
* ``from_matrix``       raw matrix; positivity only sampled, never certified

Duality is taken with respect to the weighted trace pairing

    tau(dual(S)(x) . y) = tau(x . S(y)),

so the trace weights enter the adjoint of any block-mixing map.  Structural
properties (complete positivity, subunitality, operator/L1 contractivity,
the Lamperti disjointness property, commutation) are recorded as
``CheckReport`` attestations: a report is evidence, and a verdict of
``"unknown"`` marks a property that was sampled but not certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Operator, TracialAlgebra, op_norm, order_leq, spectral_projection, trace
)

__all__ = [
    "CheckReport",
    "PreconditionError",
    "SuperOperator",
    "from_kraus",
    "from_classical",
    "from_conjugation",
    "from_matrix",
    "dual",
    "check_contraction",
    "check_lamperti",
    "check_commuting",
    "check_schwarz",
]

UNITARY_TOL = 1e-12
ROW_SUM_TOL = 1e-12
CONTRACTION_SLACK = 1e-9
LAMPERTI_TOL = 1e-9
COMMUTING_TOL = 1e-10


class PreconditionError(RuntimeError):
    """An operation was invoked without its attested precondition."""


@dataclass
class CheckReport:
    """Outcome of a structural check.

    verdict is one of "pass", "fail", "unknown"; a fail carries a concrete
    witness (inputs demonstrating the violation) whenever one exists.
    """

    name: str
    verdict: str
    witness: tuple = None
    detail: dict = field(default_factory=dict)
    samples: int = None
    seed: int = None

    @property
    def passed(self):
        return self.verdict == "pass"

    def summary(self):
        bits = {"verdict": self.verdict, **self.detail}
        if self.samples is not None:
            bits["samples"] = self.samples
        if self.seed is not None:
            bits["seed"] = self.seed
        return {"name": self.name, **bits}


class SuperOperator:
    """A linear map on a tracial algebra in vectorised form."""

    def __init__(self, algebra, matrix, source="matrix", attestations=None):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (algebra.dim, algebra.dim):
            raise ValueError(
                f"superoperator shape {matrix.shape} != ({algebra.dim}, {algebra.dim})"
            )
        self.algebra = algebra
        self.matrix = matrix
        self.source = source
        self.attestations = dict(attestations or {})

    def __call__(self, x):
        if not isinstance(x, Operator) or x.algebra != self.algebra:
            raise ValueError("input operator is not in this map's algebra")
        return self.algebra.from_vec(self.matrix @ x.vec())

    def __matmul__(self, other):
        if not isinstance(other, SuperOperator) or other.algebra != self.algebra:
            raise ValueError("can only compose superoperators on one algebra")
        return SuperOperator(
            self.algebra,
            self.matrix @ other.matrix,
            source="composite",
            attestations=_composable(self.attestations, other.attestations),
        )

    def is_attested(self, name):
        rep = self.attestations.get(name)
        return rep is not None and rep.passed

    @property
    def positivity_certified(self):
        """True when positivity holds by construction, not by sampling."""
        return self.is_attested("complete-positivity")

    @property
    def positivity_attested(self):
        return self.positivity_certified or self.is_attested("positivity-sampled")

    @classmethod
    def identity(cls, algebra):
        att = {
            "complete-positivity": CheckReport("complete-positivity", "pass"),
            "subunital": CheckReport("subunital", "pass"),
            "lamperti": CheckReport("lamperti", "pass"),
        }
        return cls(algebra, np.eye(algebra.dim), source="conjugation", attestations=att)

    @classmethod
    def convex_combination(cls, pairs):
        """sum_k c_k S_k for nonnegative c_k; keeps jointly held attestations."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty combination")
        if any(c < 0 for c, _ in pairs):
            raise ValueError("coefficients must be >= 0")
        total = sum(c for c, _ in pairs)
        # attestations below (subunital, contraction) survive only convex mixing
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficients sum to {total:.6g}, need 1")
        algebra = pairs[0][1].algebra
        mat = sum(c * s.matrix for c, s in pairs)
        att = pairs[0][1].attestations
        for _, s in pairs[1:]:
            att = _composable(att, s.attestations, drop=("lamperti",))
        return cls(algebra, mat, source="composite", attestations=att)

    def __repr__(self):
        att = {k: v.verdict for k, v in self.attestations.items()}
        return f"SuperOperator(source={self.source!r}, attestations={att})"


def _composable(att_a, att_b, drop=()):
    """Attestations preserved under composition / convex combination."""
    out = {}
    for name in ("complete-positivity", "positivity-sampled", "subunital", "lamperti"):
        if name in drop:
            continue
        ra, rb = att_a.get(name), att_b.get(name)
        if ra is not None and rb is not None and ra.passed and rb.passed:
            out[name] = CheckReport(name, "pass", detail={"derived": "composition"})
    return out


# ---------------------------------------------------------------------------
# the weighted-trace pairing and duality
# ---------------------------------------------------------------------------

_TRANSPOSE_PERMS = {}


def _transpose_perm(blocks):
    """The per-block matrix transpose as a permutation of vec coordinates.

    In vec coordinates the pairing is tau(x y) = vec(x)^T G vec(y) with
    G[u, v] = w(u) [v = perm(u)], w the algebra's ``weight_vec``.
    """
    if blocks not in _TRANSPOSE_PERMS:
        perm = np.empty(sum(n * n for n in blocks), dtype=int)
        off = 0
        for n in blocks:
            for q in range(n):
                for p in range(n):
                    perm[off + q * n + p] = off + p * n + q
            off += n * n
        _TRANSPOSE_PERMS[blocks] = perm
    return _TRANSPOSE_PERMS[blocks]


def pairing(x, y):
    """tau(x y), the bilinear duality form between L1 and M."""
    return trace(x @ y)


def dual(s):
    """Adjoint with respect to tau(dual(S)(x) . y) = tau(x . S(y)).

    For block-scalar weights this is S -> P S^T P with P the transpose
    permutation; for block-mixing maps (classical kernels on non-uniform
    weights) the weight ratio enters entrywise.
    """
    perm, w = _transpose_perm(s.algebra.blocks), s.algebra.weight_vec
    t = s.matrix[np.ix_(perm, perm)].T
    mat = t * (w[np.newaxis, :] / w[:, np.newaxis])
    att = {}
    for name in ("complete-positivity", "positivity-sampled"):
        rep = s.attestations.get(name)
        if rep is not None and rep.passed:
            att[name] = CheckReport(name, "pass", detail={"derived": "dual"})
    # operator-norm contractivity of a positive map dualises to L1
    # contractivity of the adjoint, and conversely.
    if s.is_attested("subunital") or s.is_attested("contraction"):
        att["l1-contractive"] = CheckReport(
            "l1-contractive", "pass", detail={"derived": "dual"}
        )
    if s.is_attested("l1-contractive"):
        att["contraction"] = CheckReport(
            "contraction", "pass", detail={"derived": "dual"}
        )
    return SuperOperator(s.algebra, mat, source=s.source, attestations=att)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_kraus(algebra, kraus_ops):
    """Heisenberg-form CP map x -> sum_j K_j* x K_j.

    Complete positivity holds by construction.  Subunitality
    (sum_j K_j* K_j <= 1) is verified and a violation beyond tolerance is an
    error, since every admissible generator must be a positive contraction.
    """
    if not kraus_ops:
        raise ValueError("need at least one Kraus operator")
    ops = []
    for k in kraus_ops:
        if not isinstance(k, Operator):
            k = algebra.operator(k)
        if k.algebra != algebra:
            raise ValueError("Kraus operator in a different algebra")
        ops.append(k)
    blocks = []
    for i in range(algebra.n_blocks):
        blocks.append(
            sum(np.kron(k.block_mats[i].T, k.block_mats[i].conj().T) for k in ops)
        )
    mat = _blockdiag(algebra, blocks)
    one = algebra.identity()
    lam1 = sum((k.H @ k for k in ops), algebra.zero())
    if not order_leq(lam1, one):
        dev = max(lam.max() for lam, _ in lam1.eigh())
        raise ValueError(
            f"subunitality violation: largest eigenvalue of sum K*K is {dev:.6g} > 1"
        )
    att = {
        "complete-positivity": CheckReport("complete-positivity", "pass"),
        "subunital": CheckReport(
            "subunital", "pass", detail={"norm_of_unit_image": op_norm(lam1)}
        ),
        "contraction": CheckReport(
            "contraction", "pass", detail={"criterion": "norm of image of 1"}
        ),
    }
    return SuperOperator(algebra, mat, source="kraus", attestations=att)


def _blockdiag(algebra, blocks):
    mat = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    off = 0
    for b in blocks:
        d = b.shape[0]
        mat[off : off + d, off : off + d] = b
        off += d
    return mat


def from_classical(algebra, kernel):
    """Markov-kernel map (L f)(i) = sum_j k[i, j] f(j) on a diagonal algebra.

    Rows must be nonnegative and substochastic.  Positive maps into or out of
    a commutative algebra are automatically completely positive, so the CP
    attestation is by construction.
    """
    if not algebra.is_commutative:
        raise ValueError("classical kernels require a commutative algebra")
    kernel = np.asarray(kernel, dtype=float)
    m = algebra.n_blocks
    if kernel.shape != (m, m):
        raise ValueError(f"kernel shape {kernel.shape} != ({m}, {m})")
    if kernel.min() < 0:
        i, j = np.unravel_index(int(np.argmin(kernel)), kernel.shape)
        raise ValueError(f"negative kernel entry at ({i}, {j}): {kernel[i, j]}")
    sums = kernel.sum(axis=1)
    bad = np.nonzero(sums > 1.0 + ROW_SUM_TOL)[0]
    if bad.size:
        raise ValueError(
            f"row {int(bad[0])} has sum {sums[bad[0]]:.6g} > 1; kernel must be substochastic"
        )
    att = {
        "complete-positivity": CheckReport("complete-positivity", "pass"),
        "subunital": CheckReport(
            "subunital", "pass", detail={"max_row_sum": float(sums.max())}
        ),
        "contraction": CheckReport(
            "contraction", "pass", detail={"criterion": "row sums"}
        ),
    }
    return SuperOperator(algebra, kernel.astype(complex), source="classical-kernel", attestations=att)


def from_conjugation(algebra, u):
    """The automorphism x -> u x u* for a blockwise unitary u."""
    if not isinstance(u, Operator):
        u = algebra.operator(u)
    if u.algebra != algebra:
        raise ValueError("unitary lives in a different algebra")
    for n, m in zip(algebra.blocks, u.block_mats):
        if np.linalg.norm(m @ m.conj().T - np.eye(n), 2) > UNITARY_TOL:
            raise ValueError("conjugation requires a unitary within 1e-12")
    blocks = [
        np.kron(m.conj(), m) for m in u.block_mats
    ]
    att = {
        "complete-positivity": CheckReport("complete-positivity", "pass"),
        "subunital": CheckReport("subunital", "pass"),
        "contraction": CheckReport("contraction", "pass"),
        "lamperti": CheckReport(
            "lamperti", "pass", detail={"derived": "automorphism"}
        ),
        "trace-preserving": CheckReport("trace-preserving", "pass"),
    }
    return SuperOperator(algebra, _blockdiag(algebra, blocks), source="conjugation", attestations=att)


def from_matrix(algebra, matrix, samples=20, seed=0):
    """Wrap a raw superoperator matrix; positivity is sampled, not certified."""
    s = SuperOperator(algebra, matrix, source="matrix")
    rng = np.random.default_rng(seed)
    witness = None
    for _ in range(samples):
        x = algebra.random_positive(rng)
        if not s(x).is_positive():
            witness = (x,)
            break
    verdict = "fail" if witness else "pass"
    s.attestations["positivity-sampled"] = CheckReport(
        "positivity-sampled", verdict, witness=witness, samples=samples, seed=seed
    )
    return s


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_contraction(s, samples=20, seed=1):
    """Certify or probe ||S|| <= 1 in the operator-norm sense.

    For maps whose positivity is certified the criterion is exact: a positive
    map attains its norm at the identity, so the verdict is read off
    ``||S(1)||``.  Otherwise positivity is sampled and the norm is estimated
    by power iteration of the superoperator restricted to hermitian inputs;
    a "pass"-looking estimate without a certificate stays "unknown".
    """
    one = s.algebra.identity()
    norm1 = op_norm(s(one))
    if s.positivity_certified:
        verdict = "pass" if norm1 <= 1.0 + CONTRACTION_SLACK else "fail"
        witness = None if verdict == "pass" else (one,)
        return CheckReport(
            "contraction", verdict, witness=witness, detail={"norm_of_unit_image": norm1}
        )
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = s.algebra.random_positive(rng)
        if not s(x).is_positive():
            return CheckReport(
                "contraction",
                "fail",
                witness=(x,),
                detail={"reason": "positivity sample failed"},
                samples=samples,
                seed=seed,
            )
    estimate, h_star = _herm_norm_estimate(s, rng)
    ratio = op_norm(s(h_star)) / max(op_norm(h_star), 1e-300)
    worst = max(ratio, norm1)
    if worst > 1.0 + CONTRACTION_SLACK:
        w = h_star if ratio >= norm1 else one
        return CheckReport(
            "contraction",
            "fail",
            witness=(w,),
            detail={"operator_norm_ratio": worst},
            samples=samples,
            seed=seed,
        )
    return CheckReport(
        "contraction",
        "unknown",
        detail={"power_iteration_estimate": estimate, "norm_of_unit_image": norm1},
        samples=samples,
        seed=seed,
    )


def _herm_basis(algebra):
    """Real orthonormal (Frobenius) basis of the hermitian subspace."""
    basis = []
    for b, n in enumerate(algebra.blocks):
        for i in range(n):
            e = algebra.basis_element(b, i, i)
            basis.append(e.vec())
        for i in range(n):
            for j in range(i + 1, n):
                e = algebra.basis_element(b, i, j)
                f = algebra.basis_element(b, j, i)
                basis.append((e.vec() + f.vec()) / np.sqrt(2))
                basis.append(1j * (e.vec() - f.vec()) / np.sqrt(2))
    return np.column_stack(basis)


def _herm_norm_estimate(s, rng, iters=200):
    """Dominant singular value of S restricted to hermitian coordinates."""
    B = _herm_basis(s.algebra)
    R = np.real(B.conj().T @ s.matrix @ B)
    d = R.shape[0]
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = R.T @ (R @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
        new_sigma = float(np.sqrt(nw))
        if abs(new_sigma - sigma) <= 1e-13 * max(new_sigma, 1.0):
            sigma = new_sigma
            break
        sigma = new_sigma
    h_star = s.algebra.from_vec(B @ v)
    return sigma, h_star


def _split_pairs(algebra, rng):
    """Random complementary spectral split plus random-basis minimal pairs."""
    h = algebra.random_hermitian(rng)
    lo = min(lam.min() for lam, _ in h.eigh())
    hi = max(lam.max() for lam, _ in h.eigh())
    t = float(rng.uniform(lo, hi))
    p = spectral_projection(h, (t, None))
    yield p, p.complement()
    g = algebra.random_hermitian(rng)
    mins = []
    for b, (_, V) in enumerate(g.eigh()):
        for k in range(V.shape[1]):
            mats = [np.zeros((n, n), dtype=complex) for n in algebra.blocks]
            mats[b] = np.outer(V[:, k], V[:, k].conj())
            mins.append(Operator(algebra, mats))
    for i in range(len(mins)):
        for j in range(i + 1, len(mins)):
            yield mins[i], mins[j]


def check_lamperti(s, trials=10, seed=2):
    """Probe the disjointness property gamma(a) gamma(b) = 0 for a b = 0.

    Runs the standard-basis minimal diagonal projections first (these catch
    mixing kernels immediately), then ``trials`` rounds of random hermitian
    spectral splits and random-orthonormal-basis minimal projections.
    Requires a positivity attestation on the map.
    """
    if not s.positivity_attested:
        raise PreconditionError("check_lamperti requires a positivity-attested map")
    algebra = s.algebra
    pairs = []
    diag_units = []
    for b, n in enumerate(algebra.blocks):
        for i in range(n):
            diag_units.append(algebra.basis_element(b, i, i))
    for i in range(len(diag_units)):
        for j in range(i + 1, len(diag_units)):
            pairs.append((diag_units[i], diag_units[j]))
    rng = np.random.default_rng(seed)
    checked = 0
    for trial in range(trials):
        pairs.extend(_split_pairs(algebra, rng))
    for a, b in pairs:
        checked += 1
        devn = op_norm(s(a) @ s(b))
        if devn > LAMPERTI_TOL:
            return CheckReport(
                "lamperti",
                "fail",
                witness=(a, b),
                detail={"product_norm": devn},
                samples=checked,
                seed=seed,
            )
    return CheckReport("lamperti", "pass", samples=checked, seed=seed)


def check_commuting(maps):
    """Pairwise commutation of superoperators within 1e-10 (norm-scaled)."""
    mats = [m.matrix if isinstance(m, SuperOperator) else np.asarray(m) for m in maps]
    worst = 0.0
    worst_pair = None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            scale = max(
                1.0, np.linalg.norm(mats[i], 2) * np.linalg.norm(mats[j], 2)
            )
            dev = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i], 2) / scale
            if dev > worst:
                worst, worst_pair = dev, (i, j)
    verdict = "pass" if worst <= COMMUTING_TOL else "fail"
    return CheckReport(
        "commuting",
        verdict,
        witness=worst_pair,
        detail={"max_commutator_norm": worst},
    )


def check_schwarz(s, trials=10, seed=3):
    """Sampled Kadison-Schwarz inequality S(x)^2 <= S(x^2) on hermitian x.

    Holds for every positive subunital map restricted to a single hermitian
    element, since the restriction to the abelian algebra it generates is
    completely positive.
    """
    if not s.positivity_attested:
        raise PreconditionError("check_schwarz requires a positivity-attested map")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = s.algebra.random_hermitian(rng)
        if not order_leq(s(x) @ s(x), s(x @ x)):
            return CheckReport(
                "schwarz", "fail", witness=(x,), samples=trials, seed=seed
            )
    return CheckReport("schwarz", "pass", samples=trials, seed=seed)
