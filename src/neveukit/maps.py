"""Positive maps on a tracial algebra, represented as dense superoperators.

A ``SuperOperator`` holds one D x D matrix (D = sum_i n_i^2): H = B* S B,
the map in the hermitian basis of :mod:`neveukit.algebra`, real for a map
that sends self-adjoint elements to self-adjoint ones.  Its matrix S on the
block-major column-stacked vec coordinates is derived on read.
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
    Operator,
    _mix,
    _real_part,
    _to_hermitian,
    _to_vec,
    op_norm,
    order_leq,
    spectral_projection,
    trace,
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
    """A linear map on a tracial algebra, held as one matrix: H = B* S B, its
    D x D matrix in the hermitian basis of :mod:`neveukit.algebra`.

    The constructor takes S on the block-major vec coordinates and converts
    it once; :meth:`from_hermitian` takes H itself.  The map applies,
    composes and dualises (:func:`dual`) on H alone, and ``matrix``, S =
    B H B*, is formed on each read and not kept.  H is real once
    :meth:`real_hermitian` has checked that S maps self-adjoint elements to
    self-adjoint ones, and from the constructors that know it (Kraus,
    classical, conjugation).
    """

    def __init__(self, algebra, matrix, source="matrix", attestations=None):
        matrix = _shape_checked(algebra, np.asarray(matrix, dtype=complex))
        self.algebra = algebra
        self._hermitian = _to_hermitian(algebra, matrix, matrix=True)
        self.source = source
        self.attestations = dict(attestations or {})

    @classmethod
    def from_hermitian(cls, algebra, herm, source="matrix", attestations=None):
        """The map with the matrix ``herm`` in the hermitian basis, held as given."""
        s = cls.__new__(cls)
        s.algebra, s._hermitian = algebra, _shape_checked(algebra, herm)
        s.source, s.attestations = source, dict(attestations or {})
        return s

    @property
    def matrix(self):
        """S = B H B*, the D x D matrix on vec coordinates, formed on each read."""
        return _to_vec(self.algebra, self._hermitian, matrix=True)

    def hermitian(self):
        """H = B* S B: real up to rounding when S maps self-adjoint elements
        to self-adjoint ones, and its real part once :meth:`real_hermitian`
        has checked that."""
        return self._hermitian

    def real_hermitian(self):
        """The real part of H, kept in its place; raises ValueError when its
        imaginary part is above rounding (see ``algebra._real_part``): S does
        not map self-adjoint elements to self-adjoint ones."""
        self._hermitian = _real_part(
            self._hermitian, "does not map self-adjoint elements to self-adjoint ones"
        )
        return self._hermitian

    def __call__(self, x):
        if not isinstance(x, Operator) or x.algebra != self.algebra:
            raise ValueError("input operator is not in this map's algebra")
        # a real H applies to the real and the imaginary part of the
        # coordinates apart, in real arithmetic
        h, r = self._hermitian, _to_hermitian(self.algebra, x.vec())
        y = h @ r if np.iscomplexobj(h) else h @ r.real + 1j * (h @ r.imag)
        return self.algebra.from_vec(_to_vec(self.algebra, y))

    def __matmul__(self, other):
        if not isinstance(other, SuperOperator) or other.algebra != self.algebra:
            raise ValueError("can only compose superoperators on one algebra")
        return SuperOperator.from_hermitian(
            self.algebra,
            self._hermitian @ other._hermitian,
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
        return cls.from_hermitian(
            algebra, np.eye(algebra.dim), source="conjugation", attestations=att
        )

    def __repr__(self):
        att = {k: v.verdict for k, v in self.attestations.items()}
        return f"SuperOperator(source={self.source!r}, attestations={att})"


def _shape_checked(algebra, m):
    """``m``, checked to be D x D."""
    if m.shape != (algebra.dim, algebra.dim):
        raise ValueError(f"superoperator shape {m.shape} != ({algebra.dim}, {algebra.dim})")
    return m


def _composable(att_a, att_b):
    """Attestations preserved under composition."""
    out = {}
    for name in ("complete-positivity", "positivity-sampled", "subunital", "lamperti"):
        ra, rb = att_a.get(name), att_b.get(name)
        if ra is not None and rb is not None and ra.passed and rb.passed:
            out[name] = CheckReport(name, "pass", detail={"derived": "composition"})
    return out


# ---------------------------------------------------------------------------
# the weighted-trace pairing and duality
# ---------------------------------------------------------------------------

def pairing(x, y):
    """tau(x y), the bilinear duality form between L1 and M."""
    return trace(x @ y)


def _weight_ratio(algebra):
    """w_v / w_u at [u, v], w the ``weight_vec``: M^T * ratio is W^-1 M^T W."""
    w = algebra.weight_vec
    return w[np.newaxis, :] / w[:, np.newaxis]


def dual(s):
    """Adjoint with respect to tau(dual(S)(x) . y) = tau(x . S(y)).

    The hermitian basis elements are hermitian and orthonormal, so the
    pairing of coordinates a, b there is tau(x y) = a^T W b, W the diagonal
    of the trace weights, and the dual of H is W^-1 H^T W: for block-mixing
    maps (classical kernels on non-uniform weights) the weight ratio enters
    entrywise.
    """
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
    herm = s._hermitian.T * _weight_ratio(s.algebra)
    return SuperOperator.from_hermitian(s.algebra, herm, source=s.source, attestations=att)


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

    def vec_block(i):
        # sum_j kron(K_j^T, K_j*) as one product of the stacked operators:
        # T[(a, b), (c, d)] = sum_j K_j[a, b] conj(K_j[c, d]), permuted
        n = algebra.blocks[i]
        stack = np.stack([k.block_mats[i] for k in ops]).reshape(len(ops), n * n)
        t = stack.T @ stack.conj()
        return t.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)

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
    herm = _real_block_diagonal(algebra, vec_block)
    return SuperOperator.from_hermitian(algebra, herm, source="kraus", attestations=att)


def _real_block_diagonal(algebra, vec_block):
    """The real hermitian-basis matrix of a map that is block diagonal in vec
    coordinates, with diagonal block ``vec_block(i)`` on algebra block i, and
    that maps self-adjoint elements to self-adjoint ones (a Kraus map or a
    conjugation), so its imaginary part is rounding and is dropped.

    B is block diagonal and mixes entrywise within a block, so converting
    each block within its block is bitwise the conversion of the whole
    matrix; no complex array is larger than a block's, and each vec block
    is dropped once its rows are mixed.
    """
    herm = np.zeros((algebra.dim, algebra.dim))
    for i, n in enumerate(algebra.blocks):
        lo, hi = algebra._offsets[i], algebra._offsets[i + 1]
        rows = _mix(vec_block(i), (n,), "B*", 0)
        herm[lo:hi, lo:hi] = _mix(rows, (n,), "B^T", 1).real
    return herm


def from_classical(algebra, kernel):
    """Markov-kernel map (L f)(i) = sum_j k[i, j] f(j) on a diagonal algebra.

    Rows must be nonnegative and substochastic.  Positive maps into or out of
    a commutative algebra are automatically completely positive, so the CP
    attestation is by construction.
    """
    if not algebra.is_commutative:
        raise ValueError("classical kernels require a commutative algebra")
    kernel = np.array(kernel, dtype=float)
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
    # one-dimensional blocks: B = 1, and the kernel is the map's matrix
    return SuperOperator.from_hermitian(
        algebra, kernel, source="classical-kernel", attestations=att
    )


def from_conjugation(algebra, u):
    """The automorphism x -> u x u* for a blockwise unitary u."""
    if not isinstance(u, Operator):
        u = algebra.operator(u)
    if u.algebra != algebra:
        raise ValueError("unitary lives in a different algebra")
    for n, m in zip(algebra.blocks, u.block_mats):
        if np.linalg.norm(m @ m.conj().T - np.eye(n), 2) > UNITARY_TOL:
            raise ValueError("conjugation requires a unitary within 1e-12")
    att = {
        "complete-positivity": CheckReport("complete-positivity", "pass"),
        "subunital": CheckReport("subunital", "pass"),
        "contraction": CheckReport("contraction", "pass"),
        "lamperti": CheckReport(
            "lamperti", "pass", detail={"derived": "automorphism"}
        ),
        "trace-preserving": CheckReport("trace-preserving", "pass"),
    }
    mats = u.block_mats
    herm = _real_block_diagonal(algebra, lambda i: np.kron(mats[i].conj(), mats[i]))
    return SuperOperator.from_hermitian(algebra, herm, source="conjugation", attestations=att)


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
    image = s(one)
    if s.positivity_certified:
        return _positive_contraction_report(image)
    norm1 = op_norm(image)
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


def _positive_contraction_report(image):
    """The exact contraction verdict of a positive map with unit image ``image``."""
    norm1 = op_norm(image)
    verdict = "pass" if norm1 <= 1.0 + CONTRACTION_SLACK else "fail"
    witness = None if verdict == "pass" else (image.algebra.identity(),)
    return CheckReport(
        "contraction", verdict, witness=witness, detail={"norm_of_unit_image": norm1}
    )


def _flow_contraction_report(image, scale):
    """The contraction verdict of a flow generator L whose observable-picture
    image of the unit is ``image`` = L_h(1) = d/dt e^{tL_h}(1) at t = 0: a
    positive contraction semigroup has L_h(1) <= 0, so an eigenvalue above
    the slack times the flow scale ``scale`` = max(1, ||L||_2) fails (the
    rounding of L_h(1) grows with ||L||); positivity is not certified, so
    the verdict is at best "unknown"."""
    top = max(float(lam[-1]) for lam, _ in image.eigh())
    verdict = "unknown" if top <= CONTRACTION_SLACK * scale else "fail"
    witness = None if verdict == "unknown" else (image.algebra.identity(),)
    return CheckReport(
        "contraction",
        verdict,
        witness=witness,
        detail={"max_eigenvalue_of_unit_image": top, "generator_scale": scale},
    )


def _herm_norm_estimate(s, rng, iters=200):
    """Dominant singular value of S restricted to hermitian elements: of the
    real part of its hermitian-basis matrix."""
    R = s.hermitian().real
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
    h_star = s.algebra.from_vec(_to_vec(s.algebra, v))
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
    """Pairwise commutation of superoperators within 1e-10 (norm-scaled), on
    their hermitian-basis matrices (B is unitary, so the norms are those of
    the vec-coordinate ones)."""
    mats = [m.hermitian() for m in maps]
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
