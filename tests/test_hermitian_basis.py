"""The hermitian basis: the basis change, the real generator matrices, and
the spectral work that runs on them.

The spectral layer (null spaces, projectors, group inverses, residuals,
spectra, walks) runs on the real matrices B* S B of the generators in the
orthonormal hermitian matrix units.  These tests check the basis change
itself, that every accepted generator source gives a real matrix, that the
results match a complex vec-coordinate oracle written here, and that the
sign gauge of the fixed basis does not follow the BLAS thread count.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmark_workloads import SRC, WORKLOADS, workloads
from neveukit import neveu, scenarios
from neveukit.algebra import TracialAlgebra, _to_hermitian, _to_vec, _vec_norm1, trace
from neveukit.cli import main
from neveukit.dynamics import FolnerScheme, GeneratorError, SemigroupAction
from neveukit.maps import SuperOperator, dual, from_classical, from_conjugation, from_kraus
from neveukit.neveu import MeanErgodicValidationError, mean_ergodic_projection

WEIGHTED_BLOCKS = st.lists(
    st.tuples(st.integers(1, 3), st.floats(0.05, 2.0)), min_size=1, max_size=3
)


def weighted_algebra(blocks):
    return TracialAlgebra([n for n, _ in blocks], [w for _, w in blocks])


def hermitian_units(algebra):
    """B by its definition: E_ii at the vec position of (i, i), and
    (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2), i < j, at those of
    (i, j) and (j, i)."""
    cols = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    off = 0
    for b, n in enumerate(algebra.blocks):
        for i in range(n):
            for j in range(n):
                e_ij = algebra.basis_element(b, i, j).vec()
                e_ji = algebra.basis_element(b, j, i).vec()
                position = off + j * n + i  # column-stacked (i, j)
                if i == j:
                    cols[:, position] = e_ij
                elif i < j:
                    cols[:, position] = (e_ij + e_ji) / np.sqrt(2)
                else:
                    cols[:, position] = 1j * (e_ji - e_ij) / np.sqrt(2)
        off += n * n
    return cols


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / abs(np.diag(r)))


def random_generator(algebra, kind, rng):
    """A Heisenberg-picture action of one generator of the source ``kind``."""
    zplus = FolnerScheme("zplus-box", d=1)
    def gaussian(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    if kind == "kraus":
        gs = [[gaussian(n) for n in algebra.blocks] for _ in range(3)]
        total = [sum(g[b].conj().T @ g[b] for g in gs) for b in range(algebra.n_blocks)]
        scale = 1.0 / np.sqrt(max(np.linalg.eigvalsh(t).max() for t in total) * 1.01)
        gen = from_kraus(algebra, [[m * scale for m in g] for g in gs])
    elif kind == "classical":
        kernel = rng.random((algebra.n_blocks,) * 2)
        kernel /= kernel.sum(axis=1, keepdims=True) * rng.uniform(1.0, 1.2)
        gen = from_classical(algebra, kernel)
    elif kind == "conjugation":
        # eigenphases at least pi / n apart, so the group inverse stays bounded
        blocks = []
        for n in algebra.blocks:
            v = random_unitary(n, rng)
            phases = 2 * np.pi * (rng.permutation(n) + 0.5 * rng.random(n)) / n
            blocks.append((v * np.exp(1j * phases)) @ v.conj().T)
        gen = from_conjugation(algebra, blocks)
    else:
        # GKLS: x -> i[H, x] + C* x C - (C*C x + x C*C)/2
        h = algebra.random_hermitian(rng)
        c = algebra.operator([gaussian(n) / n for n in algebra.blocks])
        cc = c.H @ c
        cols = []
        for e in np.eye(algebra.dim):
            x = algebra.from_vec(e)
            moved = (h @ x - x @ h) * 1j + c.H @ x @ c - (cc @ x + x @ cc) * 0.5
            cols.append(moved.vec())
        flow = FolnerScheme("r-plus-cube", d=1)
        return SemigroupAction(algebra, "heisenberg", flow, [np.column_stack(cols)])
    return SemigroupAction(algebra, "heisenberg", zplus, [gen])


def vec_oracle(action, tol=1e-9):
    """E, kappa, rank and spectrum of a one-generator action, all in complex
    vec coordinates: the null vectors of G = S - 1 (L for a flow) by a
    complex SVD cut at tol * max(1, sigma_max), P = X (F X)^+ F, kappa =
    ||(P - G)^-1||_1, the rank as the trace of P, and the eigenvalues of G."""
    (m,) = action.matrices
    flow = action.scheme.kind == "r-plus-cube"
    g = m if flow else m - np.eye(len(m))
    u, sig, vh = np.linalg.svd(g)
    r = int(np.sum(sig > tol * max(1.0, sig[0])))
    x, f = vh[r:].conj().T, u[:, r:].conj().T
    p = x @ np.linalg.pinv(f @ x) @ f
    kappa = np.linalg.norm(np.linalg.inv(p - g), 1)
    return p, kappa, int(round(np.trace(p).real)), np.linalg.eigvals(g)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    blocks=WEIGHTED_BLOCKS,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["kraus", "classical", "conjugation", "gkls"]),
)
def test_the_spectral_work_in_the_hermitian_basis_matches_a_vec_oracle(blocks, seed, kind):
    """The basis change is unitary and is the matrix units of its
    definition; every generator source gives a real matrix up to rounding,
    and so does its dual; E, kappa and the rank match the complex
    vec-coordinate oracle, and the gap 1/kappa lies below every nonzero
    |lambda(G)| of its spectrum, all but the rank zeros."""
    algebra = weighted_algebra(blocks)
    if kind == "classical":
        algebra = TracialAlgebra.commutative([w for n, w in blocks for _ in range(n)])
    dim = algebra.dim
    b = _to_vec(algebra, np.eye(dim))
    assert np.abs(b - hermitian_units(algebra)).max() <= 1e-15
    assert np.abs(b.conj().T @ b - np.eye(dim)).max() <= 1e-15
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.abs(_to_hermitian(algebra, z[:, 0]) - b.conj().T @ z[:, 0]).max() <= 1e-15 * dim
    assert np.abs(_to_hermitian(algebra, z, matrix=True) - b.conj().T @ z @ b).max() <= 1e-14 * dim
    assert np.abs(_to_vec(algebra, z, matrix=True) - b @ z @ b.conj().T).max() <= 1e-14 * dim

    action = random_generator(algebra, kind, rng)
    for act in (action, action.dual()):
        (m,) = act.matrices
        herm = b.conj().T @ m @ b
        assert np.abs(herm.imag).max() <= 1e-14 * max(1.0, np.abs(m).max())
        (real,) = act.real
        assert real.dtype == float
        assert np.abs(real - herm.real).max() <= 1e-14 * max(1.0, np.abs(m).max())

    p, kappa, rank, spectrum = vec_oracle(action)
    proj = mean_ergodic_projection(action)
    assert proj.rank == rank
    assert proj.cross_validation["kappa"] == pytest.approx(kappa, rel=1e-9)
    assert np.linalg.norm(proj.superop.matrix - p, "fro") <= 1e-12 * max(1.0, kappa)
    # the eigenvalue 0 of G is semisimple, with multiplicity the rank
    nonzero = np.sort(np.abs(spectrum))[rank:]
    (gap,) = proj.gaps
    assert gap <= nonzero.min(initial=np.inf) * (1.0 + 1e-9)


def pairing_matrix(algebra):
    """G[u, v] = tau(e_u e_v), e_u the element whose vec coordinates are the
    unit vector u: the pairing tau(x y) = vec(x)^T G vec(y) by its
    definition."""
    units = [algebra.from_vec(e) for e in np.eye(algebra.dim)]
    return np.array([[trace(a @ b) for b in units] for a in units])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(blocks=WEIGHTED_BLOCKS, seed=st.integers(0, 2**32 - 1), adjoints=st.booleans())
def test_a_map_held_in_the_hermitian_basis_matches_its_vec_matrix(blocks, seed, adjoints):
    """For a random complex vec-coordinate matrix V (with ``adjoints``, its
    part that maps self-adjoint elements to self-adjoint ones, held as a
    real hermitian-basis matrix), SuperOperator(algebra, V) applies as
    V vec(x) within 1e-13 relative, gives V back as its matrix, and dual(s),
    dual(dual(s)) and s @ t match their vec-coordinate oracles: G^-1 V^T G
    by the definition of the pairing, V, and V U."""
    algebra = weighted_algebra(blocks)
    dim, w = algebra.dim, algebra.weight_vec
    rng = np.random.default_rng(seed)

    def random_map():
        v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if adjoints:
            v = _to_vec(algebra, _to_hermitian(algebra, v, matrix=True).real, matrix=True)
        s = SuperOperator(algebra, v)
        assert (s.real_hermitian().dtype == float) if adjoints else np.iscomplexobj(s.hermitian())
        return v, s

    def assert_close(got, want, scale):
        assert np.linalg.norm(got - want) <= 1e-13 * scale

    (v, s), (u, t) = random_map(), random_map()
    norm_v, spread = np.linalg.norm(v, 2), w.max() / w.min()
    for _ in range(3):
        x = algebra.from_vec(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        assert_close(s(x).vec(), v @ x.vec(), norm_v * np.linalg.norm(x.vec()))
    assert_close(s.matrix, v, norm_v)
    g = pairing_matrix(algebra)
    assert_close(dual(s).matrix, np.linalg.solve(g, v.T @ g), norm_v * spread)
    assert_close(dual(dual(s)).matrix, v, norm_v * spread)
    assert_close((s @ t).matrix, v @ u, norm_v * np.linalg.norm(u, 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_vec_norm1_is_the_one_norm_of_the_complex_vec_matrix(blocks, seed):
    """kappa's norm read off a real hermitian-basis matrix equals the 1-norm
    of its complex vec-coordinate matrix B a B*, over block structures."""
    algebra = TracialAlgebra(blocks, [1.0] * len(blocks))
    a = np.random.default_rng(seed).standard_normal((algebra.dim, algebra.dim))
    want = np.linalg.norm(_to_vec(algebra, a, matrix=True), 1)
    assert _vec_norm1(algebra, a) == pytest.approx(want, rel=1e-13)


def test_a_generator_that_does_not_preserve_adjoints_is_refused():
    """x -> i x maps the hermitian 1 to the anti-hermitian i: its
    hermitian-basis matrix is imaginary, and the action names the generator."""
    algebra = TracialAlgebra.full_matrix(2)
    good = from_conjugation(algebra, [np.diag([1.0, 1j])])
    bad = SuperOperator(algebra, 1j * np.eye(4))
    scheme = FolnerScheme("zplus-box", d=2)
    with pytest.raises(GeneratorError, match=r"^generators\[1\]: does not map") as exc:
        SemigroupAction(algebra, "heisenberg", scheme, [good, bad])
    assert exc.value.index == 1
    flow = FolnerScheme("r-plus-cube", d=1)
    with pytest.raises(GeneratorError, match=r"^generators\[0\]: "):
        SemigroupAction(algebra, "heisenberg", flow, [1j * np.eye(4)])


def test_a_flow_generator_that_does_not_preserve_adjoints_exits_two(tmp_path, capsys):
    doc = scenarios._gallery_doc("lindblad-rplus")
    n = len(doc["action"]["generators"][0]["payload"]["matrix"])
    # L = i/2: L(1) = i/2 is not self-adjoint
    doc["action"]["generators"][0]["payload"]["matrix"] = [
        [[0.0, 0.5 if i == j else 0.0] for j in range(n)] for i in range(n)
    ]
    path = tmp_path / "not-adjoint-preserving.scn"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: action.generators[0]: does not map self-adjoint elements" in err
    assert "Traceback" not in err


def test_the_derived_picture_holds_the_real_matrices_of_the_duals():
    """dual() reads each real matrix off the dual map, bitwise that of
    dual(s), and twice it gives the real matrices back: on the gallery, and
    on the benchmark's gallery and large-d documents."""
    actions = [sc.action for sc in scenarios.gallery()]
    gen = workloads()
    for workload in ("gallery", "large-d"):
        actions += [
            scenarios.scenario_from_dict(doc).action
            for doc in gen.generated_docs(workload, 1)
        ]
    for action in actions:
        other = action.dual()
        for i, s in enumerate(action.generators):
            assert np.array_equal(other.real[i], dual(s).hermitian())
        for got, want in zip(other.dual().real, action.real):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_the_benchmark_flows_load_with_an_unknown_contraction():
    """The GKLS generators of the benchmark's flow documents have L_h(1) = 0
    up to rounding, so they load; positivity is not certified, so their
    contraction stays "unknown"."""
    for doc in workloads().generated_docs("flow", 1):
        check = scenarios.scenario_from_dict(doc).action.checks["contraction"]
        assert check.verdict == "unknown", doc["name"]


def test_a_derived_picture_gives_back_its_source_without_a_cycle():
    """dual() of a derived picture is the action it was derived from, on the
    gallery and on the benchmark's gallery and large-d documents; the source
    holds no reference to it, so it is freed without a garbage collection."""
    gen = workloads()
    docs = [scenarios._gallery_doc(name) for name in scenarios.GALLERY_NAMES]
    docs += gen.generated_docs("gallery", 1) + gen.generated_docs("large-d", 1)
    for doc in docs:
        action = scenarios.scenario_from_dict(doc).action
        assert action.dual().dual() is action
        derived = action.dual()
        ref = weakref.ref(derived)
        derived._summands()
        del derived
        assert ref() is None


def test_a_projector_that_does_not_preserve_adjoints_fails_its_residuals():
    """A perturbation of E that is imaginary in the hermitian basis (so it
    does not preserve adjoints) leaves the real part of E exact; the residual
    bounds in the imaginary part still refuse it, in both pictures: in the
    observable one as the dual of the noisy E, in the density one on the
    factors of the noisy E itself."""
    algebra = TracialAlgebra.full_matrix(2)
    g = 0.5
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    ad = from_kraus(algebra, [[k0], [k1]])
    heis = SemigroupAction(algebra, "heisenberg", FolnerScheme("zplus-box", d=1), [ad])
    schr = mean_ergodic_projection(heis.to_picture("schrodinger"))
    noise = np.random.default_rng(11).standard_normal((4, 4))
    noise *= 1e-8 / np.linalg.norm(noise, 2)
    imaginary = _to_vec(algebra, 1j * noise, matrix=True)
    noisy = SuperOperator(algebra, schr.superop.matrix + imaginary)
    assert np.abs(noisy.hermitian().real - schr.superop.hermitian()).max() <= 1e-15
    with pytest.raises(MeanErgodicValidationError, match="residuals"):
        neveu._dual_projection(dataclasses.replace(schr, superop=noisy), heis)
    # the density picture's check on its own factors of the noisy E
    action = heis.to_picture("schrodinger")
    w = algebra.weight_vec
    x = np.column_stack([_to_hermitian(algebra, b.vec()).real for b in schr.fixed_basis])
    e = noisy.hermitian()
    gens = action.conditions
    with pytest.raises(MeanErgodicValidationError, match="residuals"):
        neveu._validated(action, gens, x, x.T @ (w[:, None] * e), e)


def gauge_holds(algebra, elements):
    """Each element x has tau(x) > 1e-10, or |tau(x)| <= 1e-10 and its
    first largest-modulus hermitian-basis coordinate is positive."""
    for x in elements:
        t = trace(x).real
        coords = _to_hermitian(algebra, x.vec()).real
        mags = np.abs(coords)
        lead = coords[np.argmax(mags >= (1 - 1e-9) * mags.max())]
        if not (t > 1e-10 or (abs(t) <= 1e-10 and lead > 0)):
            return False
    return True


@pytest.mark.parametrize("scenario", scenarios.gallery(), ids=lambda sc: sc.name)
def test_fixed_bases_are_hermitian_in_the_sign_gauge(scenario):
    """Both pictures' fixed and dual bases are exactly hermitian, and each
    fixed-basis element is in the sign gauge."""
    schr = mean_ergodic_projection(scenario.action.to_picture("schrodinger"))
    heis = neveu._dual_projection(schr, scenario.action.to_picture("heisenberg"))
    for proj in (schr, heis):
        for x in proj.fixed_basis + proj.dual_basis:
            for m in x.block_mats:
                assert np.array_equal(m, m.conj().T)
        assert gauge_holds(scenario.algebra, proj.fixed_basis)


M16_MEAN = """
import importlib.util, json, sys
import numpy as np
from neveukit import neveu, scenarios

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
doc = workloads.star_damping_doc("M16", [16], [1 / 16], np.random.default_rng(1))
doc["tasks"] = ["mean"]
sc = scenarios.scenario_from_dict(doc)
mean = scenarios.run(sc).data["results"]["mean"]
schr = neveu.mean_ergodic_projection(sc.action.to_picture("schrodinger"))


def planes(blocks):
    return [[m.tolist() for m in (b.real, b.imag)] for b in blocks]


# the report's packed bases decoded, beside the density-picture projection's
print(json.dumps({
    "heisenberg": [
        planes([scenarios._unpack(x[0]) for x in mean[key]])
        for key in ("fixed_basis", "dual_basis")
    ],
    "schrodinger": [
        planes([x.block_mats[0] for x in basis])
        for basis in (schr.fixed_basis, schr.dual_basis)
    ],
}))
"""


def test_m16_star_damping_bases_keep_their_signs_across_blas_threads():
    """The rank-1 mean projection of star damping on M_16: its fixed and
    dual bases, in both pictures, are equal within 1e-12 at one and at two
    OpenBLAS threads (the LAPACK gauge of the SVD flipped their sign)."""
    found = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        env.pop("OMP_NUM_THREADS", None)
        done = subprocess.run(
            [sys.executable, "-c", M16_MEAN, WORKLOADS], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        found.append(json.loads(done.stdout.splitlines()[-1]))
    for picture in ("heisenberg", "schrodinger"):
        one, two = (np.array(f[picture], dtype=float) for f in found)
        assert one.shape == two.shape
        assert np.abs(one - two).max() <= 1e-12, picture
