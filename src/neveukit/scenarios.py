"""Scenario files, analysis reports, and the curated gallery.

A scenario is a JSON document (conventionally ``*.scn``) describing an
algebra, an action, and a task list; the schema ships with the package and
is enforced on load by the package's own checker, which implements exactly
the keywords the schema uses and reports jsonschema's messages.  A scenario
writes its matrices as nested lists with complex scalars encoded ``[re,
im]``.  Running a scenario produces a :class:`Report` whose payload is plain
JSON.  Report schema 2.0 writes every matrix a report carries (each block of
a result element, and each payload matrix of the echoed scenario) packed:
``{"c16le": <base64 of its little-endian complex128 bytes, row-major>,
"shape": [n, m]}`` (see :func:`_pack` and :func:`_unpack`); every scalar and
every list of key numbers stays a JSON number.  A report
records the seed, but no run draws from it yet: the seed changes only that
field.  The wall-clock field is excluded from :meth:`Report.canonical_bytes`.
Report schema 1.3 keeps the ``decay``, ``invariance`` and ``wandering``
verdicts of the decomposition and adds ``detail.support_margin``.  Report
schema 1.4 replaces the generator spectra by ``results.spectrum.gaps``:
1/kappa_i for generator i, a certified lower bound on every nonzero
|lambda(G_i)| (see :func:`neveukit.neveu._group_inverse`), null for a
finite group or when the projection raised; the mean residuals are upper
bounds read off the factors of E.  Report schema 1.1 writes the
mean ergodic projection by its rank-r factors, E(y) = sum_i tau(psi_i y)
x_i: ``results.mean.fixed_basis`` holds the tau-orthonormal fixed points x_i
and ``results.mean.dual_basis`` the conserved functionals psi_i of the dual
action (conserved observables when the scenario is in the density picture),
with ``factor_residual`` the Frobenius gap between the factored and the
dense E.  :func:`render` turns a report into the text of one format, and
:func:`emit` writes that text to a file, by a temp file and a rename unless
the target is a FIFO, a device or a symlink; the command line prints the
same text when no output file is given.

Formats understood by :func:`render` and :func:`emit`:

* ``report-json``   the full report: its canonical JSON with the wall clock
* ``decay-csv``     the decay schedule of the decomposition task
* ``spectrum-csv``  the certified gap of each generator (rows ``gap``)
                    and the invariant density spectrum when a
                    decomposition ran (rows ``invariant-density``)
"""

from __future__ import annotations

import base64
import cmath
import functools
import importlib.resources
import json
import numbers
import os
import re
import stat
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import convergence, neveu
from .algebra import TracialAlgebra, op_norm
from .dynamics import FolnerScheme, GeneratorError, SemigroupAction, _average_stacks
from .maps import (
    PreconditionError,
    dual,
    from_classical,
    from_conjugation,
    from_kraus,
    from_matrix,
)

__all__ = [
    "Scenario",
    "Report",
    "ScenarioError",
    "load_scenario",
    "scenario_from_dict",
    "run",
    "render",
    "emit",
    "load_report",
    "gallery",
    "gallery_names",
]

SCHEMA_VERSION = "2.0"
DEFAULT_TOLERANCES = {
    "eps": 0.25,
    "delta": 0.1,
    "decay_tol": 1e-6,
    "delta_tol": 1e-6,
    "tol_fixed": 1e-9,
}
GALLERY_NAMES = (
    "identity",
    "amplitude-damping",
    "depolarizing",
    "swap-automorphism",
    "classical-transient-chain",
    "zplus2-two-channels",
    "lindblad-rplus",
    "non-lamperti-witness",
)


class ScenarioError(ValueError):
    """A scenario file failed schema or semantic validation."""


def _data_root():
    return importlib.resources.files("neveukit") / "data"


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
_TYPES |= {"number": numbers.Number, "integer": int}
_KEYWORDS = {"$schema", "title", "description", "type", "enum", "required", "properties"}
_KEYWORDS |= {"additionalProperties", "items", "minItems", "minLength", "pattern"}
_KEYWORDS |= {"minimum", "exclusiveMinimum"}


def _is(x, name):
    """Whether ``x`` has the schema type ``name``, as Draft 2020-12 reads it:
    1.0 is an integer, True is not a number, NaN is a number."""
    if name == "integer" and isinstance(x, float):
        return x.is_integer()
    return isinstance(x, _TYPES[name]) and (name == "boolean" or not isinstance(x, bool))


def _supported(schema):
    """``schema``, after checking that :func:`_errors` implements all of it:
    no other keyword, string enums and ``additionalProperties: false``."""
    if (
        not set(schema) <= _KEYWORDS
        or not all(isinstance(v, str) for v in schema.get("enum", []))
        or schema.get("additionalProperties", False) is not False
    ):
        raise NotImplementedError(f"scenario schema: unsupported {schema!r}")
    for sub in [*schema.get("properties", {}).values(), schema.get("items")]:
        if sub is not None:
            _supported(sub)
    return schema


def _errors(schema, x, path=()):
    """The ``(path, message)`` errors of ``x`` under ``schema``, in the order
    and with the messages of jsonschema's ``Draft202012Validator``."""
    obj, arr, text = isinstance(x, dict), isinstance(x, list), isinstance(x, str)
    num = _is(x, "number")
    for key, want in schema.items():
        if key == "type" and not _is(x, want):
            yield path, f"{x!r} is not of type {want!r}"
        elif key == "enum" and not (text and x in want):
            yield path, f"{x!r} is not one of {want!r}"
        elif key == "required" and obj:
            yield from ((path, f"{p!r} is a required property") for p in want if p not in x)
        elif key == "additionalProperties" and obj:
            extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
            if extras:
                names = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
                yield path, f"Additional properties are not allowed ({names} unexpected)"
        elif key == "properties" and obj:
            for name, sub in want.items():
                if name in x:
                    yield from _errors(sub, x[name], path + (name,))
        elif key == "items" and arr:
            for i, item in enumerate(x):
                yield from _errors(want, item, path + (i,))
        elif key == "minItems" and arr or key == "minLength" and text:
            if len(x) < want:
                yield path, f"{x!r} {'should be non-empty' if want == 1 else 'is too short'}"
        elif key == "pattern" and text and not re.search(want, x):
            yield path, f"{x!r} does not match {want!r}"
        elif key == "minimum" and num and x < want:
            yield path, f"{x!r} is less than the minimum of {want!r}"
        elif key == "exclusiveMinimum" and num and x <= want:
            yield path, f"{x!r} is less than or equal to the minimum of {want!r}"


@functools.cache
def _validator():
    """The scenario schema's error walk, read and checked once per process."""
    with (_data_root() / "scenario.schema.json").open("r", encoding="utf-8") as fh:
        schema = _supported(json.load(fh))
    return functools.partial(_errors, schema)


# ---------------------------------------------------------------------------
# JSON <-> operators
# ---------------------------------------------------------------------------


def _decode_complex(v, where):
    pair = isinstance(v, list) and len(v) == 2 and all(isinstance(t, (int, float)) for t in v)
    if not (pair or isinstance(v, (int, float))):
        raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {v!r}")
    z = complex(*v) if pair else complex(v)
    if not cmath.isfinite(z):
        raise ScenarioError(f"{where}: entry must be finite, got {v!r}")
    return z


def _decode_matrix(rows, where):
    """A complex matrix from rows of numbers or [re, im] pairs: one
    ``np.array`` call when that gives a finite real (n, m) or (n, m, 2)
    array, else the per-entry walk, which names a bad entry."""
    if not isinstance(rows, list) or not rows:
        raise ScenarioError(f"{where}: expected a nonempty matrix")
    try:
        a = np.array(rows)
    except (ValueError, TypeError, OverflowError):  # ragged, or numbers and pairs
        return _decode_entries(rows, where)
    if a.dtype.kind in "biuf" and a.ndim > 1 and a.shape[2:] in ((), (2,)):
        if np.isfinite(a).all():
            # a complex view of the pairs keeps the sign of a zero real part
            a = np.ascontiguousarray(a, dtype=np.float64)
            return a.astype(complex) if a.ndim == 2 else a.view(complex)[..., 0]
    return _decode_entries(rows, where)


def _decode_entries(rows, where):
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ScenarioError(f"{where}: row {i} is not a list")
        out.append([_decode_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
        if len(row) != len(out[0]):
            raise ScenarioError(f"{where}: row {i} has length {len(row)} != {len(out[0])}")
    return np.array(out, dtype=complex)


def _decode_element(algebra, blocks, where):
    if not isinstance(blocks, list) or len(blocks) != algebra.n_blocks:
        raise ScenarioError(
            f"{where}: expected {algebra.n_blocks} block matrices"
        )
    mats = []
    for b, m in enumerate(blocks):
        mat = _decode_matrix(m, f"{where}.block{b}")
        if mat.shape != (algebra.blocks[b], algebra.blocks[b]):
            raise ScenarioError(
                f"{where}.block{b}: shape {mat.shape} != "
                f"({algebra.blocks[b]}, {algebra.blocks[b]})"
            )
        mats.append(mat)
    return algebra.operator(mats)


def _encode_complex(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pack(m):
    """A matrix as a report writes it: ``{"c16le": ..., "shape": [n, m]}``,
    the base64 of its little-endian complex128 bytes in row-major order, so
    the entries are exact and cost no float repr each."""
    m = np.ascontiguousarray(m, dtype="<c16")
    return {"c16le": base64.b64encode(m).decode("ascii"), "shape": list(m.shape)}


def _unpack(obj):
    """The complex matrix of a packed ``obj`` (read-only, bitwise the one
    packed); a blob that is not base64, a shape that is not two
    non-negative ints, or a byte length that does not match the shape
    raises ValueError."""
    if not isinstance(obj, dict) or set(obj) != {"c16le", "shape"}:
        raise ValueError(f"packed matrix: expected keys c16le and shape, got {obj!r:.80}")
    shape, blob = obj["shape"], obj["c16le"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"packed matrix: shape must be two non-negative ints, got {shape!r}")
    try:
        data = base64.b64decode(blob, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, not ASCII, or binascii.Error
        raise ValueError(f"packed matrix: c16le is not base64: {exc}") from exc
    if len(data) != 16 * shape[0] * shape[1]:
        raise ValueError(
            f"packed matrix: {len(data)} bytes do not hold a complex {shape[0]} x {shape[1]} matrix"
        )
    return np.frombuffer(data, dtype="<c16").reshape(shape)


def _pack_element(x):
    return [_pack(m) for m in x.block_mats]


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    raw: dict
    # the document as a report echoes it: ``raw`` with each payload matrix
    # packed (see _pack), sharing every other field with ``raw``
    echo: dict
    algebra: TracialAlgebra
    action: SemigroupAction
    tasks: list
    schedule: list
    tolerances: dict
    seed: int


# the one key of each generator source's payload
PAYLOAD_KEYS = {
    "kraus": "operators",
    "conjugation": "unitary",
    "classical-kernel": "kernel",
    "matrix": "matrix",
    "flow-generator": "matrix",
}


def _build_generator(algebra, picture, where, source, value):
    """The generator of one source, and its payload value with each matrix
    packed from the array decoded here."""
    try:
        if source == "classical-kernel":
            kernel = _decode_matrix(value, f"{where}.kernel")
            if np.abs(kernel.imag).max() > 0:
                raise ScenarioError(f"{where}.kernel: kernel must be real")
            return from_classical(algebra, kernel.real), _pack(kernel)
        if source in ("matrix", "flow-generator"):
            mat = _decode_matrix(value, f"{where}.matrix")
            gen = mat if source == "flow-generator" else from_matrix(algebra, mat)
            return gen, _pack(mat)
        if source == "kraus":
            ops = [
                _decode_element(algebra, o, f"{where}.operators[{k}]")
                for k, o in enumerate(value)
            ]
            s, packed = from_kraus(algebra, ops), [_pack_element(o) for o in ops]
        else:
            u = _decode_element(algebra, value, f"{where}.unitary")
            s, packed = from_conjugation(algebra, u), _pack_element(u)
        return (dual(s) if picture == "schrodinger" else s), packed
    except (ValueError, ArithmeticError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{where}: {exc}") from exc


def _finite_tolerances(tolerances, origin):
    """The tolerances, after checking that every value is finite."""
    for key, value in tolerances.items():
        # the schema's exclusiveMinimum lets NaN and Infinity through
        if not cmath.isfinite(value):
            raise ScenarioError(
                f"{origin}: tolerances.{key}: must be finite, got {value!r}"
            )
    return tolerances


def scenario_from_dict(doc, origin="<dict>"):
    """Validate a scenario document and build its objects."""
    errors = sorted(_validator()(doc), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        path = "/".join(map(str, path)) or "<root>"
        raise ScenarioError(f"{origin}: at {path}: {message}")

    alg_spec = doc["algebra"]
    try:
        algebra = TracialAlgebra(
            alg_spec["blocks"], alg_spec["weights"], alg_spec.get("normalized")
        )
    except ValueError as exc:
        raise ScenarioError(f"{origin}: algebra: {exc}") from exc

    act = doc["action"]
    try:
        scheme = FolnerScheme(
            act["scheme"]["kind"],
            d=act["scheme"].get("d", 1),
            order=act["scheme"].get("order"),
            table=act["scheme"].get("table"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{origin}: scheme: {exc}") from exc

    picture = act["picture"]
    gens, echoed = [], []
    for idx, spec in enumerate(act["generators"]):
        where = f"action.generators[{idx}]"
        source, payload = spec["source"], spec["payload"]
        key = PAYLOAD_KEYS[source]
        if (source == "flow-generator") != scheme.flow:
            raise ScenarioError(
                f"{origin}: {where}: r-plus-cube schemes take exactly the "
                f"flow-generator sources"
            )
        if set(payload) != {key}:
            raise ScenarioError(
                f"{origin}: {where}.payload: a {source} payload has exactly the "
                f"key {key!r}, got {sorted(payload)}"
            )
        gen, packed = _build_generator(algebra, picture, where, source, payload[key])
        gens.append(gen)
        echoed.append({**spec, "payload": {key: packed}})
    try:
        action = SemigroupAction(algebra, picture, scheme, gens)
    except ValueError as exc:
        # a refused generator names itself: action.generators[i]
        sep = "." if isinstance(exc, GeneratorError) else ": "
        raise ScenarioError(f"{origin}: action{sep}{exc}") from exc
    rep = action.checks.get("contraction")
    if rep is not None and rep.verdict == "fail":
        (i,), why = rep.witness, {k: v for k, v in rep.detail.items() if k != "per_generator"}
        raise ScenarioError(f"{origin}: action.generators[{i}]: not a contraction: {why}")

    tolerances = _finite_tolerances(
        {**DEFAULT_TOLERANCES, **doc.get("tolerances", {})}, origin
    )
    schedule = list(doc.get("schedule", neveu.DEFAULT_SCHEDULE))
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ScenarioError(f"{origin}: schedule must be strictly ascending")
    return Scenario(
        name=doc["name"],
        raw=doc,
        echo={**doc, "action": {**act, "generators": echoed}},
        algebra=algebra,
        action=action,
        tasks=list(doc["tasks"]),
        schedule=schedule,
        tolerances=tolerances,
        seed=int(doc.get("seed", 0)),
    )


def load_scenario(path):
    """Read and validate a ``.scn`` scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(doc, origin=str(path))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _encode_field(key, value):
    """``"key":value`` in the canonical JSON, spelled by the C encoder."""
    return json.dumps({key: value}, sort_keys=True, separators=(",", ":"))[1:-1]


@dataclass
class Report:
    """The results of one run, a value: :meth:`canonical_bytes` and the
    report-json of :func:`render` encode each top-level field but ``meta``
    once, on first use, and keep its text, so ``data`` must not change once
    either has been taken.  Build a new report for other data.

    ``data`` is plain JSON in report schema 2.0: each matrix it carries (a
    block of a result element, a payload matrix of the echoed scenario) is
    a packed ``{"c16le", "shape"}`` object, which :func:`_unpack` decodes
    bitwise, so each costs one base64 string to encode, not a float repr
    per entry.

    The kept texts save work only for a report that is both rendered as
    report-json and asked for its canonical bytes, as a caller that writes
    a report and then hashes or compares it does; the command line renders
    each report once and never takes its canonical bytes."""

    data: dict
    _texts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def verdicts(self):
        return self.data.get("verdicts", {})

    @property
    def passed(self):
        return bool(self.verdicts) and all(
            v == "pass" for v in self.verdicts.values()
        )

    def _json(self, meta):
        """The canonical JSON of ``data`` with ``meta`` in place of its meta."""
        texts = self._texts
        for key in self.data.keys() - texts.keys() - {"meta"}:
            texts[key] = _encode_field(key, self.data[key])
        if "meta" in self.data:
            texts = {**texts, "meta": _encode_field("meta", meta)}
        return "{" + ",".join([texts[key] for key in sorted(texts)]) + "}"

    def canonical_bytes(self):
        """Deterministic serialisation; wall-clock timing is excluded."""
        meta = self.data.get("meta")
        if isinstance(meta, dict):
            meta = {k: v for k, v in meta.items() if k != "wall_clock_s"}
        return self._json(meta).encode()


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = str(data.get("schema_version", ""))
    if not version.startswith("2."):
        raise ValueError(
            f"report schema version {version!r} is not supported (need 2.x)"
        )
    return Report(data)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


# the certificates hold plain floats and ints (read off .tolist() or
# float()), so their payloads are not walked by _plain; only the tuples of
# a b.a.u. certificate become lists
def _certificate_payload(cert):
    return {
        "schedule": cert.schedule,
        "rows": cert.rows,
        "n0": cert.n0,
        "verdict": cert.verdict,
    }


def _bau_payload(cert):
    return {
        "schedule": cert.schedule,
        "theta": cert.theta,
        "excluded_mass": cert.excluded_mass,
        "witness_ranks": list(cert.witness_ranks),
        "tail": [list(point) for point in cert.tail],
        "final": cert.final,
        "slope": cert.slope,
        "verdict": cert.verdict,
    }


def _shared(compute):
    """A run-context property computed once: its value, or the exception it
    raised, is kept and given back (raised again) on every later read."""

    def get(ctx):
        if compute not in ctx._kept:
            try:
                ctx._kept[compute] = compute(ctx)
            except Exception as exc:
                ctx._kept[compute] = exc
        kept = ctx._kept[compute]
        if isinstance(kept, Exception):
            raise kept
        return kept

    return property(get)


class _RunContext:
    """The inputs and shared work of one run's tasks, computed on first use.

    A piece is computed once; if it raises, its exception is kept and raised
    again for every task that needs it, so they all record the same error.
    """

    def __init__(self, scenario, tolerances, schedule):
        self.scenario = scenario
        self.tolerances = tolerances
        self.schedule = schedule
        self.phi0 = neveu.reference_density(scenario.algebra)
        self._kept = {}

    @_shared
    def schr(self):
        return self.scenario.action.to_picture("schrodinger")

    @_shared
    def projection(self):
        return neveu.mean_ergodic_projection(
            self.schr, tol_fixed=self.tolerances["tol_fixed"]
        )

    @_shared
    def heisenberg_projection(self):
        # the dual of the density-picture projection, not a second one
        return neveu._dual_projection(self.projection, self.schr.dual())

    @_shared
    def walk(self):
        # one walk of phi0 serves the certify and the stochastic task
        return _average_stacks(self.schr, self.phi0, self.schedule)

    @_shared
    def decomposition(self):
        # the density picture gives back the scenario's Heisenberg action
        return neveu.neveu_decompose(
            self.schr, self.schedule,
            decay_tol=self.tolerances["decay_tol"], projection=self.projection,
        )


def _run_decompose(ctx, results):
    dec = ctx.decomposition
    if dec.invariant_density is not None:
        # the eigendecomposition that support() took of Y
        lam = np.concatenate([lam for lam, _ in dec.invariant_density.eigh()])
        results["spectrum"]["invariant_density"] = np.sort(lam).tolist()
    return {
        "e1": _pack_element(dec.e1),
        "e1_ranks": _plain(dec.e1.ranks),
        "e2": _pack_element(dec.e2),
        "e2_ranks": _plain(dec.e2.ranks),
        "invariant_density": (
            None if dec.invariant_density is None
            else _pack_element(dec.invariant_density)
        ),
        "decay": _plain(dec.decay),
        "slope": dec.slope,
        "verdicts": dec.verdicts,
        "detail": dec.detail,
    }, dec.overall


def _run_mean(ctx, results):
    if ctx.scenario.action.picture == "schrodinger":
        proj = ctx.projection
    else:
        proj = ctx.heisenberg_projection
    return {
        "rank": proj.rank,
        "residuals": proj.residuals,
        "cross_validation": proj.cross_validation,
        "fixed_basis": [_pack_element(b) for b in proj.fixed_basis],
        "dual_basis": [_pack_element(p) for p in proj.dual_basis],
        "factor_residual": proj.factor_residual,
    }, True


def _run_certify(ctx, results):
    target = ctx.projection(ctx.phi0)
    target = (target + target.H) * 0.5
    mc, bc = convergence._certify(
        ctx.schr.algebra,
        ctx.walk,
        target,
        ctx.schedule,
        ctx.tolerances["eps"],
        ctx.tolerances["delta_tol"],
        ctx.tolerances["delta"],
        ctx.tolerances["decay_tol"],
    )
    return {
        "measure": _certificate_payload(mc),
        "bau": _bau_payload(bc),
        "limit": _pack_element(target),
    }, mc.passed and bc.passed


def _run_stochastic(ctx, results):
    rep = convergence._stochastic_run(
        ctx.schr,
        ctx.phi0,
        ctx.schedule,
        ctx.tolerances["eps"],
        ctx.tolerances["delta"],
        ctx.decomposition,
        ctx.tolerances["decay_tol"],
        lambda schedule: ctx.walk,
    )
    return {
        "xbar": _pack_element(rep.xbar),
        "burn_in": rep.burn_in,
        "rows": rep.rows,
        "bau": _bau_payload(rep.bau),
        "measure": _certificate_payload(rep.measure),
        "verdicts": rep.verdicts,
        "detail": rep.detail,
    }, rep.passed


def _gaps(ctx):
    """1/kappa_i for each generator, from the group inverses that certify
    the density-picture projection (a generator and its dual have one
    spectrum), or None for a finite group or a projection that raised."""
    try:
        gaps = ctx.projection.gaps
    except (ValueError, ArithmeticError, PreconditionError):
        return None
    return None if gaps is None else list(gaps)


def _run_gallery_item(ctx, results):
    name = ctx.scenario.name
    if name not in GALLERY_NAMES:
        return {"error": f"{name!r} is not a gallery scenario"}, False
    same = json.dumps(_gallery_doc(name), sort_keys=True) == json.dumps(
        ctx.scenario.raw, sort_keys=True
    )
    return {"name": name, "matches_shipped": same}, same


# each task returns its payload and whether it passed
_TASKS = {
    "decompose": _run_decompose,
    "mean": _run_mean,
    "certify": _run_certify,
    "stochastic": _run_stochastic,
    "gallery-item": _run_gallery_item,
}


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialisation.

    Applied only where a tuple or a numpy scalar can arrive: the ranks and
    the decay points of a decomposition, and the tolerances, which a caller
    may give as numpy scalars.  Every other payload field is plain already.
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, complex):
        return _encode_complex(obj)
    return obj


def run(scenario, seed=None, tolerances=None, schedule=None):
    """Execute the scenario's tasks and assemble a report.

    A failing task (including precondition violations such as
    non-commuting generators) is recorded with its error and a "fail"
    verdict; remaining tasks still run.  The tasks share one run context,
    so the projection and the decomposition are computed at most once.  A
    non-finite tolerance override raises :class:`ScenarioError` before any
    task runs.
    """
    t0 = time.perf_counter()
    eff_seed = scenario.seed if seed is None else int(seed)
    eff_tol = _finite_tolerances(
        {**scenario.tolerances, **(tolerances or {})}, scenario.name
    )
    eff_schedule = list(schedule) if schedule is not None else list(scenario.schedule)

    ctx = _RunContext(scenario, eff_tol, eff_schedule)
    results = {"spectrum": {}}
    verdicts = {}
    for task in scenario.tasks:
        try:
            if task not in _TASKS:
                raise ScenarioError(f"unknown task {task!r}")
            results[task], passed = _TASKS[task](ctx, results)
            verdicts[task] = "pass" if passed else "fail"
        except (ValueError, ArithmeticError, PreconditionError) as exc:
            results[task] = {"error": str(exc), "error_type": type(exc).__name__}
            verdicts[task] = "fail"
    results["spectrum"]["gaps"] = _gaps(ctx)

    data = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "neveukit", "version": _version()},
        "scenario_name": scenario.name,
        "scenario": scenario.echo,
        "seed": eff_seed,
        "tolerances": _plain(eff_tol),
        "schedule": eff_schedule,
        "results": results,
        "verdicts": verdicts,
        "meta": {"wall_clock_s": time.perf_counter() - t0},
    }
    return Report(data)


def _version():
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x):
    return f"{float(x):.17g}"


def _write_text(path, text):
    """Write ``text`` to ``path``; a rename would replace a FIFO, a device or
    a symlink by a regular file, so those are written through."""
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render(report, fmt):
    """The report as text in the requested format.

    The report-json text is the canonical JSON of the whole report,
    ``json.dumps(report.data, sort_keys=True, separators=(",", ":"))``, plus
    a final newline: the canonical bytes with ``meta.wall_clock_s``, joined
    from the same encoded fields.  Its matrices are packed base64
    complex128 objects (see :class:`Report`), its scalars and key numbers
    JSON numbers.  CSV numbers carry 17 significant digits;
    lines end in LF.
    """
    if fmt == "report-json":
        text = report._json(report.data.get("meta")) + "\n"
    elif fmt == "decay-csv":
        dec = report.data.get("results", {}).get("decompose")
        if dec is None or "decay" not in dec:
            raise ValueError("report has no decomposition decay data")
        lines = ["a,norm"]
        for a, n in dec["decay"]:
            lines.append(f"{int(a)},{_fmt(n)}")
        text = "\n".join(lines) + "\n"
    elif fmt == "spectrum-csv":
        spec = report.data.get("results", {}).get("spectrum")
        if spec is None:
            raise ValueError("report has no spectrum data")
        lines = ["object,index,re,im"]
        for g, gap in enumerate(spec.get("gaps") or []):
            lines.append(f"gap,{g},{_fmt(gap)},{_fmt(0.0)}")
        for k, v in enumerate(spec.get("invariant_density", [])):
            lines.append(f"invariant-density,{k},{_fmt(v)},{_fmt(0.0)}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return text


def emit(report, fmt, out_path):
    """Write :func:`render` of the report to ``out_path`` (see :func:`_write_text`).

    The report-json text shares its encoded fields with the report's
    canonical bytes, so emitting and then taking them encodes each once.
    """
    _write_text(out_path, render(report, fmt))
    return out_path


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def _gallery_doc(name):
    path = _data_root() / f"{name}.scn"
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def gallery_names():
    return list(GALLERY_NAMES)


def gallery():
    """The shipped scenarios, loaded and validated."""
    return [
        scenario_from_dict(_gallery_doc(name), origin=f"gallery:{name}")
        for name in GALLERY_NAMES
    ]
