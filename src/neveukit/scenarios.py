"""Scenario files, analysis reports, and the curated gallery.

A scenario is a JSON document (conventionally ``*.scn``) describing an
algebra, an action, and a task list; the schema ships with the package and
is enforced on load.  Running a scenario produces a :class:`Report` whose
payload is plain JSON: matrices appear as nested lists with complex scalars
encoded ``[re, im]``.  Reports are deterministic for a fixed scenario and
seed up to the wall-clock field, which :meth:`Report.canonical_bytes`
excludes.  Report schema 1.1 writes the mean ergodic projection by its
rank-r factors, E(y) = sum_i tau(psi_i y) x_i: ``results.mean.fixed_basis``
holds the tau-orthonormal fixed points x_i and ``results.mean.dual_basis``
the conserved functionals psi_i of the dual action (conserved observables
when the scenario is in the density picture), with ``factor_residual`` the
Frobenius gap between the factored and the dense E.  :func:`render` turns
a report into the text of one format, and :func:`emit` writes that text to
a file atomically (temp file then rename); the command line prints the same
text when no output file is given.

Formats understood by :func:`render` and :func:`emit`:

* ``report-json``   the full report
* ``decay-csv``     the decay schedule of the decomposition task
* ``spectrum-csv``  generator superoperator spectra (and the invariant
                    density spectrum when a decomposition ran)
"""

from __future__ import annotations

import cmath
import functools
import importlib.resources
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import jsonschema
import numpy as np

from . import convergence, neveu
from .algebra import TracialAlgebra, op_norm
from .dynamics import FolnerScheme, SemigroupAction, _average_stacks
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

SCHEMA_VERSION = "1.2"
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


@functools.cache
def _validator():
    """The scenario schema's validator, read and built once per process."""
    with (_data_root() / "scenario.schema.json").open("r", encoding="utf-8") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


# ---------------------------------------------------------------------------
# JSON <-> operators
# ---------------------------------------------------------------------------


def _decode_complex(v, where):
    if isinstance(v, (int, float)):
        z = complex(v)
    elif (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(t, (int, float)) for t in v)
    ):
        z = complex(v[0], v[1])
    else:
        raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {v!r}")
    if not cmath.isfinite(z):
        raise ScenarioError(f"{where}: entry must be finite, got {v!r}")
    return z


def _decode_matrix(rows, where):
    if not isinstance(rows, list) or not rows:
        raise ScenarioError(f"{where}: expected a nonempty matrix")
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ScenarioError(f"{where}: row {i} is not a list")
        vals = [_decode_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ScenarioError(f"{where}: row {i} has length {len(vals)} != {width}")
        out.append(vals)
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


def _encode_matrix(m):
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def _encode_element(x):
    return [_encode_matrix(m) for m in x.block_mats]


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    raw: dict
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
    try:
        if source == "classical-kernel":
            kernel = _decode_matrix(value, f"{where}.kernel")
            if np.abs(kernel.imag).max() > 0:
                raise ScenarioError(f"{where}.kernel: kernel must be real")
            return from_classical(algebra, kernel.real)
        if source in ("matrix", "flow-generator"):
            mat = _decode_matrix(value, f"{where}.matrix")
            return mat if source == "flow-generator" else from_matrix(algebra, mat)
        if source == "kraus":
            ops = [
                _decode_element(algebra, o, f"{where}.operators[{k}]")
                for k, o in enumerate(value)
            ]
            s = from_kraus(algebra, ops)
        else:
            u = _decode_element(algebra, value, f"{where}.unitary")
            s = from_conjugation(algebra, u)
        return dual(s) if picture == "schrodinger" else s
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
    errors = sorted(_validator().iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ScenarioError(f"{origin}: at {path}: {err.message}")

    alg_spec = doc["algebra"]
    try:
        algebra = TracialAlgebra(alg_spec["blocks"], alg_spec["weights"])
    except ValueError as exc:
        raise ScenarioError(f"{origin}: algebra: {exc}") from exc
    if alg_spec.get("normalized", False):
        total = sum(w * n for w, n in zip(algebra.weights, algebra.blocks))
        if abs(total - 1.0) > 1e-12:
            raise ScenarioError(
                f"{origin}: algebra declared normalized but tau(1) = {total!r}"
            )

    act = doc["action"]
    kind = act["scheme"]["kind"]
    try:
        scheme = FolnerScheme(
            kind,
            d=act["scheme"].get("d", 1),
            order=act["scheme"].get("order"),
            table=act["scheme"].get("table"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{origin}: scheme: {exc}") from exc

    picture = act["picture"]
    gens = []
    for idx, spec in enumerate(act["generators"]):
        where = f"action.generators[{idx}]"
        source, payload = spec["source"], spec["payload"]
        key = PAYLOAD_KEYS[source]
        if (source == "flow-generator") != (kind == "r-plus-cube"):
            raise ScenarioError(
                f"{origin}: {where}: r-plus-cube schemes take exactly the "
                f"flow-generator sources"
            )
        if set(payload) != {key}:
            raise ScenarioError(
                f"{origin}: {where}.payload: a {source} payload has exactly the "
                f"key {key!r}, got {sorted(payload)}"
            )
        gens.append(_build_generator(algebra, picture, where, source, payload[key]))
    try:
        action = SemigroupAction(algebra, picture, scheme, gens)
    except ValueError as exc:
        raise ScenarioError(f"{origin}: action: {exc}") from exc

    tolerances = _finite_tolerances(
        {**DEFAULT_TOLERANCES, **doc.get("tolerances", {})}, origin
    )
    schedule = list(doc.get("schedule", neveu.DEFAULT_SCHEDULE))
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ScenarioError(f"{origin}: schedule must be strictly ascending")
    return Scenario(
        name=doc["name"],
        raw=doc,
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


@dataclass
class Report:
    data: dict

    @property
    def verdicts(self):
        return self.data.get("verdicts", {})

    @property
    def passed(self):
        return bool(self.verdicts) and all(
            v == "pass" for v in self.verdicts.values()
        )

    def canonical_bytes(self):
        """Deterministic serialisation; wall-clock timing is excluded."""
        doc = dict(self.data)
        if isinstance(doc.get("meta"), dict):
            doc["meta"] = {
                k: v for k, v in doc["meta"].items() if k != "wall_clock_s"
            }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = str(data.get("schema_version", ""))
    if not version.startswith("1."):
        raise ValueError(
            f"report schema version {version!r} is not supported (need 1.x)"
        )
    return Report(data)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _spectrum_payload(action):
    # a generator's spectrum is the union of its uncoupled summands' spectra
    parts = action._summands()
    out = []
    for i in range(len(action.matrices)):
        lam = chain.from_iterable(
            np.linalg.eigvals(sub.matrices[i]) for _, sub in parts
        )
        lam = sorted(lam, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
        out.append([_encode_complex(z) for z in lam])
    return out


def _certificate_payload(cert):
    return _plain(
        {
            "schedule": cert.schedule,
            "rows": cert.rows,
            "n0": cert.n0,
            "verdict": cert.verdict,
        }
    )


def _bau_payload(cert):
    return _plain(
        {
            "schedule": cert.schedule,
            "theta": cert.theta,
            "excluded_mass": cert.excluded_mass,
            "witness_ranks": cert.e.ranks,
            "tail": cert.tail,
            "final": cert.final,
            "slope": cert.slope,
            "verdict": cert.verdict,
        }
    )


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

    def __init__(self, scenario, seed, tolerances, schedule):
        self.scenario = scenario
        self.seed = seed
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
    def projection_dual(self):
        # one dual of E serves the wandering verdict and the Heisenberg mean
        return dual(self.projection.superop)

    @_shared
    def heisenberg_projection(self):
        # the dual of the density-picture projection, not a second one
        return neveu._dual_projection(
            self.projection,
            self.scenario.action.to_picture("heisenberg"),
            self.projection_dual,
        )

    @_shared
    def walk(self):
        # one walk of phi0 serves the certify and the stochastic task
        return _average_stacks(self.schr, self.phi0, self.schedule)

    @_shared
    def decomposition(self):
        # the density picture is already at hand; neveu_decompose would
        # build it again for a Heisenberg scenario
        return neveu._decompose(
            self.schr,
            self.scenario.action.to_picture("heisenberg"),
            self.projection,
            self.projection_dual,
            self.schedule,
            self.seed,
            self.tolerances["decay_tol"],
        )


def _run_decompose(ctx, results):
    dec = ctx.decomposition
    if dec.invariant_density is not None:
        lam = np.concatenate(
            [np.linalg.eigvalsh(m) for m in dec.invariant_density.block_mats]
        )
        results["spectrum"]["invariant_density"] = [float(v) for v in sorted(lam)]
    return {
        "e1": _encode_element(dec.e1),
        "e1_ranks": _plain(dec.e1.ranks),
        "e2": _encode_element(dec.e2),
        "e2_ranks": _plain(dec.e2.ranks),
        "invariant_density": (
            None if dec.invariant_density is None
            else _encode_element(dec.invariant_density)
        ),
        "decay": _plain(dec.decay),
        "slope": _plain(dec.slope),
        "verdicts": _plain(dec.verdicts),
        "detail": _plain(dec.detail),
    }, dec.overall


def _run_mean(ctx, results):
    if ctx.scenario.action.picture == "schrodinger":
        proj = ctx.projection
    else:
        proj = ctx.heisenberg_projection
    return {
        "rank": proj.rank,
        "residuals": _plain(proj.residuals),
        "cross_validation": _plain(proj.cross_validation),
        "fixed_basis": [_encode_element(b) for b in proj.fixed_basis],
        "dual_basis": [_encode_element(p) for p in proj.dual_basis],
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
        "limit": _encode_element(target),
    }, mc.passed and bc.passed


def _run_stochastic(ctx, results):
    rep = convergence._stochastic_run(
        ctx.schr,
        ctx.phi0,
        ctx.schedule,
        ctx.tolerances["eps"],
        ctx.tolerances["delta"],
        ctx.decomposition,
        ctx.seed,
        ctx.tolerances["decay_tol"],
        lambda schedule: ctx.walk,
    )
    return {
        "xbar": _encode_element(rep.xbar),
        "burn_in": _plain(rep.burn_in),
        "rows": _plain(rep.rows),
        "bau": _bau_payload(rep.bau),
        "measure": _certificate_payload(rep.measure),
        "verdicts": _plain(rep.verdicts),
        "detail": _plain(rep.detail),
    }, rep.passed


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

    Task payloads apply this to their small fields only; encoded matrices
    are plain lists of floats already and are not walked again.
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

    ctx = _RunContext(scenario, eff_seed, eff_tol, eff_schedule)
    results = {"spectrum": {"generators": _spectrum_payload(scenario.action)}}
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

    data = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "neveukit", "version": _version()},
        "scenario_name": scenario.name,
        "scenario": scenario.raw,
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


def _write_json(o, ind, parts):
    """Append ``json.dumps(o, sort_keys=True, indent=2)`` to ``parts``.

    ``ind`` is the line break and indentation of the line ``o`` starts on.
    The stdlib encoder runs in pure Python whenever ``indent`` is set.  Here
    a list of ``[float, float]`` pairs, the row of an encoded matrix, is
    checked and formatted by C-level calls: one ``%`` template over
    ``float.__repr__``.  Strings go through the C string encoder; ``None``,
    bools, ints and finite floats are spelled directly, as the stdlib spells
    them, and every other scalar goes through ``json.dumps``.
    """
    if isinstance(o, str):
        parts.append(encode_basestring_ascii(o))
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner, sep = ind + "  ", "{"
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                if not (k is None or isinstance(k, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, "
                        f"not {type(k).__name__}"
                    )
                k = json.dumps(k)
            parts.append(f"{sep}{inner}{encode_basestring_ascii(k)}: ")
            _write_json(v, inner, parts)
            sep = ","
        parts.append(ind + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = ind + "  "
        if set(map(type, o)) == {list} and set(map(len, o)) == {2}:
            flat = list(chain.from_iterable(o))
            if set(map(type, flat)) == {float}:
                pair = f"[{inner}  %s,{inner}  %s{inner}]"
                template = f"[{inner}{f',{inner}'.join([pair] * len(o))}{ind}]"
                text = template % tuple(map(float.__repr__, flat))
                if "n" in text:  # nan or inf: redo with the JSON spellings
                    text = template % tuple(map(json.dumps, flat))
                parts.append(text)
                return
        sep = "["
        for v in o:
            parts.append(sep + inner)
            _write_json(v, inner, parts)
            sep = ","
        parts.append(ind + "]")
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif type(o) is int:
        parts.append(int.__repr__(o))
    elif type(o) is float and math.isfinite(o):
        parts.append(float.__repr__(o))
    else:
        parts.append(json.dumps(o))


def _atomic_write(path, text):
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

    The report-json bytes equal ``json.dumps(report.data, sort_keys=True,
    indent=2)`` plus a final newline.  CSV numbers carry 17 significant
    digits; lines end in LF.
    """
    if fmt == "report-json":
        parts = []
        _write_json(report.data, "\n", parts)
        parts.append("\n")
        text = "".join(parts)
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
        for g, lam in enumerate(spec.get("generators", [])):
            for k, (re, im) in enumerate(lam):
                lines.append(f"generator-{g},{k},{_fmt(re)},{_fmt(im)}")
        for k, v in enumerate(spec.get("invariant_density", [])):
            lines.append(f"invariant-density,{k},{_fmt(v)},{_fmt(0.0)}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return text


def emit(report, fmt, out_path):
    """Write :func:`render` of the report to ``out_path``, atomically."""
    _atomic_write(out_path, render(report, fmt))
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
