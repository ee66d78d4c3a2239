"""Scenario files, analysis reports, and the curated gallery.

A scenario is a JSON document (conventionally ``*.scn``) describing an
algebra, an action, and a task list; the schema ships with the package and
is enforced on load.  Running a scenario produces a :class:`Report` whose
payload is plain JSON: matrices appear as nested lists with complex scalars
encoded ``[re, im]``.  Reports are deterministic for a fixed scenario and
seed up to the wall-clock field, which :meth:`Report.canonical_bytes`
excludes.  :func:`render` turns a report into the text of one format, and
:func:`emit` writes that text to a file atomically (temp file then rename);
the command line prints the same text when no output file is given.

Formats understood by :func:`render` and :func:`emit`:

* ``report-json``   the full report
* ``decay-csv``     the decay schedule of the decomposition task
* ``spectrum-csv``  generator superoperator spectra (and the invariant
                    density spectrum when a decomposition ran)
"""

from __future__ import annotations

import cmath
import importlib.resources
import json
import os
import tempfile
import time
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import jsonschema
import numpy as np

from . import neveu
from .algebra import TracialAlgebra, op_norm
from .convergence import bau_certify, measure_certify, stochastic_run
from .dynamics import FolnerScheme, SemigroupAction, average
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

SCHEMA_VERSION = "1.0"
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


def _schema():
    with (_data_root() / "scenario.schema.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


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


def _build_generator(algebra, picture, idx, spec):
    source, payload = spec["source"], spec["payload"]
    where = f"action.generators[{idx}]"
    try:
        if source == "kraus":
            if "operators" not in payload:
                raise ScenarioError(f"{where}: kraus payload needs 'operators'")
            ops = [
                _decode_element(algebra, o, f"{where}.operators[{k}]")
                for k, o in enumerate(payload["operators"])
            ]
            s = from_kraus(algebra, ops)
            return dual(s) if picture == "schrodinger" else s
        if source == "conjugation":
            if "unitary" not in payload:
                raise ScenarioError(f"{where}: conjugation payload needs 'unitary'")
            u = _decode_element(algebra, payload["unitary"], f"{where}.unitary")
            s = from_conjugation(algebra, u)
            return dual(s) if picture == "schrodinger" else s
        if source == "classical-kernel":
            if "kernel" not in payload:
                raise ScenarioError(f"{where}: kernel payload needs 'kernel'")
            kernel = _decode_matrix(payload["kernel"], f"{where}.kernel")
            if np.abs(kernel.imag).max() > 0:
                raise ScenarioError(f"{where}.kernel: kernel must be real")
            return from_classical(algebra, kernel.real)
        if source == "matrix":
            if "matrix" not in payload:
                raise ScenarioError(f"{where}: matrix payload needs 'matrix'")
            mat = _decode_matrix(payload["matrix"], f"{where}.matrix")
            return from_matrix(algebra, mat)
        raise ScenarioError(f"{where}: source {source!r} is not a map source")
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
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
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
    if kind == "r-plus-cube":
        gens = []
        for idx, spec in enumerate(act["generators"]):
            if spec["source"] != "flow-generator":
                raise ScenarioError(
                    f"{origin}: action.generators[{idx}]: r-plus-cube needs "
                    f"flow-generator sources"
                )
            mat = _decode_matrix(
                spec["payload"].get("matrix"), f"action.generators[{idx}].matrix"
            )
            gens.append(mat)
    else:
        gens = []
        for idx, spec in enumerate(act["generators"]):
            if spec["source"] == "flow-generator":
                raise ScenarioError(
                    f"{origin}: action.generators[{idx}]: flow-generator sources "
                    f"need an r-plus-cube scheme"
                )
            gens.append(_build_generator(algebra, picture, idx, spec))
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
    except json.JSONDecodeError as exc:
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
    out = []
    for m in action.matrices:
        lam = np.linalg.eigvals(m)
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


def _run_decompose(scenario, seed, tolerances, schedule, results, verdicts):
    dec = neveu.neveu_decompose(
        scenario.action,
        schedule=schedule,
        seed=seed,
        decay_tol=tolerances["decay_tol"],
        tol_fixed=tolerances["tol_fixed"],
    )
    results["decompose"] = {
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
    }
    verdicts["decompose"] = "pass" if dec.overall else "fail"
    return dec


def _run_mean(scenario, tolerances, results, verdicts):
    proj = neveu.mean_ergodic_projection(
        scenario.action, tol_fixed=tolerances["tol_fixed"]
    )
    results["mean"] = {
        "rank": proj.rank,
        "residuals": _plain(proj.residuals),
        "cross_validation": _plain(proj.cross_validation),
        "fixed_basis": [_encode_element(b) for b in proj.fixed_basis],
        "projector": _encode_matrix(proj.superop.matrix),
    }
    verdicts["mean"] = "pass"
    return proj


def _run_certify(scenario, tolerances, schedule, results, verdicts):
    schr = scenario.action.to_picture("schrodinger")
    phi0 = neveu.reference_density(scenario.algebra)
    proj = neveu.mean_ergodic_projection(schr, tol_fixed=tolerances["tol_fixed"])
    target = proj(phi0)
    target = (target + target.H) * 0.5
    seq = [average(schr, phi0, a) for a in schedule]
    mc = measure_certify(
        seq,
        target,
        tolerances["eps"],
        schedule=schedule,
        delta_tol=tolerances["delta_tol"],
    )
    bc = bau_certify(
        seq,
        target,
        tolerances["delta"],
        schedule=schedule,
        decay_tol=tolerances["decay_tol"],
    )
    results["certify"] = {
        "measure": _certificate_payload(mc),
        "bau": _bau_payload(bc),
        "limit": _encode_element(target),
    }
    ok = mc.passed and bc.passed
    verdicts["certify"] = "pass" if ok else "fail"


def _run_stochastic(scenario, seed, tolerances, schedule, results, verdicts, dec):
    schr = scenario.action.to_picture("schrodinger")
    phi0 = neveu.reference_density(scenario.algebra)
    rep = stochastic_run(
        schr,
        phi0,
        schedule=schedule,
        eps=tolerances["eps"],
        delta=tolerances["delta"],
        decomposition=dec,
        seed=seed,
        decay_tol=tolerances["decay_tol"],
    )
    results["stochastic"] = {
        "xbar": _encode_element(rep.xbar),
        "burn_in": _plain(rep.burn_in),
        "rows": _plain(rep.rows),
        "bau": _bau_payload(rep.bau),
        "measure": _certificate_payload(rep.measure),
        "verdicts": _plain(rep.verdicts),
        "detail": _plain(rep.detail),
    }
    verdicts["stochastic"] = "pass" if rep.passed else "fail"


def _run_gallery_item(scenario, results, verdicts):
    if scenario.name not in GALLERY_NAMES:
        results["gallery-item"] = {
            "error": f"{scenario.name!r} is not a gallery scenario"
        }
        verdicts["gallery-item"] = "fail"
        return
    shipped = _gallery_doc(scenario.name)
    same = json.dumps(shipped, sort_keys=True) == json.dumps(
        scenario.raw, sort_keys=True
    )
    results["gallery-item"] = {"name": scenario.name, "matches_shipped": same}
    verdicts["gallery-item"] = "pass" if same else "fail"


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
    verdict; remaining tasks still run.  A non-finite tolerance override
    raises :class:`ScenarioError` before any task runs.
    """
    t0 = time.perf_counter()
    eff_seed = scenario.seed if seed is None else int(seed)
    eff_tol = _finite_tolerances(
        {**scenario.tolerances, **(tolerances or {})}, scenario.name
    )
    eff_schedule = list(schedule) if schedule is not None else list(scenario.schedule)

    results = {}
    verdicts = {}
    results["spectrum"] = {"generators": _spectrum_payload(scenario.action)}
    dec = None
    for task in scenario.tasks:
        try:
            if task == "decompose":
                dec = _run_decompose(
                    scenario, eff_seed, eff_tol, eff_schedule, results, verdicts
                )
                if dec.invariant_density is not None:
                    lam = np.concatenate(
                        [
                            np.linalg.eigvalsh(m)
                            for m in dec.invariant_density.block_mats
                        ]
                    )
                    results["spectrum"]["invariant_density"] = [
                        float(v) for v in sorted(lam)
                    ]
            elif task == "mean":
                _run_mean(scenario, eff_tol, results, verdicts)
            elif task == "certify":
                _run_certify(scenario, eff_tol, eff_schedule, results, verdicts)
            elif task == "stochastic":
                _run_stochastic(
                    scenario, eff_seed, eff_tol, eff_schedule, results, verdicts, dec
                )
            elif task == "gallery-item":
                _run_gallery_item(scenario, results, verdicts)
            else:
                raise ScenarioError(f"unknown task {task!r}")
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
    ``float.__repr__``.  Strings go through the C string encoder and every
    other scalar through ``json.dumps``.
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
