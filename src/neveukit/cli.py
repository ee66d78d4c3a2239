"""Command line front end.

Subcommands mirror the scenario tasks: ``decompose``, ``mean``, ``certify``
and ``stochastic`` run a single task on a scenario file, ``run`` executes
the scenario's own task list, and ``gallery`` lists, exports, or runs the
shipped scenarios.  Exit codes: 0 all verdicts pass, 1 some verdict failed,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import math
import shutil
import sys
from contextlib import contextmanager
from dataclasses import replace

from .scenarios import (
    ScenarioError,
    emit,
    gallery,
    gallery_names,
    load_scenario,
    render,
    run,
)

TASK_COMMANDS = ("decompose", "mean", "certify", "stochastic")
FORMATS = ("report-json", "decay-csv", "spectrum-csv")


def _add_common(p, need_scenario=True):
    if need_scenario:
        p.add_argument("--scenario", required=True, help="path to a .scn file")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument(
        "--format",
        choices=FORMATS,
        default="report-json",
        help="output format (default report-json)",
    )
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument(
        "--tol-fixed", type=float, help="rank cutoff on singular values of S - 1 or L"
    )
    p.add_argument("--decay-tol", type=float, help="decay pass threshold")
    p.add_argument(
        "--n-max",
        type=int,
        help="replace the schedule by doubling values 1, 2, 4, ... capped at n-max",
    )


@functools.cache
def build_parser():
    """The parser tree, built once per process.

    ``parse_args`` fills a fresh namespace on every call, so one parser
    serves every ``main`` call; rebuilding it per call left a few hundred
    objects of cyclic garbage behind.
    """
    ap = argparse.ArgumentParser(
        prog="neveukit",
        description="Neveu decompositions and ergodic convergence certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, blurb in (
        ("decompose", "conservative/wandering splitting with decay certificate"),
        ("mean", "mean ergodic projection with validation"),
        ("certify", "measure and b.a.u. certificates for the averages"),
        ("stochastic", "joint two-corner stochastic certificate"),
        ("run", "run the scenario's own task list"),
    ):
        p = sub.add_parser(cmd, help=blurb)
        _add_common(p)
    g = sub.add_parser("gallery", help="list, export, or run the shipped scenarios")
    g.add_argument("--out", help="directory to write .scn files or reports into")
    g.add_argument("--run", action="store_true", help="run every gallery scenario")
    g.add_argument("--seed", type=int, help="override scenario seeds")
    g.add_argument(
        "--format", choices=FORMATS, default="report-json", help="report format"
    )
    return ap


def _schedule_from_nmax(n_max):
    if n_max < 1:
        raise ScenarioError("--n-max must be >= 1")
    sched = []
    a = 1
    while a <= n_max:
        sched.append(a)
        a *= 2
    if sched[-1] != n_max:
        sched.append(n_max)
    return sched


def _tol_overrides(args):
    tol = {}
    for key in ("tol_fixed", "decay_tol"):
        value = getattr(args, key, None)
        if value is None:
            continue
        if not math.isfinite(value):
            flag = "--" + key.replace("_", "-")
            raise ScenarioError(f"{flag} must be finite, got {value!r}")
        tol[key] = value
    return tol


@contextmanager
def _writing(path):
    """Turn an OSError while writing ``path`` into a located usage error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_or_print(report, args):
    if args.out:
        with _writing(args.out):
            emit(report, args.format, args.out)
    else:
        sys.stdout.write(render(report, args.format))


def _run_scenario_command(args):
    scenario = load_scenario(args.scenario)
    if args.command in TASK_COMMANDS:
        scenario = replace(scenario, tasks=[args.command])
    schedule = _schedule_from_nmax(args.n_max) if args.n_max is not None else None
    report = run(
        scenario, seed=args.seed, tolerances=_tol_overrides(args), schedule=schedule
    )
    _emit_or_print(report, args)
    return 0 if report.passed else 1


def _run_gallery_command(args):
    import importlib.resources
    import os

    if args.out:
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
    scenarios = gallery()
    worst = 0
    for sc in scenarios:
        line = (
            f"{sc.name}: blocks={list(sc.algebra.blocks)} "
            f"scheme={sc.action.scheme.kind} tasks={sc.tasks}"
        )
        if args.out and not args.run:
            src = importlib.resources.files("neveukit") / "data" / f"{sc.name}.scn"
            dst = os.path.join(args.out, f"{sc.name}.scn")
            with importlib.resources.as_file(src) as fh, _writing(dst):
                shutil.copyfile(fh, dst)
            line += f" -> {dst}"
        if args.run:
            report = run(sc, seed=args.seed)
            status = "pass" if report.passed else "fail"
            line += f" verdict={status}"
            if not report.passed:
                worst = 1
            if args.out:
                suffix = {
                    "report-json": ".report.json",
                    "decay-csv": ".decay.csv",
                    "spectrum-csv": ".spectrum.csv",
                }[args.format]
                out = os.path.join(args.out, f"{sc.name}{suffix}")
                with _writing(out):
                    emit(report, args.format, out)
                line += f" -> {out}"
        print(line)
    return worst


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gallery":
            return _run_gallery_command(args)
        return _run_scenario_command(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
