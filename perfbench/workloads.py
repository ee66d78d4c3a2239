"""Seeded inputs, item runners and correctness checks for the four workloads.

Every random draw comes from ``--seed``; the library only sees the generated
scenario documents and densities.  The large-d and flow families get a
seeded unitary change of basis inside each block, which leaves every
verdict, rank and key number (decay points, invariant-density spectrum,
b.a.u. tail) unchanged, so one stored reference serves every seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("gallery", "large-d", "stochastic", "flow")

# Relative tolerance on key numbers against reference.json, with an absolute
# floor for values at rounding level (decay tails, b.a.u. suprema near 0).
KEY_RTOL = 1e-6
KEY_ATOL = 1e-10

DAMPING = 0.5
STAR_SCHEDULE = [2**k for k in range(9)]  # 1, 2, ..., 256
FLOW_SCHEDULE = [2**k for k in range(8)]  # 1, 2, ..., 128
# Items of 1 s or less: a run then holds ten or more passes, enough for a
# steady median pass.  M_16 and M_20 (2 s and 5 s items) allowed too few
# passes for a steady figure.  M_10 and M_14 are not
# usable: see test_star_damping_on_m14_is_accepted.
LARGE_D_ALGEBRAS = (
    ("M12", [12], [1 / 12]),
    ("M12+M8+C", [12, 8, 1], [1 / 32, 2 / 32, 4 / 32]),
)
FLOW_SIZES = (8, 10)
FLOW_DAMPING_RATE = 1.0
FLOW_DEPHASING_RATE = 0.3
STOCHASTIC_EPS = (0.1, 0.2, 0.35)
STOCHASTIC_DELTA = 0.2
# 8 gallery actions x 3 eps values x 5 rounds: every (action, eps) pair five
# times, and at least ten items beyond the 90th percentile of a pass.
STOCHASTIC_ITEMS_PER_PASS = 120


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _enc_matrix(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _doc(name, algebra, picture, scheme, generators, tasks, schedule):
    return {
        "schema_version": "1.0",
        "name": name,
        "algebra": algebra,
        "action": {"picture": picture, "scheme": scheme, "generators": generators},
        "tasks": tasks,
        "schedule": schedule,
        "seed": 0,
    }


def _star_kraus(n, g):
    """K_0 = diag(1, sqrt(1-g), ...), K_k = sqrt(g)|0><k| for k = 1..n-1."""
    k0 = np.diag([1.0] + [math.sqrt(1.0 - g)] * (n - 1)).astype(complex)
    ops = [k0]
    for k in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[0, k] = math.sqrt(g)
        ops.append(m)
    return ops


def star_damping_doc(name, blocks, weights, rng):
    """Heisenberg star amplitude damping, block-diagonal over ``blocks``."""
    per_block = []
    for n in blocks:
        w = _random_unitary(rng, n)
        per_block.append([w @ k @ w.conj().T for k in _star_kraus(n, DAMPING)])
    operators = []
    for j in range(max(blocks)):
        element = []
        for n, ops in zip(blocks, per_block):
            element.append(_enc_matrix(ops[j] if j < n else np.zeros((n, n))))
        operators.append(element)
    return _doc(
        name,
        {"blocks": list(blocks), "weights": list(weights), "normalized": True},
        "heisenberg",
        {"kind": "zplus-box", "d": 1},
        [{"source": "kraus", "payload": {"operators": operators}}],
        ["decompose", "mean", "certify", "stochastic"],
        STAR_SCHEDULE,
    )


def lindblad_doc(n, rng):
    """Schroedinger-picture Lindbladian on M_n: damping on a, dephasing on N."""
    w = _random_unitary(rng, n)
    a = w @ np.diag(np.sqrt(np.arange(1, n)), 1) @ w.conj().T
    num = w @ np.diag(np.arange(n, dtype=float)) @ w.conj().T
    eye = np.eye(n)

    def dissipator(c, rate):
        # vec(A X B) = (B^T kron A) vec(X), column stacking
        cc = c.conj().T @ c
        return rate * (
            np.kron(c.conj(), c) - 0.5 * np.kron(eye, cc) - 0.5 * np.kron(cc.T, eye)
        )

    gen = dissipator(a, FLOW_DAMPING_RATE) + dissipator(num, FLOW_DEPHASING_RATE)
    return _doc(
        f"flow-M{n}",
        {"blocks": [n], "weights": [1.0 / n], "normalized": True},
        "schrodinger",
        {"kind": "r-plus-cube", "d": 1},
        [{"source": "flow-generator", "payload": {"matrix": _enc_matrix(gen)}}],
        ["decompose", "mean", "certify"],
        FLOW_SCHEDULE,
    )


# The M_3 automorphism items stay in the standard basis: after a generic
# change of basis e2 = 1 - e1 is zero only up to rounding, and the
# wandering-sum check in neveu_decompose then calls support() on a
# rounding-level, slightly non-positive operator and fails.  See README.md.
CYCLE3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


def z_symmetric_doc():
    """Conjugation by the 3-cycle on M_3, averaged over k in [-a, a]."""
    u = CYCLE3
    return _doc(
        "z-symmetric-cycle3",
        {"blocks": [3], "weights": [1 / 3], "normalized": True},
        "heisenberg",
        {"kind": "z-symmetric-box", "d": 1},
        [{"source": "conjugation", "payload": {"unitary": [_enc_matrix(u)]}}],
        ["decompose", "mean", "certify"],
        [1, 2, 4, 8, 16, 32, 64],
    )


def finite_group_doc():
    """Z_3 acting on M_3 by conjugation with the powers of the 3-cycle."""
    u = CYCLE3
    powers = [np.eye(3, dtype=complex), u, u @ u]
    return _doc(
        "finite-group-z3",
        {"blocks": [3], "weights": [1 / 3], "normalized": True},
        "heisenberg",
        {
            "kind": "finite-group",
            "order": 3,
            "table": [[(g + h) % 3 for h in range(3)] for g in range(3)],
        },
        [
            {"source": "conjugation", "payload": {"unitary": [_enc_matrix(p)]}}
            for p in powers
        ],
        ["decompose", "mean", "certify"],
        [1, 2, 4, 8, 16, 32, 64],
    )


def generated_docs(workload, seed):
    """The seeded scenario documents of a workload (empty for stochastic)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "gallery":
        return [z_symmetric_doc(), finite_group_doc()]
    if workload == "large-d":
        return [star_damping_doc(n, b, w, rng) for n, b, w in LARGE_D_ALGEBRAS]
    if workload == "flow":
        return [lindblad_doc(n, rng) for n in FLOW_SIZES]
    return []


def stochastic_densities(algebras, seed):
    """One seeded faithful density per stochastic item, cycling the actions."""
    rng = np.random.default_rng([seed, WORKLOADS.index("stochastic")])
    out = []
    for i in range(STOCHASTIC_ITEMS_PER_PASS):
        k = i % len(algebras)
        out.append((k, algebras[k].random_density(rng), STOCHASTIC_EPS[i % 3]))
    return out


# ---------------------------------------------------------------------------
# correctness: verdicts, ranks and key numbers against reference.json
# ---------------------------------------------------------------------------


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def report_summary(results):
    """Ranks and key numbers of a report's ``results`` section."""
    dec = results.get("decompose", {})
    ranks = {
        "e1": dec.get("e1_ranks"),
        "e2": dec.get("e2_ranks"),
        "fixed": results.get("mean", {}).get("rank"),
    }
    keys = {}
    if "decay" in dec:
        keys["decay"] = [n for _, n in dec["decay"]]
    if "invariant_density" in results.get("spectrum", {}):
        keys["invariant_density"] = results["spectrum"]["invariant_density"]
    for task in ("certify", "stochastic"):
        bau = results.get(task, {}).get("bau")
        if bau is not None:
            keys[f"{task}.bau_tail"] = [v for _, v in bau["tail"]]
    return {"ranks": ranks, "key_numbers": keys}


def decomposition_summary(dec):
    """Ranks and key numbers of a NeveuDecomposition."""
    keys = {"decay": [n for _, n in dec.decay]}
    if dec.invariant_density is not None:
        lam = np.concatenate(
            [np.linalg.eigvalsh(m) for m in dec.invariant_density.block_mats]
        )
        keys["invariant_density"] = [float(v) for v in sorted(lam)]
    ranks = {
        "e1": list(dec.e1.ranks),
        "e2": list(dec.e2.ranks),
        "fixed": dec.detail["fixed_rank"],
    }
    return {"ranks": ranks, "key_numbers": keys}


def compare_summary(summary, ref):
    """Failure messages for ranks or key numbers that differ from ``ref``."""
    failures = []
    if summary["ranks"] != ref["ranks"]:
        failures.append(f"ranks {summary['ranks']} != reference {ref['ranks']}")
    got, want = summary["key_numbers"], ref["key_numbers"]
    if sorted(got) != sorted(want):
        failures.append(f"key numbers {sorted(got)} != reference {sorted(want)}")
        return failures
    for key, values in want.items():
        if len(got[key]) != len(values) or not np.allclose(
            got[key], values, rtol=KEY_RTOL, atol=KEY_ATOL
        ):
            failures.append(f"{key} {got[key]} != reference {values}")
    return failures


def _failed_verdicts(where, verdicts):
    return [f"{where} verdict {k} = {v}" for k, v in verdicts.items() if v != "pass"]


def cross_term_failures(rows):
    return [
        f"cross term at a={r['a']}: {r['cross_norm']} > {r['cross_bound']}"
        for r in rows
        if r["past_burn_in"] and r["cross_norm"] > r["cross_bound"]
    ]


def check_report(data, ref):
    """All verdicts pass, ranks and key numbers match ``ref`` (unless None),
    and no row past burn-in breaks the cross-term bound."""
    results = data["results"]
    failures = _failed_verdicts("report", data["verdicts"])
    for task in ("decompose", "stochastic"):
        if task in results:
            failures += _failed_verdicts(task, results[task].get("verdicts", {}))
    if "stochastic" in results and "rows" in results["stochastic"]:
        failures += cross_term_failures(results["stochastic"]["rows"])
    if ref is not None:
        failures += compare_summary(report_summary(results), ref)
    return failures


# ---------------------------------------------------------------------------
# workloads: build the inputs once, then run and check items
# ---------------------------------------------------------------------------


class Workload:
    """Items of one workload.  ``run_item`` is timed; ``check_item`` is not.

    ``reference`` maps item keys to the ranks and key numbers stored in
    reference.json; ``reference_entries`` recomputes them as
    ``(key, summary, failures)``.
    """

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.items = []

    def build(self):
        """Make every input; returns failure messages of set-up checks."""
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def check_item(self, item, output):
        raise NotImplementedError


class GalleryWorkload(Workload):
    """Each scenario file through ``neveukit.cli.main(["run", ...])``."""

    def build(self):
        from neveukit import scenarios

        data = os.path.join(os.path.dirname(scenarios.__file__), "data")
        items = [(n, os.path.join(data, f"{n}.scn")) for n in scenarios.gallery_names()]
        for doc in generated_docs("gallery", self.seed):
            path = os.path.join(self.workdir, f"{doc['name']}.scn")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            items.append((doc["name"], path))
        self.items = items
        return []

    def run_item(self, item):
        from neveukit import cli

        name, path = item
        out = os.path.join(self.workdir, f"{name}.report.json")
        return cli.main(["run", "--scenario", path, "--out", out]), out

    def _report(self, output):
        with open(output[1], "r", encoding="utf-8") as fh:
            return json.load(fh)

    def check_item(self, item, output):
        if output[0] != 0:
            return [f"exit code {output[0]}"]
        return check_report(self._report(output), self.reference[f"gallery:{item[0]}"])

    def reference_entries(self):
        for item in self.items:
            data = self._report(self.run_item(item))
            yield f"gallery:{item[0]}", report_summary(data["results"]), check_report(data, None)


class ReportWorkload(Workload):
    """scenario_from_dict -> run -> emit(report-json) -> canonical_bytes."""

    kind = None

    def build(self):
        self.items = [(d["name"], d) for d in generated_docs(self.kind, self.seed)]
        self._canonical = {}
        return []

    def run_item(self, item):
        from neveukit import scenarios

        name, doc = item
        scenario = scenarios.scenario_from_dict(doc, origin=name)
        report = scenarios.run(scenario)
        scenarios.emit(report, "report-json", os.path.join(self.workdir, f"{name}.json"))
        return report, report.canonical_bytes()

    def check_item(self, item, output):
        report, canonical = output
        failures = check_report(report.data, self.reference[f"{self.kind}:{item[0]}"])
        # the canonical bytes of one input are identical on every pass
        if canonical != self._canonical.setdefault(item[0], canonical):
            failures.append("canonical bytes differ between passes")
        return failures

    def reference_entries(self):
        for item in self.items:
            data = self.run_item(item)[0].data
            yield f"{self.kind}:{item[0]}", report_summary(data["results"]), check_report(data, None)


class LargeDWorkload(ReportWorkload):
    kind = "large-d"


class FlowWorkload(ReportWorkload):
    kind = "flow"


class StochasticWorkload(Workload):
    """stochastic_run on seeded densities over the pre-decomposed gallery."""

    def build(self):
        from neveukit import neveu, scenarios

        self.actions = []
        for sc in scenarios.gallery():
            schr = sc.action.to_picture("schrodinger")
            self.actions.append((sc.name, schr, neveu.neveu_decompose(schr, seed=sc.seed)))
        densities = stochastic_densities([a.algebra for _, a, _ in self.actions], self.seed)
        self.items = [(i, k, x, eps) for i, (k, x, eps) in enumerate(densities)]
        failures = []
        if self.reference is not None:
            for name, _, dec in self.actions:
                failures += [
                    f"{name}: {f}"
                    for f in _failed_verdicts("decompose", dec.verdicts)
                    + compare_summary(
                        decomposition_summary(dec), self.reference[f"stochastic:{name}"]
                    )
                ]
        return failures

    def run_item(self, item):
        from neveukit import convergence

        i, k, x, eps = item
        _, schr, dec = self.actions[k]
        return convergence.stochastic_run(
            schr, x, eps=eps, delta=STOCHASTIC_DELTA, decomposition=dec, seed=i
        )

    def check_item(self, item, output):
        return _failed_verdicts("stochastic", output.verdicts) + cross_term_failures(
            output.rows
        )

    def reference_entries(self):
        for name, _, dec in self.actions:
            yield (
                f"stochastic:{name}",
                decomposition_summary(dec),
                _failed_verdicts("decompose", dec.verdicts),
            )


WORKLOAD_CLASSES = {
    "gallery": GalleryWorkload,
    "large-d": LargeDWorkload,
    "stochastic": StochasticWorkload,
    "flow": FlowWorkload,
}
