#!/usr/bin/env python3
"""Author a scenario file, run it, and emit the deterministic artifacts.

Everything a report contains is reproducible from the scenario document:
rerunning yields byte-identical canonical JSON (wall clock excluded).  The
report packs each matrix as base64 little-endian complex128 bytes; the demo
decodes one block of e1.
"""

import json
import pathlib
import tempfile

from neveukit import emit, load_scenario, run
from neveukit.scenarios import _unpack

DOC = {
    "schema_version": "1.0",
    "name": "demo-damped-qubit",
    "algebra": {"blocks": [2], "weights": [0.5], "normalized": True},
    "action": {
        "picture": "heisenberg",
        "scheme": {"kind": "zplus-box", "d": 1},
        "generators": [
            {
                "source": "kraus",
                "payload": {
                    "operators": [
                        [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.70710678118654757, 0.0]]]],
                        [[[[0.0, 0.0], [0.70710678118654757, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
                    ]
                },
            }
        ],
    },
    "tasks": ["decompose", "mean", "certify"],
    "schedule": [1, 2, 4, 8, 16, 32, 64],
    "seed": 7,
}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        scn_path = tmp / "demo.scn"
        scn_path.write_text(json.dumps(DOC, indent=2), encoding="utf-8")

        scenario = load_scenario(scn_path)
        report = run(scenario)
        again = run(load_scenario(scn_path))
        print(f"verdicts:      {report.verdicts}")
        print(f"deterministic: {report.canonical_bytes() == again.canonical_bytes()}")

        emit(report, "report-json", tmp / "demo.report.json")
        emit(report, "decay-csv", tmp / "demo.decay.csv")
        print()
        print("decay csv:")
        print((tmp / "demo.decay.csv").read_text(encoding="utf-8"))
        payload = json.loads((tmp / "demo.report.json").read_text(encoding="utf-8"))
        print(f"report keys: {sorted(payload)}")
        print(f"e1, block 0 (report schema {payload['schema_version']}):")
        print(_unpack(payload["results"]["decompose"]["e1"][0]))


if __name__ == "__main__":
    main()
