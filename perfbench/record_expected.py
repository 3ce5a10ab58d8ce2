"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_expected.py

Writes ``expected/paper.json`` (exit code and SHA-256 of the standard
output of every ``paper`` command) and ``expected/groebner.json`` (SHA-256
of each system's outputs for the default seed).  Run it only on a commit
whose outputs are known to be right: the recorded files are what later
commits must reproduce byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, EXPECTED_DIR, WORKLOADS, digest  # noqa: E402


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    paper = WORKLOADS["paper"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        os.chdir(workdir)
        try:
            recorded = {}
            for label, op in paper.operations(paper.inputs(DEFAULT_SEED)):
                output = op()
                recorded[label] = {"code": output["code"], "sha256": digest(output["stdout"])}
        finally:
            os.chdir(cwd)
    (EXPECTED_DIR / "paper.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")

    groebner = WORKLOADS["groebner"]
    recorded = {
        label: digest(groebner.serialize(op()))
        for label, op in groebner.operations(groebner.inputs(DEFAULT_SEED))
    }
    (EXPECTED_DIR / "groebner.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
