"""The demo scripts: each prints exactly the output pinned here."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_DIGESTS = {
    "biquotient_invariants.py": "7720193c0b79d65273f5c027fc9716bad3e1ee3e618f8fc0d6156ab25efd9fc2",
    "exponent_tables.py": "acc71949f4fdfbdc5e2eb4f24afad0f41d70e0a47cd75b26f9672d6178b3a328",
    "seven_manifold_types.py": "8e5296a26ac4379f5d52c58504070681cf5c68c085d6fde506002529b6cbec2d",
    "six_manifold_forms.py": "54c8cde2fcdd251869050cf730a5ead600de5f2eb140804b83e730c39a6eb618",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_byte_identical(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_DIGESTS[name]
