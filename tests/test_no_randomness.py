"""The package draws no random numbers and reads no environment variable:
every result has a closed form or a fixed node set, so a document depends
only on its input and flags."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wlab"
FORBIDDEN = re.compile(r"np\.random|default_rng|import random|os\.environ|getenv")


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_random_number_generator_in_package(path):
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert not hits, hits
