"""Every document the benchmark's commands write is unchanged, byte for byte:
the identity grid (``identity_grid.py``) replayed against its record, exit
codes and stderr included.  It also pins ``report irregular``, the one
fixture with regularity violations, which no snapshot holds."""

from __future__ import annotations

import json

import pytest

from identity_grid import RECORD, cases, digest

RECORDED = json.loads(RECORD.read_text())


def test_the_record_covers_the_grid():
    assert sorted(RECORDED) == sorted(cases())


@pytest.mark.parametrize("name, argv", sorted(cases().items()), ids=sorted(cases()))
def test_identity_grid(name, argv):
    assert digest(argv) == RECORDED[name]
