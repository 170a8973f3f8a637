"""Byte-identity guard: records streams and ratio rejections stay as
captured in tests/data/golden (see tests/data/make_golden.py)."""

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA))
import make_golden  # noqa: E402


@pytest.mark.parametrize(
    "name,argv", make_golden.GOLDEN_CALLS, ids=[c[0] for c in make_golden.GOLDEN_CALLS]
)
def test_records_byte_identical(name, argv, monkeypatch):
    monkeypatch.chdir(make_golden.GOLDEN)
    want = (make_golden.GOLDEN / f"{name}.records").read_text(encoding="utf-8")
    assert make_golden.records(argv) == want


def test_ratio_rejections_unchanged():
    want = json.loads((make_golden.GOLDEN / "ratio_rejections.json").read_text())
    assert make_golden.ratio_rejections() == want
