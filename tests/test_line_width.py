"""Every line of the package and its tools fits in 100 columns."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100
SOURCES = sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_line_is_wider_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [f"{no}: {len(line)} columns" for no, line in enumerate(lines, 1) if len(line) > LIMIT]
    assert not wide, f"{path.relative_to(ROOT)} has lines wider than {LIMIT} columns: {wide}"
