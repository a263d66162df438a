"""The public surface is the one the README documents."""

import re
from pathlib import Path

import ape

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_entry_points():
    """Backticked names in the list that opens README's "Library entry points"."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    listing = section.split("```", 1)[0].split("):", 1)[1]
    return set(re.findall(r"`(\w+)`", listing))


def test_all_is_exactly_the_readme_entry_points():
    assert set(ape.__all__) == readme_entry_points()
    assert len(ape.__all__) == len(set(ape.__all__))
