"""The README's environment-variable table lists exactly the ``REPRO_*``
variables the package reads.

A knob added to ``src/`` without a table row, or a row left behind
after its knob was deleted, fails here."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def knobs_in_source() -> set:
    return {match for path in (ROOT / "src").rglob("*.py")
            for match in KNOB.findall(path.read_text())}


def knobs_in_readme_table() -> set:
    """``REPRO_*`` names in the first column of the table under the
    README's "Environment variables" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {match for row in rows
            for match in KNOB.findall(row.split("|")[1])}


def test_readme_table_matches_the_knobs_src_reads():
    in_source = knobs_in_source()
    in_table = knobs_in_readme_table()
    assert in_source == in_table, (
        f"read by src/ but not in the README table: "
        f"{sorted(in_source - in_table)}; in the table but not read by "
        f"src/: {sorted(in_table - in_source)}")
