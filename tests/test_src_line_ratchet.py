"""A line ratchet on ``src/``: the package may not grow past a committed
ceiling without someone deciding that it should.

A change that shrinks ``src/`` lowers :data:`SRC_LINE_CEILING` to the new
count, so the next change starts from there; a change that has to grow it
raises the ceiling and says why in its description.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# ``wc -l`` summed over src/**/*.py.
SRC_LINE_CEILING = 19_568


def test_src_stays_under_its_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ is {lines} lines (wc -l over src/**/*.py), {lines - SRC_LINE_CEILING} "
        f"over its ceiling of {SRC_LINE_CEILING}.  Delete what the change made "
        "redundant and lower SRC_LINE_CEILING in tests/test_src_line_ratchet.py to "
        "the new count, or raise it and say why in the change's description."
    )
