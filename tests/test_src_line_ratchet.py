"""Line ratchets on ``src/`` and ``tests/``: neither may grow past a
committed ceiling without someone deciding that it should.

A change that shrinks either lowers its ceiling to the new count, so the
next change starts from there; a change that has to grow one raises that
ceiling and says why in its description.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ``wc -l`` summed over <dir>/**/*.py.
SRC_LINE_CEILING = 18_428
TESTS_LINE_CEILING = 20_614


def _check(name: str, ceiling: int, constant: str) -> None:
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / name).rglob("*.py"))
    assert lines <= ceiling, (
        f"{name}/ is {lines} lines (wc -l over {name}/**/*.py), {lines - ceiling} "
        f"over its ceiling of {ceiling}.  Delete what the change made redundant and "
        f"lower {constant} in tests/test_src_line_ratchet.py to the new count, or "
        "raise it and say why in the change's description."
    )


def test_src_stays_under_its_line_ceiling():
    _check("src", SRC_LINE_CEILING, "SRC_LINE_CEILING")


def test_tests_stay_under_their_line_ceiling():
    _check("tests", TESTS_LINE_CEILING, "TESTS_LINE_CEILING")
