"""Each computation is written once: no run of lines is copied across the code."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/hypersir/*.py", "tests/*.py", "scripts/*.py")
RUN = 6        # consecutive lines that make a copy
MIN_CHARS = 9  # shorter lines (closers, ``else:``, ``continue``) never count


def test_no_run_of_substantive_lines_occurs_twice():
    first, copies = {}, []
    for path in sorted(p for pattern in SOURCES for p in ROOT.glob(pattern)):
        lines = [line.strip() for line in path.read_text().splitlines()]
        for i in range(len(lines) - RUN + 1):
            run = tuple(lines[i:i + RUN])
            if all(len(line) >= MIN_CHARS for line in run):
                here = f"{path.relative_to(ROOT)}:{i + 1}"
                if run in first:
                    copies.append(f"{first[run]} and {here}")
                first.setdefault(run, here)
    assert not copies, f"{len(copies)} copied runs of {RUN} lines: " + "; ".join(copies[:3])
