#!/usr/bin/env python3
"""Say what moved between two ``scripts/cli_outputs.py`` output directories.

For each file that differs, print how many numbers moved and the largest
absolute and relative change among them, each with its line.  A difference
that is not a change of a number is printed as non-numeric, with its first
differing line: a file present on one side only, a changed exit code
(``.exit``) or stderr (``.stderr``), changed text such as a verdict, a
different count of lines or numbers, or a number that becomes NaN or
infinite.  A relative change is ``|b - a| / max(|a|, |b|, FLOOR)``: the
absolute floor, near the solver's relative tolerance, keeps a value that is 0
in exact arithmetic (a field component of 1e-16, an error at rounding level)
from reading as a relative change of order 1.  The summary line prints it.

Exit codes: 0 when every difference is numeric (or none), 1 when any is
non-numeric, 2 on a usage error.

Usage:  python scripts/compare_outputs.py A B
"""

import math
import re
import sys
from pathlib import Path

# a number not glued to a letter, digit, '_' or '.'; nan and inf as the writers print them
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")
# files that are verdicts as a whole: compared as text, never as numbers
TEXT_SUFFIXES = (".exit", ".stderr")
# magnitude below which a change counts against this floor, not the value itself
FLOOR = 1e-10


def _first_difference(lines_a, lines_b) -> str:
    for k, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {k}: {x!r} -> {y!r}"
    return f"{len(lines_a)} lines -> {len(lines_b)} lines"


def compare_file(a: str, b: str, name: str):
    """``(moved, (largest absolute, line), (largest relative, line))`` over the
    numbers of two differing texts, or the non-numeric difference as a string."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if name.endswith(TEXT_SUFFIXES) or len(lines_a) != len(lines_b):
        return _first_difference(lines_a, lines_b)
    moved, largest_abs, largest_rel = 0, (0.0, 0), (0.0, 0)
    for line, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x == y:
            continue
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            return f"line {line}: {x!r} -> {y!r}"
        for u, v in zip(NUMBER.findall(x), NUMBER.findall(y)):
            if u == v:
                continue
            u, v = float(u), float(v)
            if not (math.isfinite(u) and math.isfinite(v)):
                return f"line {line}: {x!r} -> {y!r}"
            moved += 1
            change = abs(v - u)
            largest_abs = max(largest_abs, (change, line))
            largest_rel = max(largest_rel, (change / max(abs(u), abs(v), FLOOR), line))
    return moved, largest_abs, largest_rel


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    left, right = (Path(p) for p in args)
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    differ = problems = 0
    worst_abs, worst_rel = (0.0, "-"), (0.0, "-")
    for name in names:
        a, b = left / name, right / name
        if not (a.exists() and b.exists()):
            result = f"only in {a.parent if a.exists() else b.parent}"
        else:
            text_a, text_b = a.read_text(), b.read_text()
            if text_a == text_b:
                continue
            result = compare_file(text_a, text_b, name)
        differ += 1
        if isinstance(result, str):
            problems += 1
            print(f"{name}: non-numeric: {result}")
            continue
        moved, (change, line_abs), (relative, line_rel) = result
        print(
            f"{name}: {moved} numbers moved, largest absolute {change:.3g} (line {line_abs}),"
            f" largest relative {relative:.3g} (line {line_rel})"
        )
        worst_abs = max(worst_abs, (change, name))
        worst_rel = max(worst_rel, (relative, name))
    print(
        f"{differ} of {len(names)} files differ, {problems} non-numerically; largest absolute change"
        f" {worst_abs[0]:.3g} ({worst_abs[1]}), largest relative {worst_rel[0]:.3g} ({worst_rel[1]}),"
        f" absolute floor {FLOOR:.3g}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
