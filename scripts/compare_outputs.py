#!/usr/bin/env python3
"""Compare two output trees, such as two runs of run_all_studies.py.

Usage:
    python scripts/compare_outputs.py OLD NEW

For each CSV, by its path relative to the tree, prints "identical" when the
files match byte for byte.  Otherwise it prints, for each numeric column,
the largest move |new - old| relative to the column's largest magnitude
(over both files), and names the text columns that differ.  Each PGM is
reported as byte-identical or not.  A file in only one tree is named.
Exits 0 when everything is identical, 1 otherwise.
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def _read(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _numbers(cells):
    """The column as floats, or None if a cell is not a number."""
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _column_move(old, new) -> float:
    """Largest |new - old| over the column's largest magnitude; NaNs in the
    same places count as equal."""
    scale = max((abs(v) for v in old + new if not math.isnan(v)), default=0.0)
    move = 0.0
    for a, b in zip(old, new):
        if math.isnan(a) and math.isnan(b):
            continue
        if math.isnan(a) or math.isnan(b):
            return math.inf
        move = max(move, abs(b - a))
    return move / scale if scale > 0 else move


def compare_csv(old: Path, new: Path) -> list[str]:
    """Lines describing how ``new`` differs from ``old``; empty if identical."""
    if old.read_bytes() == new.read_bytes():
        return []
    (h_old, r_old), (h_new, r_new) = _read(old), _read(new)
    if h_old != h_new:
        return [f"  header differs: {','.join(h_old)} -> {','.join(h_new)}"]
    if len(r_old) != len(r_new):
        return [f"  rows differ: {len(r_old)} -> {len(r_new)}"]
    lines = []
    for j, name in enumerate(h_old):
        col_old = [row[j] for row in r_old]
        col_new = [row[j] for row in r_new]
        a, b = _numbers(col_old), _numbers(col_new)
        if a is not None and b is not None:
            lines.append(f"  {name}: {_column_move(a, b):.2e}")
        elif col_old != col_new:
            lines.append(f"  {name}: text differs")
    return lines


def compare_trees(old: Path, new: Path) -> tuple[list[str], bool]:
    """Report lines for every CSV and PGM under either tree, and whether
    all of them are identical."""
    lines, same = [], True
    for suffix in ("csv", "pgm"):
        rels = sorted({p.relative_to(root) for root in (old, new)
                       for p in root.rglob(f"*.{suffix}")})
        for rel in rels:
            a, b = old / rel, new / rel
            if not (a.exists() and b.exists()):
                lines.append(f"{rel}: only in {'OLD' if a.exists() else 'NEW'}")
                same = False
            elif suffix == "pgm":
                identical = a.read_bytes() == b.read_bytes()
                lines.append(f"{rel}: {'byte-identical' if identical else 'differs'}")
                same = same and identical
            else:
                moves = compare_csv(a, b)
                lines.append(f"{rel}: {'differs' if moves else 'identical'}")
                lines.extend(moves)
                same = same and not moves
    return lines, same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    lines, same = compare_trees(args.old, args.new)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
