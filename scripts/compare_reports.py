"""Compare the JSON and CSV reports and the cloud files of two run directories.

Usage: python scripts/compare_reports.py DIR_A DIR_B

Every `*.json`, `*.csv` and `*.txt` file in either directory is compared
with its namesake in the other.  In the reports, `wall_clock_s` and
`config.out` are ignored, and a string that starts with its report's own
`config.out` + "/" (such as the cloud path) is compared by the remainder
after that prefix; every differing key path is printed, one line each
(CSV paths read `file.csv:row[i].column`).  `*.txt` files
(the clouds) are compared byte for byte; a difference prints
`<name> differs in the header`, or `<name> differs at value <i>` for the
first differing 8-byte value after the header line.  Exits 1 on any
difference, 0 when the directories match.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

IGNORED = {("wall_clock_s",), ("config", "out")}
MISSING = object()


def _out_prefix(report) -> str | None:
    """The report's `config.out` followed by one "/", or None without one."""
    config = report.get("config") if isinstance(report, dict) else None
    out = config.get("out") if isinstance(config, dict) else None
    return out.rstrip("/") + "/" if isinstance(out, str) else None


def differences(a, b, path=(), prefixes=(None, None)):
    """Key paths (tuples) of every difference between two JSON values, keys
    sorted and rows in order; a string starting with its side's prefix is
    compared without it."""
    if path in IGNORED:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from differences(a.get(key, MISSING), b.get(key, MISSING), path + (key,), prefixes)
        return
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from differences(a[i] if i < len(a) else MISSING,
                                   b[i] if i < len(b) else MISSING, path + (i,), prefixes)
        return
    if isinstance(a, str) and isinstance(b, str):
        a, b = (s.removeprefix(p) if p else s for s, p in zip((a, b), prefixes))
    same = a == b or (a != a and b != b)  # NaN equals NaN here
    if type(a) is not type(b) or not same:
        yield path


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def _format(name: str, path: tuple) -> str:
    out = name
    for i, key in enumerate(path):
        if isinstance(key, int):
            out += f"{':row' if i == 0 else ''}[{key}]"
        else:
            out += f"{':' if i == 0 else '.'}{key}"
    return out


def cloud_difference(a: bytes, b: bytes) -> str | None:
    """Where two cloud files first differ: "in the header", "at value <i>"
    (the i-th 8-byte value of the body, counted from 0), or None if equal."""
    if a == b:
        return None
    head_a, head_b = a.find(b"\n") + 1, b.find(b"\n") + 1
    if a[:head_a] != b[:head_b]:
        return "in the header"
    body_a, body_b = memoryview(a)[head_a:], memoryview(b)[head_b:]
    n = min(len(body_a), len(body_b))
    diff = np.flatnonzero(np.frombuffer(body_a, np.uint8, n) != np.frombuffer(body_b, np.uint8, n))
    return f"at value {(diff[0] if diff.size else n) // 8}"


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per differing report key path, and per differing or
    unmatched report or cloud file."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir()
                    if p.suffix in (".json", ".csv", ".txt")})
    lines = []
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            lines.append(f"{name}: only in {dir_a if pa.exists() else dir_b}")
            continue
        if pa.suffix == ".txt":
            where = cloud_difference(pa.read_bytes(), pb.read_bytes())
            if where:
                lines.append(f"{name} differs {where}")
            continue
        a, b = _load(pa), _load(pb)
        lines += [f"{_format(name, path)} differs"
                  for path in differences(a, b, prefixes=(_out_prefix(a), _out_prefix(b)))]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    lines = compare(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    if not lines:
        print("reports match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
