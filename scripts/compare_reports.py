"""Compare the JSON and CSV reports and the cloud files of two run directories.

Usage: python scripts/compare_reports.py DIR_A DIR_B

Every `*.json`, `*.csv` and `*.txt` file in either directory is compared
with its namesake in the other.  In the reports, `wall_clock_s` and
`config.out` are ignored, and a string that starts with its report's own
`config.out` + "/" (such as the cloud path) is compared by the remainder
after that prefix; for each report that differs, the first differing key
path is printed (CSV paths read `file.csv:row[i].column`).  `*.txt` files
(the clouds) are compared byte for byte and print `<name> differs`.  Exits
1 on any difference, 0 when the directories match.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

IGNORED = {("wall_clock_s",), ("config", "out")}
MISSING = object()


def _out_prefix(report) -> str | None:
    """The report's `config.out` followed by one "/", or None without one."""
    config = report.get("config") if isinstance(report, dict) else None
    out = config.get("out") if isinstance(config, dict) else None
    return out.rstrip("/") + "/" if isinstance(out, str) else None


def first_difference(a, b, path=(), prefixes=(None, None)):
    """Key path (a tuple) of the first difference between two JSON values, or
    None; a string starting with its side's prefix is compared without it."""
    if path in IGNORED:
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            found = first_difference(a.get(key, MISSING), b.get(key, MISSING), path + (key,),
                                     prefixes)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            found = first_difference(a[i] if i < len(a) else MISSING,
                                     b[i] if i < len(b) else MISSING, path + (i,), prefixes)
            if found is not None:
                return found
        return None
    if isinstance(a, str) and isinstance(b, str):
        a, b = (s.removeprefix(p) if p else s for s, p in zip((a, b), prefixes))
    same = a == b or (a != a and b != b)  # NaN equals NaN here
    return None if type(a) is type(b) and same else path


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


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per differing or unmatched report or cloud file."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir()
                    if p.suffix in (".json", ".csv", ".txt")})
    lines = []
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            lines.append(f"{name}: only in {dir_a if pa.exists() else dir_b}")
            continue
        if pa.suffix == ".txt":
            if pa.read_bytes() != pb.read_bytes():
                lines.append(f"{name} differs")
            continue
        a, b = _load(pa), _load(pb)
        found = first_difference(a, b, prefixes=(_out_prefix(a), _out_prefix(b)))
        if found is not None:
            lines.append(f"{_format(name, found)} differs")
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
