#!/usr/bin/env python3
"""Line counts of the host runtime (src/rt + src/shm) and of the simulated
PPC facility (src/ppc), .h and .cpp files.

Prints two numbers per directory, and for rt and shm together:
  total  every line;
  code   lines that are neither blank nor a `//` comment line (the rule the
         ROADMAP's size targets use).
The `both` line totals src/rt + src/shm only; src/ppc prints below it.

Usage: python3 tools/loc.py [repo_root]   (default: the parent of tools/)
"""

import pathlib
import sys

DIRS = ("src/rt", "src/shm")


def count(path):
    total = code = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        total += 1
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            code += 1
    return total, code


def count_dir(root, d):
    files = sorted(
        p for p in (root / d).iterdir() if p.suffix in (".h", ".cpp")
    )
    total = code = 0
    for f in files:
        t, c = count(f)
        total += t
        code += c
    print(f"{d:<10} total {total:>6}  code {code:>6}  ({len(files)} files)")
    return total, code


def main():
    default = pathlib.Path(__file__).parent.parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default
    grand_total = grand_code = 0
    for d in DIRS:
        total, code = count_dir(root, d)
        grand_total += total
        grand_code += code
    print(f"{'both':<10} total {grand_total:>6}  code {grand_code:>6}")
    count_dir(root, "src/ppc")


if __name__ == "__main__":
    main()
