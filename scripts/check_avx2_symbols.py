#!/usr/bin/env python3
"""Checks that the -mavx2 object defines nothing another unit could link to.

    check_avx2_symbols.py [--nm NM] path/to/libslam_simd.a

src/CMakeLists.txt compiles simd/sweep_ops_avx2.cc alone with -mavx2, and
dispatch.cc calls into it only after cpuid reports AVX2. The binary still
runs on CPUs without AVX2 only while every function compiled in that unit
is reached through GetAvx2Ops(). A global or weak definition there (an
inline header function the unit did not inline, or a template
instantiation) is a copy the linker may keep for every unit that uses the
same symbol, and then the scalar table runs VEX-encoded code.

Exits 1, naming each such symbol, when sweep_ops_avx2.cc.o defines a global
or weak function (nm types T, W) or any global or weak slam:: symbol (T, W,
V) other than slam::GetAvx2Ops(), or when the archive has no such member; 0
otherwise. Weak objects outside slam:: are data, such as the exception
personality pointer some builds emit (DW.ref.__gxx_personality_v0), and run
no instructions.
"""

import argparse
import re
import subprocess
import sys

MEMBER = "sweep_ops_avx2.cc.o"
ALLOWED = {"slam::GetAvx2Ops()"}
CODE_TYPES = {"T", "W"}
SLAM_TYPES = {"T", "W", "V"}

_MEMBER_LINE = re.compile(r"^(\S+):$")
_SYMBOL_LINE = re.compile(r"^[0-9a-fA-F]*\s+([A-Za-z])\s+(.+)$")


def exported_symbols(nm_output: str, member: str) -> list[str] | None:
    """The functions and slam:: symbols `member` exports, or None if it is
    not listed."""
    current = None
    found = False
    symbols = []
    for line in nm_output.splitlines():
        m = _MEMBER_LINE.match(line)
        if m:
            current = m.group(1)
            found = found or current == member
            continue
        if current != member:
            continue
        m = _SYMBOL_LINE.match(line)
        if not m:
            continue
        kind, name = m.groups()
        if kind in CODE_TYPES or (kind in SLAM_TYPES and "slam::" in name):
            symbols.append(name)
    return symbols if found else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nm", default="nm")
    parser.add_argument("archive")
    args = parser.parse_args()

    proc = subprocess.run([args.nm, "-C", "--defined-only", args.archive],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{args.nm} failed ({proc.returncode}): {proc.stderr.strip()}")
        return 1
    symbols = exported_symbols(proc.stdout, MEMBER)
    if symbols is None:
        print(f"{args.archive}: no {MEMBER} member")
        return 1
    leaked = [s for s in symbols if s not in ALLOWED]
    for symbol in leaked:
        print(f"{MEMBER}: exports {symbol}; give it internal linkage "
              "(simd/sweep_ops_inline.h) or move it out of the -mavx2 unit")
    if leaked:
        return 1
    print(f"{MEMBER}: exports only {', '.join(sorted(symbols))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
