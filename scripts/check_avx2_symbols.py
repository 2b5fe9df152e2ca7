#!/usr/bin/env python3
"""Checks that the AVX2 object gives no other unit VEX-encoded code.

    check_avx2_symbols.py [--nm NM] [--objdump OBJDUMP] [--vex-only]
                          path/to/libslam_simd.a

src/simd/sweep_ops_avx2.cc marks the functions it defines with a
target("avx2") pragma placed after its includes, and dispatch.cc calls
into them only after cpuid reports AVX2. The binary still runs on CPUs
without AVX2 only while no function the linker may keep for other units is
VEX-encoded. A global or weak definition in that unit (an inline header
function the unit did not inline, or a template instantiation) is a copy
the linker may keep for every unit that uses the same symbol.

Two assertions on the archive's sweep_ops_avx2.cc.o member:

  names  The member defines no global or weak function (nm types T, W)
         and no global or weak slam:: symbol (T, W, V) other than
         slam::GetAvx2Ops(). Weak objects outside slam:: are data, such as
         the exception personality pointer some builds emit
         (DW.ref.__gxx_personality_v0), and run no instructions. This holds
         in optimized builds, which inline every header function the unit
         calls or give it internal linkage.
  vex    No function the member exports, GetAvx2Ops() included (dispatch.cc
         calls it on every CPU), contains a VEX- or EVEX-encoded
         instruction: one whose first byte is C4 or C5 (VEX) or 62 (EVEX)
         in 64-bit code. This holds in every build, Debug (-O0) included,
         where the unit keeps weak copies of the header functions it calls:
         the pragma leaves them baseline code.

--vex-only skips the names assertion, for Debug builds. Exits 1, naming
each offending symbol, when an assertion fails or the archive has no such
member; 0 otherwise.
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
# objdump -d: "<member>:     file format elf64-x86-64", function labels
# "0000000000000000 <name>:" and instructions "  1f:\tc5 fb 11 ...\tvmovsd".
_DISASM_MEMBER = re.compile(r"^(\S+):\s+file format (\S+)$")
_LABEL = re.compile(r"^[0-9a-fA-F]+ <(.+)>:$")
_INSTRUCTION = re.compile(
    r"^\s*[0-9a-fA-F]+:\t([0-9a-fA-F]{2}(?: [0-9a-fA-F]{2})*)\s*\t(.*)$")


def exported_symbols(nm_output: str,
                     member: str) -> tuple[list[str], list[str]] | None:
    """The symbols `member` exports that the names assertion reads, and its
    exported functions, or None if it is not listed."""
    current = None
    found = False
    symbols = []
    functions = []
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
        if kind in CODE_TYPES:
            functions.append(name)
    return (symbols, functions) if found else None


def is_vex(encoding: list[str], wide: bool) -> bool:
    """True when the instruction's bytes start with a VEX or EVEX prefix.
    In 32-bit code C4/C5/62 are also LES/LDS/BOUND, which take a memory
    operand; the VEX forms have the next byte's top two bits set."""
    first = encoding[0].lower()
    if first not in ("c4", "c5", "62"):
        return False
    if wide:
        return True
    return len(encoding) > 1 and int(encoding[1], 16) & 0xC0 == 0xC0


def vex_functions(objdump_output: str, member: str) -> dict[str, str]:
    """Each function of `member` that contains a VEX-encoded instruction,
    with the first such instruction."""
    current_member = None
    wide = True
    function = None
    found = {}
    for line in objdump_output.splitlines():
        m = _DISASM_MEMBER.match(line)
        if m:
            current_member = m.group(1)
            wide = "64" in m.group(2)
            function = None
            continue
        if current_member != member:
            continue
        m = _LABEL.match(line)
        if m:
            function = m.group(1)
            continue
        m = _INSTRUCTION.match(line)
        if not m or function is None or function in found:
            continue
        encoding, text = m.groups()
        if text.strip() and is_vex(encoding.split(), wide):
            found[function] = text.strip()
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nm", default="nm")
    parser.add_argument("--objdump", default="objdump")
    parser.add_argument("--vex-only", action="store_true",
                        help="skip the names assertion (Debug builds)")
    parser.add_argument("archive")
    args = parser.parse_args()

    proc = subprocess.run([args.nm, "-C", "--defined-only", args.archive],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{args.nm} failed ({proc.returncode}): {proc.stderr.strip()}")
        return 1
    exported = exported_symbols(proc.stdout, MEMBER)
    if exported is None:
        print(f"{args.archive}: no {MEMBER} member")
        return 1
    symbols, functions = exported
    failed = False

    if not args.vex_only:
        leaked = [s for s in symbols if s not in ALLOWED]
        for symbol in leaked:
            print(f"{MEMBER}: exports {symbol}; give it internal linkage "
                  "(simd/sweep_ops_inline.h) or move it out of the AVX2 unit")
        failed = failed or bool(leaked)
        if not leaked:
            print(f"{MEMBER}: exports only {', '.join(sorted(symbols))}")

    proc = subprocess.run([args.objdump, "-d", "-C", args.archive],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{args.objdump} failed ({proc.returncode}): "
              f"{proc.stderr.strip()}")
        return 1
    vex = vex_functions(proc.stdout, MEMBER)
    tainted = sorted(f for f in set(functions) if f in vex)
    for function in tainted:
        print(f"{MEMBER}: exported {function} contains VEX code "
              f"({vex[function]}); define it before the target pragma or "
              "give it internal linkage")
    failed = failed or bool(tainted)
    if not tainted:
        print(f"{MEMBER}: none of its {len(set(functions))} exported "
              "functions contains VEX code")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
