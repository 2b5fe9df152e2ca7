#!/usr/bin/env python3
"""Repo-invariant linter: SLAM-specific rules the generic tools can't check.

The four rules that need type or call-graph information — exec-context
polling, narrowing casts, uncompensated aggregate accumulation, and raw
intrinsics placement — moved to the AST checker in tools/slam_tidy/ (see
DESIGN.md §13); this linter keeps the purely textual rules:

  banned-function    rand()/srand() (not reproducible; use util/random.h),
                     strtod/strtof/atof (locale-dependent; use
                     ParseDouble), time(nullptr) (non-deterministic; use
                     util/timer.h clocks).

  unvalidated-parse  No direct std::sto* / from_chars / sscanf outside the
                     sanctioned parse layer (util/string_util.cc). Those
                     entry points throw, ignore trailing garbage, or skip
                     range checks; every number that enters the system must
                     come through ParseDouble/ParseInt64 and then the
                     validation layer (util/validate.h) so hostile input is
                     rejected exactly once, with a typed Status.

  comparison-sort    No `std::sort` / `std::stable_sort` in src/core/: a
                     swept line needs only each pixel bucket's sum, which
                     the engine's bucket sums (simd bucket_sweep) and the
                     direct entry's O(n + X) pixel-binned counting sort
                     (simd histogram_scatter) give without ordering any
                     endpoint (DESIGN.md §12), and a comparison sort
                     silently reintroduces an O(n log n) per row.
                     The one sort a SLAM compute pays, of its points along
                     the swept axis, runs once per compute in the engine
                     (kdv/engine.cc, DESIGN.md §4 item 4), outside this
                     scope; any other once-per-compute sort here carries an
                     explicit waiver.

  retry-backoff      A loop whose header names a retry/attempt counter must
                     reference a backoff (Backoff/RetryPolicy/
                     DelayBeforeRetry) or poll its budget (Deadline/
                     ExecCheck/Check) inside the loop. A bare retry loop
                     hot-spins on a failing dependency and ignores the
                     request deadline — the resilience layer (util/backoff.h,
                     serve/resilient_render.cc) exists so nobody hand-rolls
                     one.

Each rule can be waived on a single line with `// lint:allow(<rule>)` plus
a reason in the surrounding comment.

Exit status: 0 clean, 1 violations (printed as file:line: rule: message).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# The stripper is shared with other source-scanning tools and unit-tested
# in tests/tools/source_strip_test.py.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from source_strip import strip_comments_and_strings  # noqa: E402

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")

class SourceFile:
    def __init__(self, path: Path, root: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.code = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.splitlines()
        self.code_lines = self.code.splitlines()

    def allowed(self, line_no: int, rule: str) -> bool:
        """True if line `line_no` (1-based) carries a waiver for `rule`."""
        if 1 <= line_no <= len(self.raw_lines):
            for m in ALLOW_RE.finditer(self.raw_lines[line_no - 1]):
                if m.group(1) == rule:
                    return True
        return False


class Violation:
    def __init__(self, rel: str, line: int, rule: str, message: str):
        self.rel, self.line, self.rule, self.message = rel, line, rule, message

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: {self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# Rule: banned-function
# ---------------------------------------------------------------------------

BANNED = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()",
     "not reproducible across platforms; use util/random.h"),
    (re.compile(r"(?<![\w:])(?:std::)?(?:strtod|strtof|atof)\s*\("),
     "strtod/strtof/atof",
     "reads the global locale; use ParseDouble (util/string_util.h)"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr)",
     "non-deterministic seeds/timing; use util/timer.h or an explicit seed"),
]


def check_banned(f: SourceFile) -> list[Violation]:
    out = []
    for i, line in enumerate(f.code_lines, start=1):
        if f.allowed(i, "banned-function"):
            continue
        for pattern, what, why in BANNED:
            if pattern.search(line):
                out.append(
                    Violation(f.rel, i, "banned-function", f"{what}: {why}")
                )
    return out


# ---------------------------------------------------------------------------
# Rule: unvalidated-parse
# ---------------------------------------------------------------------------

# The one place raw text is allowed to become a number: the shared parse
# helpers, which reject trailing garbage and feed the validation layer.
PARSE_EXEMPT = ("src/util/string_util.cc",)
UNVALIDATED_PARSE = [
    (re.compile(r"(?<![\w:])std::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\("),
     "std::sto*",
     "throws on garbage and accepts trailing junk ('12abc' -> 12)"),
    (re.compile(r"(?<![\w:])(?:std::)?from_chars\s*\("), "from_chars",
     "skips the trailing-garbage and range checks ParseDouble/ParseInt64 do"),
    (re.compile(r"(?<![\w:])(?:std::)?s?scanf\s*\("), "sscanf/scanf",
     "no overflow detection and UB on out-of-range %d"),
]


def check_unvalidated_parse(f: SourceFile) -> list[Violation]:
    if f.rel in PARSE_EXEMPT:
        return []
    out = []
    for i, line in enumerate(f.code_lines, start=1):
        if f.allowed(i, "unvalidated-parse"):
            continue
        for pattern, what, why in UNVALIDATED_PARSE:
            if pattern.search(line):
                out.append(
                    Violation(
                        f.rel,
                        i,
                        "unvalidated-parse",
                        f"{what}: {why}; parse via ParseDouble/ParseInt64 "
                        "(util/string_util.h) and validate with the "
                        "Check* helpers (util/validate.h)",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Rule: comparison-sort
# ---------------------------------------------------------------------------

COMPARISON_SORT_SCOPE = "src/core/"
COMPARISON_SORT_RE = re.compile(r"\bstd::(?:stable_)?sort\s*\(")


def check_comparison_sort(f: SourceFile) -> list[Violation]:
    if not f.rel.startswith(COMPARISON_SORT_SCOPE):
        return []
    out = []
    for i, line in enumerate(f.code_lines, start=1):
        if f.allowed(i, "comparison-sort"):
            continue
        if COMPARISON_SORT_RE.search(line):
            out.append(
                Violation(
                    f.rel,
                    i,
                    "comparison-sort",
                    "std::sort/std::stable_sort in a sweep hot path: a "
                    "line needs each pixel bucket's sum, not an endpoint "
                    "order — add endpoints into bucket sums "
                    "(SimdOps::bucket_sweep) or bin them with the "
                    "pixel-binned counting sort (SimdOps::histogram_scatter), "
                    "DESIGN.md §12; a once-per-compute sort may carry a "
                    "lint:allow(comparison-sort) waiver with a reason",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Rule: retry-backoff
# ---------------------------------------------------------------------------


def function_body(code: str, sig_end: int) -> tuple[int, int] | None:
    """Returns (open_brace, close_brace) of the body starting at/after the
    parameter list whose '(' sits at sig_end - 1."""
    depth = 0
    i = sig_end - 1
    n = len(code)
    while i < n:  # skip the parameter list
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    while i < n and code[i] != "{":
        if code[i] == ";":
            return None  # declaration, not a definition
        i += 1
    if i >= n:
        return None
    start = i
    depth = 0
    while i < n:
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return (start, i)
        i += 1
    return None


RETRY_LOOP_RE = re.compile(
    r"\b(?:for|while)\s*\([^)]*\b(?:retry|retries|attempt|attempts)\w*\b"
)
BACKOFF_TOKENS_RE = re.compile(
    r"\bBackoff\b|\bRetryPolicy\b|\bDelayBeforeRetry\b|\bbackoff\b|"
    r"\bDeadline\b|\bdeadline\b|\bExecCheck\s*\(|->\s*Check\s*\(|"
    r"\.\s*Check\s*\("
)


def check_retry_backoff(f: SourceFile) -> list[Violation]:
    out = []
    for m in RETRY_LOOP_RE.finditer(f.code):
        line = f.code.count("\n", 0, m.start()) + 1
        if f.allowed(line, "retry-backoff"):
            continue
        span = function_body(f.code, f.code.find("(", m.start()) + 1)
        if span is None:
            continue
        body = f.code[m.start() : span[1]]
        if BACKOFF_TOKENS_RE.search(body):
            continue
        out.append(
            Violation(
                f.rel,
                line,
                "retry-backoff",
                "retry/attempt loop with no backoff and no deadline/"
                "ExecContext poll: hot-spins on failure and can outlive the "
                "request budget; use RetryPolicy + Backoff (util/backoff.h) "
                "or poll ExecCheck/Deadline inside the loop",
            )
        )
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent)
    parser.add_argument("files", nargs="*", type=Path,
                        help="restrict to these files (default: whole tree)")
    args = parser.parse_args()
    root = args.root.resolve()

    scan_dirs = ("src", "tools", "bench", "examples")
    if args.files:
        paths = [p.resolve() for p in args.files]
    else:
        paths = []
        for d in scan_dirs:
            base = root / d
            if base.is_dir():
                paths.extend(sorted(base.rglob("*.cc")))
                paths.extend(sorted(base.rglob("*.h")))

    violations: list[Violation] = []
    for path in paths:
        if not path.is_file() or path.suffix not in (".cc", ".h"):
            continue
        f = SourceFile(path, root)
        violations.extend(check_banned(f))
        violations.extend(check_unvalidated_parse(f))
        violations.extend(check_comparison_sort(f))
        violations.extend(check_retry_backoff(f))

    for v in violations:
        print(v)
    if violations:
        print(f"\nlint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: {len(paths)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
