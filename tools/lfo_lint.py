#!/usr/bin/env python3
"""lfo_lint: project-specific invariant checker for the LFO tree.

Lexical (token-level) checks that encode contracts the compiler cannot
see.  No compiler or clang tooling is required, so the lint runs in any
environment that has Python 3.

Rules
-----
hotpath      Functions tagged ``LFO_HOT_PATH`` must not allocate or
             lock: no ``new``/``malloc``/``make_unique``/container
             growth calls and no mutexes inside the tagged body.  Nor
             may they write process-wide metrics (``LFO_COUNTER_*``,
             ``LFO_GAUGE_SET``, ``LFO_HISTOGRAM_OBSERVE_SECONDS``): a
             per-request fact is counted once, shard-locally, and read
             at scrape time.
nondet       Decision-affecting code (``src/core``, ``src/opt``,
             ``src/gbdt``, ``src/trace``) must be deterministic: no ``rand``/
             ``random_device``/``mt19937``, no wall clocks
             (``steady_clock``/``system_clock``/...), and no range-for
             iteration over ``std::unordered_*`` containers (hash
             iteration order is implementation-defined).
check-effect LFO_CHECK / LFO_DCHECK argument expressions must be free
             of side effects (``++``, ``--``, assignments): DCHECKs
             compile out in release builds, so a side effect inside one
             changes behavior between build types.
metric-name  Metric names must follow the obs conventions: counters
             end in ``_total``, histograms/timers end in ``_seconds``,
             gauges carry neither suffix, and everything starts with
             ``lfo_``.  Also covers endpoint metric tables — brace
             entries pairing a ``"/path"`` literal with a counter name
             (the ``kEndpointRequestCounters`` form in the telemetry
             server).
endpoint     Functions tagged ``LFO_ENDPOINT_HANDLER`` parse untrusted
             bytes off a socket: malformed input must map to a 4xx
             response, never to a process abort, so no ``LFO_CHECK`` /
             ``LFO_DCHECK`` inside the tagged body.

Suppressions
------------
A justified violation is silenced with a comment on the same line or
the line directly above::

    // lfo-lint: allow(nondet): keys are sorted below, order is irrelevant

The reason text after the second colon is mandatory; a bare
``allow(rule)`` does not suppress.

Exit status: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

CPP_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h"}

#: Directories (relative to --root) whose code decides cache behavior and
#: therefore falls under the determinism contract (see DESIGN.md
#: "same_decisions"): identical inputs must yield identical decisions.
DECISION_DIRS = ("src/core", "src/opt", "src/gbdt", "src/trace")

ALLOW_RE = re.compile(r"lfo-lint:\s*allow\((?P<rule>[a-z-]+)\)\s*:\s*\S")

HOTPATH_BANNED = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "C allocation"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "smart-pointer allocation"),
    (re.compile(r"[.>]\s*(?:resize|push_back|emplace_back|emplace|insert|"
                r"assign|reserve)\s*\("), "container growth"),
    (re.compile(r"\bstd::(?:mutex|lock_guard|unique_lock|scoped_lock|"
                r"shared_mutex|shared_lock)\b"), "locking"),
    (re.compile(r"\bMutexLock\b"), "locking"),
    (re.compile(r"[.>]\s*(?:lock|try_lock)\s*\("), "locking"),
    (re.compile(r"\bLFO_(?:COUNTER_(?:ADD|INC)|GAUGE_SET|"
                r"HISTOGRAM_OBSERVE_SECONDS)\b"), "process-wide metric write"),
]

NONDET_BANNED = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\brandom_shuffle\b"), "std::random_shuffle"),
    (re.compile(r"\b(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+)\b"),
     "unseeded-by-contract standard engine (use util::Rng)"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
     "wall clock"),
    (re.compile(r"\bgettimeofday\s*\("), "wall clock"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "wall clock"),
]

CHECK_MACRO_RE = re.compile(r"\bLFO_D?CHECK(?:_[A-Z]+)?\s*\(")

# Metric registration forms -> required name shape.
METRIC_FORMS = [
    (re.compile(r"\bLFO_COUNTER_(?:ADD|INC)\s*\(\s*\"([^\"]*)\""), "counter"),
    (re.compile(r"[.>]\s*counter\s*\(\s*\"([^\"]*)\""), "counter"),
    (re.compile(r"\bLFO_HISTOGRAM_OBSERVE_SECONDS\s*\(\s*\"([^\"]*)\""),
     "histogram"),
    (re.compile(r"[.>]\s*histogram\s*\(\s*\"([^\"]*)\""), "histogram"),
    (re.compile(r"\bLFO_GAUGE_SET\s*\(\s*\"([^\"]*)\""), "gauge"),
    (re.compile(r"[.>]\s*gauge\s*\(\s*\"([^\"]*)\""), "gauge"),
    # Endpoint metric tables: {"/path", "lfo_..._total"} entries pairing a
    # URL path with the per-endpoint request counter it feeds (the
    # kEndpointRequestCounters form in src/obs/telemetry_server.cpp).
    (re.compile(r"\{\s*\"/[^\"]*\"\s*,\s*\"([^\"]*)\"\s*\}"), "counter"),
]

METRIC_NAME_RE = re.compile(r"lfo_[a-z0-9_]+$")


@dataclass
class Violation:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str


@dataclass
class SourceFile:
    """A source file split into comment-free code lines.

    ``code[i]`` is line ``i`` with comments removed and string/char
    literals blanked (quotes kept, contents replaced by spaces) so
    token scans never match inside text.  ``code_strings[i]`` keeps the
    literal contents (for metric-name checks).  ``allows[i]`` holds the
    rule names allowed on line ``i`` by suppression comments.
    """

    path: pathlib.Path
    raw: list[str]
    code: list[str]
    code_strings: list[str]
    allows: list[set[str]]


def _strip_line(line: str, in_block: bool) -> tuple[str, str, str, bool]:
    """Split one raw line into (code, code_with_strings, comment_text)."""
    code: list[str] = []
    with_str: list[str] = []
    comment: list[str] = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                comment.append(line[i:])
                i = n
            else:
                comment.append(line[i:end])
                i = end + 2
                in_block = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            comment.append(line[i + 2:])
            i = n
        elif ch == "/" and nxt == "*":
            in_block = True
            i += 2
        elif ch in "\"'":
            quote = ch
            code.append(quote)
            with_str.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\" and i + 1 < n:
                    code.append("  ")
                    with_str.append(line[i:i + 2])
                    i += 2
                    continue
                if line[i] == quote:
                    code.append(quote)
                    with_str.append(quote)
                    i += 1
                    break
                code.append(" ")
                with_str.append(line[i])
                i += 1
        else:
            code.append(ch)
            with_str.append(ch)
            i += 1
    return "".join(code), "".join(with_str), "".join(comment), in_block


def load_source(path: pathlib.Path) -> SourceFile:
    raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    code: list[str] = []
    code_strings: list[str] = []
    allows: list[set[str]] = []
    in_block = False
    for idx, line in enumerate(raw):
        c, cs, comment, in_block = _strip_line(line, in_block)
        # Preprocessor lines are not expression context; skip them so
        # macro *definitions* (e.g. the LFO_CHECK implementation) never
        # trip expression rules.
        if c.lstrip().startswith("#"):
            c, cs = "", ""
        code.append(c)
        code_strings.append(cs)
        rules = {m.group("rule") for m in ALLOW_RE.finditer(comment)}
        allows.append(rules)
    return SourceFile(path, raw, code, code_strings, allows)


def allowed(src: SourceFile, line_idx: int, rule: str) -> bool:
    """True if the violation on ``line_idx`` (0-based) is suppressed."""
    if rule in src.allows[line_idx]:
        return True
    return line_idx > 0 and rule in src.allows[line_idx - 1]


def report(out: list[Violation], src: SourceFile, line_idx: int, rule: str,
           message: str) -> None:
    if not allowed(src, line_idx, rule):
        out.append(Violation(src.path, line_idx + 1, rule, message))


# ---------------------------------------------------- tagged-body walker


def tagged_bodies(src: SourceFile, tag: str):
    """Yield (start_idx, end_idx) line ranges of ``tag``-marked bodies.

    ``tag`` is a function-tag macro (LFO_HOT_PATH, LFO_ENDPOINT_HANDLER):
    the body is the brace block of the first '{' at paren depth 0 after
    the tag, skipping the parameter list.
    """
    text = "\n".join(src.code)
    offsets = [0]
    for line in src.code:
        offsets.append(offsets[-1] + len(line) + 1)

    def line_of(pos: int) -> int:
        lo, hi = 0, len(offsets) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if offsets[mid] <= pos:
                lo = mid
            else:
                hi = mid
        return lo

    for m in re.finditer(r"\b" + re.escape(tag) + r"\b", text):
        # Walk to the function's opening brace: the first '{' at paren
        # depth 0 after the tag (skips the parameter list).
        i, depth = m.end(), 0
        open_pos = -1
        while i < len(text):
            ch = text[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "{" and depth == 0:
                open_pos = i
                break
            elif ch == ";" and depth == 0:
                break  # declaration only — nothing to scan
            i += 1
        if open_pos < 0:
            continue
        i, depth = open_pos, 0
        close_pos = len(text) - 1
        while i < len(text):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    close_pos = i
                    break
            i += 1
        yield line_of(open_pos), line_of(close_pos)


def check_hotpath(src: SourceFile, out: list[Violation]) -> None:
    for start, end in tagged_bodies(src, "LFO_HOT_PATH"):
        for idx in range(start, end + 1):
            for pattern, what in HOTPATH_BANNED:
                if pattern.search(src.code[idx]):
                    report(out, src, idx, "hotpath",
                           f"{what} in LFO_HOT_PATH function")


# --------------------------------------------------------------- endpoint


def check_endpoint(src: SourceFile, out: list[Violation]) -> None:
    """No aborting checks in HTTP endpoint handlers.

    LFO_ENDPOINT_HANDLER bodies parse untrusted request bytes; the
    contract (see src/obs/telemetry_server.hpp) is that malformed input
    yields a 4xx response, so an LFO_CHECK / LFO_DCHECK reachable from
    request data turns a bad curl into a cache-node abort.
    """
    for start, end in tagged_bodies(src, "LFO_ENDPOINT_HANDLER"):
        for idx in range(start, end + 1):
            for m in CHECK_MACRO_RE.finditer(src.code[idx]):
                report(out, src, idx, "endpoint",
                       f"{m.group(0).rstrip('(').strip()} inside an "
                       "LFO_ENDPOINT_HANDLER body (malformed requests "
                       "must get a 4xx, not abort the process)")


# ----------------------------------------------------------------- nondet


def in_decision_dir(path: pathlib.Path, root: pathlib.Path) -> bool:
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return False
    return any(rel == d or rel.startswith(d + "/") for d in DECISION_DIRS)


def unordered_container_names(text: str) -> set[str]:
    """Identifiers declared with std::unordered_* type in ``text``."""
    names: set[str] = set()
    for m in re.finditer(r"\bunordered_(?:map|set|multimap|multiset)\s*<",
                         text):
        i, depth = m.end() - 1, 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        ident = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]",
                         text[i + 1:i + 200])
        if ident:
            names.add(ident.group(1))
    return names


def check_nondet(src: SourceFile, root: pathlib.Path,
                 out: list[Violation]) -> None:
    if not in_decision_dir(src.path, root):
        return
    for idx, line in enumerate(src.code):
        for pattern, what in NONDET_BANNED:
            if pattern.search(line):
                report(out, src, idx, "nondet",
                       f"{what} in decision-affecting code")

    # Hash-order iteration: range-for over a declared unordered_*
    # variable in this file or its paired header.
    names = unordered_container_names("\n".join(src.code))
    header = src.path.with_suffix(".hpp")
    if src.path.suffix != ".hpp" and header.exists():
        names |= unordered_container_names(
            "\n".join(load_source(header).code))
    if not names:
        return
    for idx, line in enumerate(src.code):
        m = re.search(r"\bfor\s*\(.*:\s*(?:\w+(?:\.|->))*([A-Za-z_]\w*)\s*\)",
                      line)
        if m and m.group(1) in names:
            report(out, src, idx, "nondet",
                   f"range-for over unordered container '{m.group(1)}' "
                   "(hash iteration order is implementation-defined)")


# ----------------------------------------------------------- check-effect


def check_side_effects(src: SourceFile, out: list[Violation]) -> None:
    text = "\n".join(src.code)
    offsets = [0]
    for line in src.code:
        offsets.append(offsets[-1] + len(line) + 1)

    def line_of(pos: int) -> int:
        lo, hi = 0, len(offsets) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if offsets[mid] <= pos:
                lo = mid
            else:
                hi = mid
        return lo

    for m in CHECK_MACRO_RE.finditer(text):
        i, depth = m.end() - 1, 0
        start = i
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        args = text[start + 1:i]
        # Remove comparison operators; any '=' that survives is an
        # assignment (plain or compound).
        cleaned = re.sub(r"==|!=|<=|>=", "", args)
        effect = None
        if re.search(r"\+\+|--", cleaned):
            effect = "increment/decrement"
        elif re.search(r"=", cleaned):
            effect = "assignment"
        if effect:
            report(out, src, line_of(m.start()), "check-effect",
                   f"{effect} inside {text[m.start():m.end() - 1].strip()}"
                   " arguments (DCHECKs compile out in release builds)")


# ------------------------------------------------------------ metric-name


def check_metric_names(src: SourceFile, out: list[Violation]) -> None:
    for idx, line in enumerate(src.code_strings):
        for pattern, kind in METRIC_FORMS:
            for m in pattern.finditer(line):
                name = m.group(1)
                bad = None
                if not METRIC_NAME_RE.match(name):
                    bad = "must match lfo_[a-z0-9_]+"
                elif kind == "counter" and not name.endswith("_total"):
                    bad = "counter names must end in _total"
                elif kind == "histogram" and not name.endswith("_seconds"):
                    bad = "histogram/timer names must end in _seconds"
                elif kind == "gauge" and (name.endswith("_total")
                                          or name.endswith("_seconds")):
                    bad = ("gauge names must not carry the _total/_seconds "
                           "suffix of other metric kinds")
                if bad:
                    report(out, src, idx, "metric-name",
                           f"metric '{name}': {bad}")


# ------------------------------------------------------------------ main


def collect_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*")
                                if q.suffix in CPP_SUFFIXES and q.is_file()))
        elif p.is_file():
            files.append(p)
        else:
            print(f"lfo_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="lfo_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories to scan "
                             "(default: <root>/src)")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="tree root used to resolve the decision-dir "
                             "scope of the nondet rule (default: repo root)")
    args = parser.parse_args(argv)

    paths = args.paths or [args.root / "src"]
    violations: list[Violation] = []
    files = collect_files(paths)
    for path in files:
        src = load_source(path)
        check_hotpath(src, violations)
        check_endpoint(src, violations)
        check_nondet(src, args.root, violations)
        check_side_effects(src, violations)
        check_metric_names(src, violations)

    for v in sorted(violations, key=lambda v: (str(v.path), v.line)):
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"lfo_lint: {len(violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lfo_lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
