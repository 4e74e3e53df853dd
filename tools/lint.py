#!/usr/bin/env python3
"""StreamLake static lint: correctness conventions the compiler can't enforce.

Rules
  R1  [[nodiscard]] must stay on Status (src/common/status.h) and Result<T>
      (src/common/result.h) so dropped error returns warn everywhere.
  R2  Naked standard locking primitives (std::mutex, std::shared_mutex,
      std::lock_guard, std::unique_lock, std::shared_lock, std::scoped_lock,
      std::condition_variable) are banned outside src/common/mutex.{h,cc}.
      Use the annotated Mutex / SharedMutex / MutexLock / CondVar wrappers,
      which Clang's -Wthread-safety analysis can see through.
  R3  Include hygiene:
      a. <mutex>, <shared_mutex>, <condition_variable> may only be included
         by src/common/mutex.{h,cc}.
      b. Any file naming a wrapper type (Mutex, MutexLock, CondVar,
         GUARDED_BY, ...) must include "common/mutex.h" directly or via its
         own header (include-what-you-use for the locking layer).
      c. No parent-relative includes (#include "../...").
      d. Headers under src/ carry a STREAMLAKE_*_H_ include guard.
  R4  Every Mutex / SharedMutex member declared under src/ names its
      LockRank in the declaration, keeping the lock hierarchy total (see
      DESIGN.md, "Lock hierarchy").
  R5  No blocking calls inside a MutexLock / WriterMutexLock /
      ReaderMutexLock scope: real-time sleeps (std::this_thread::sleep_*,
      sleep/usleep/nanosleep), thread .join(), argument-less .Wait() /
      ->Wait() (ThreadPool-style barrier waits; CondVar::Wait(&mu) takes
      the mutex argument and is exempt), and SimClock sleep-style helpers
      (SleepFor/SleepUntil) should never run under a module lock.
      For src/ this rule is RETIRED in favour of the whole-program
      analyzer (tools/slint, check S2), which also sees blocking calls
      reached transitively through callees; lint keeps the cheap
      intraprocedural scan only for tests/, bench/ and examples/, which
      slint does not analyze.
  R6  No ad-hoc instrumentation counters under src/ outside
      src/common/metrics.{h,cc}: members named *_counter_ and
      pointer-plumbed `counters->` stat structs are banned. Observability
      goes through MetricsRegistry (common/metrics.h) under a stable
      dotted name so it shows up in snapshots and the CI bench gate
      (DESIGN.md, "Observability").
  R7  Every `.IgnoreError()` call under src/ carries an adjacent
      `// ignore-ok: <reason>` comment (same line or the line above),
      mirroring the slint suppression grammar: silently dropping a Status
      needs a written justification just like suppressing a finding.
      Prefer `.LogIgnored("reason")`, which logs a warning and bumps
      common.status.ignored — it needs no comment because it carries its
      reason in code.
  R8  Outside src/storage/ and tests/, nothing calls
      StoragePool::AllocateExtents directly. Redundancy groups are placed
      through StoragePool::AllocateSpread, the one "distinct nodes, else
      distinct disks" rule, so no caller grows its own copy of the
      fallback.
  R9  Outside tests/, nothing evaluates a conjunction row at a time with a
      two-argument Matches(schema, row), which looks each column up by name
      on every row. Scans and rewrites bind it once
      (query::BoundConjunction) and evaluate it over column chunks; only
      the tests' row-at-a-time reference (tests/oracle, oracle::Matches)
      keeps the row form.
  R10 A CompareValues call (WHERE's comparison, under which a NaN equals
      every double) is allowed only under src/format/, in
      src/query/predicate.cc, under src/lakebrain/ and under tests/.
      GROUP BY, joins, ORDER BY and MIN/MAX compare keys by the one key
      rule, format::CompareKeys, so no key structure grows its own order.
  R11 Under src/query/ and src/table/, no ordered container (std::map,
      std::set, std::multimap, std::multiset) is keyed by format::Value
      (alone or in a std::vector) or ordered by a KeyLess. GROUP BY
      state and the join build side live in the one key table,
      query::KeyTable over query::KeyEncoder's normalized key bytes, and
      sorted output comes from its SortedIds.
  R12 Under src/format/ and src/codec/, no ordered container (std::map,
      std::set, std::multimap, std::multiset) and no std::set_union. The
      encoder numbers dictionary entries and counts distinct values in one
      pass over each chunk through codec::KeyIds, a flat hash table, and
      unions a file's row groups through the same kind of table.
  R13 No header under src/query/ declares a function that takes a
      format::Row or a std::vector<format::Row>. The operators consume
      column batches (query::ChunkRows) through one entry point each; rows
      are built only as a result's output, and the row-at-a-time reference
      lives in tests/oracle.
  R14 Under src/, no vector grows by an exact reserve of its own size plus
      more: `x.reserve(x.size() + n)` or `x->reserve(x->size() + n)`. On
      a vector that is appended to again, each such call reallocates and
      moves every element so far (it made the rewrites' gather
      quadratic); push_back and resize grow geometrically. A reserve of a
      fresh vector from other sizes is fine.

Run from the repo root:  python3 tools/lint.py
Registered as the `lint` ctest, so tier-1 verify runs it automatically;
tools/lint_test.py (`lint_selftest` ctest) exercises these rules on
synthetic sources.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "tests", "bench", "examples")
# The wrapper implementation itself is the one place allowed to use the
# standard primitives and their headers (R2/R3a).
MUTEX_FILES = (
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "mutex.cc"),
)
# The metrics layer itself is the one place allowed to look like a counter
# implementation (R6).
METRICS_FILES = (
    os.path.join("src", "common", "metrics.h"),
    os.path.join("src", "common", "metrics.cc"),
)

BANNED_PRIMITIVES = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(_any)?)\b")
BANNED_INCLUDES = re.compile(
    r'#\s*include\s*<(mutex|shared_mutex|condition_variable)>')
WRAPPER_USE = re.compile(
    r"\b(MutexLock|WriterMutexLock|ReaderMutexLock|CondVar|GUARDED_BY|"
    r"PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|SCOPED_CAPABILITY)\b")
RELATIVE_INCLUDE = re.compile(r'#\s*include\s*"\.\./')
LOCAL_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')

# R4: a Mutex/SharedMutex variable declaration (not a pointer/reference
# parameter, which matches `Mutex*` / `Mutex&` and is skipped by \s+\w).
MUTEX_DECL = re.compile(r"\b(Mutex|SharedMutex)\s+(\w+)")

# R6: ad-hoc counter idioms that bypass the metrics registry.
AD_HOC_COUNTER = re.compile(r"\b\w+_counter_\b|\bcounters\s*->")

# R7: the call form only (`.IgnoreError()`), so the declaration in
# status.h (`void IgnoreError() const`) is exempt by construction.
IGNORE_CALL = re.compile(r"\.\s*IgnoreError\s*\(\s*\)")
IGNORE_OK = re.compile(r"//\s*ignore-ok:\s*\S")

# R8: direct extent allocation, allowed only in the store layer and tests.
ALLOCATE_EXTENTS = re.compile(r"\bAllocateExtents\s*\(")
PLACEMENT_DIRS = (os.path.join("src", "storage") + os.sep, "tests" + os.sep)

# R9: row-at-a-time conjunction evaluation: a Matches call whose arguments
# hold a comma outside nested parentheses (Predicate::Matches takes one).
ROW_MATCHES = re.compile(r"(\.|->)Matches\s*\((?:[^()]|\([^()]*\))*?,")
ROW_MATCHES_DIRS = ("tests" + os.sep,)

# R10: WHERE-semantics comparison, allowed only where WHERE and stats
# pruning live (and in tests).
COMPARE_VALUES = re.compile(r"\bCompareValues\s*\(")
COMPARE_VALUES_PATHS = (os.path.join("src", "format") + os.sep,
                        os.path.join("src", "query", "predicate.cc"),
                        os.path.join("src", "lakebrain") + os.sep,
                        "tests" + os.sep)

# R11: an ordered container keyed by Value (or a vector of them) or ordered
# by KeyLess, under the query and table layers. The template arguments may
# span lines, so this scans the whole stripped text.
VALUE_KEYED_CONTAINER = re.compile(
    r"\bstd::(multimap|multiset|map|set)\s*<\s*"
    r"(?:(?:const\s+)?(?:format::)?Value\b"
    r"|std::vector\s*<\s*(?:format::)?Value\s*>"
    r"|[^;{}]*?\bKeyLess\b)")
KEY_TABLE_DIRS = (os.path.join("src", "query") + os.sep,
                  os.path.join("src", "table") + os.sep)

# R12: ordered containers and set_union, under the format and codec layers.
ORDERED_CONTAINER = re.compile(
    r"\bstd::(multimap|multiset|map|set|set_union)\b")
ENCODER_DIRS = (os.path.join("src", "format") + os.sep,
                os.path.join("src", "codec") + os.sep)

# R13: a parameter of type format::Row or std::vector<format::Row> (by
# value, reference or pointer): the type right after a '(' or ','. The
# match's group marks the line to report.
ROW_PARAMETER = re.compile(
    r"[(,]\s*(?:const\s+)?"
    r"((?:std::vector\s*<\s*(?:const\s+)?)?(?:format::)?Row\b)")
ROW_API_DIR = os.path.join("src", "query") + os.sep

# R14: `x.reserve(x.size() + ...)` / `x->reserve(x->size() + ...)`, the same
# receiver on both sides (a backreference), possibly across lines.
SELF_GROWTH_RESERVE = re.compile(
    r"(?<![\w.])(?<!->)((?:\w+\s*(?:\.|->)\s*)*\w+)\s*(\.|->)\s*reserve\s*"
    r"\(\s*\1\s*\2\s*size\s*\(\s*\)\s*\+")

# R5: lock-scope openers and the blocking calls banned inside them.
LOCK_SCOPE = re.compile(
    r"\b(MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*[({]")
BLOCKING_CALL = re.compile(
    r"(std::this_thread::sleep_(for|until)\b"
    r"|\b(::)?(sleep|usleep|nanosleep)\s*\("
    r"|\.join\s*\(\s*\)"
    r"|(\.|->)Wait\s*\(\s*\)"
    r"|(\.|->)Sleep(For|Until)\s*\()")


def strip_comments(text):
    """Blank out comments, string literals (including raw strings), and
    character literals so banned tokens in prose or messages don't trip the
    lint. Newlines are preserved, so line numbers in the result match the
    original text — unlike a regex pass, which raw strings like
    R"(// not a comment)" and escaped quotes would derail."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == "R" and nxt == '"':  # raw string literal R"delim(...)delim"
            j = text.find("(", i + 2)
            if j == -1:
                out.append(c)
                i += 1
                continue
            delim = text[i + 2:j]
            end = text.find(")" + delim + '"', j + 1)
            if end == -1:
                out.append(c)
                i += 1
                continue
            out.append('""')
            out.append("\n" * text.count("\n", i, end))
            i = end + len(delim) + 2
        elif c == '"':  # ordinary string literal, honouring \" escapes
            out.append('""')
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; don't eat the file
                    break
                i += 1
            i += 1
        elif c == "'":  # character literal, honouring \' escapes
            out.append("''")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    break
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lineno_at(text, pos):
    return text.count("\n", 0, pos) + 1


def check_rank_declared(path, code, errors):
    """R4: every Mutex/SharedMutex member under src/ carries a LockRank
    initializer. Scans to the end of the declaration statement (the next
    ';'), so multi-line brace initializers are handled."""
    for m in MUTEX_DECL.finditer(code):
        stmt_end = code.find(";", m.end())
        stmt = code[m.start():stmt_end if stmt_end != -1 else len(code)]
        if "LockRank::" not in stmt:
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R4: {m.group(1)} "
                f"'{m.group(2)}' declared without a LockRank; every lock "
                "names its place in the hierarchy (DESIGN.md)")


def check_blocking_under_lock(path, code, errors):
    """R5: flag blocking calls between a scoped-lock declaration and the
    close of its enclosing compound statement (tracked by brace depth).

    Intraprocedural by construction, so only applied OUTSIDE src/: for
    src/ the interprocedural slint S2 check supersedes it (a sleep two
    frames below the lock is invisible here but not there)."""
    regions = []  # (start_pos, end_pos) of live lock scopes
    for m in LOCK_SCOPE.finditer(code):
        depth = 0
        end = len(code)
        for i in range(m.end(), len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth < 0:
                    end = i
                    break
        regions.append((m.end(), end))
    for m in BLOCKING_CALL.finditer(code):
        if any(start <= m.start() < end for start, end in regions):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R5: blocking call "
                f"'{m.group(0).strip()}' inside a scoped-lock region; "
                "release the lock before sleeping, joining, or waiting")


def lint_text(path, raw):
    """All single-file rules, on in-memory text (self-test entry point)."""
    errors = []
    is_mutex_file = path in MUTEX_FILES
    code = strip_comments(raw)

    # Token rules scan comment-stripped code; include rules scan raw
    # lines (stripping also blanks string literals, hiding "..." paths).
    for lineno, line in enumerate(code.split("\n"), 1):
        if not is_mutex_file:
            m = BANNED_PRIMITIVES.search(line)
            if m:
                errors.append(
                    f"{path}:{lineno}: R2: naked std::{m.group(1)}; use "
                    "the annotated wrappers from common/mutex.h")
    for lineno, line in enumerate(raw.split("\n"), 1):
        if not is_mutex_file:
            m = BANNED_INCLUDES.search(line)
            if m:
                errors.append(
                    f"{path}:{lineno}: R3a: #include <{m.group(1)}> is "
                    "reserved for common/mutex.h")
        if RELATIVE_INCLUDE.search(line):
            errors.append(
                f"{path}:{lineno}: R3c: parent-relative include; use a "
                "src/-rooted path")

    if path.startswith("src" + os.sep) and path.endswith(".h"):
        if not re.search(r"#ifndef STREAMLAKE_\w+_H_", raw):
            errors.append(
                f"{path}: R3d: missing STREAMLAKE_*_H_ include guard")

    if path.startswith("src" + os.sep) and not is_mutex_file:
        check_rank_declared(path, code, errors)

    if path.startswith("src" + os.sep) and path not in METRICS_FILES:
        for lineno, line in enumerate(code.split("\n"), 1):
            m = AD_HOC_COUNTER.search(line)
            if m:
                errors.append(
                    f"{path}:{lineno}: R6: ad-hoc counter "
                    f"'{m.group(0).strip()}'; report through "
                    "MetricsRegistry (common/metrics.h) instead")

    if path.startswith("src" + os.sep):
        # R7 scans stripped code for the call (so prose mentions don't
        # trip it) but raw lines for the justification comment.
        raw_lines = raw.split("\n")
        for m in IGNORE_CALL.finditer(code):
            lineno = lineno_at(code, m.start())
            adjacent = raw_lines[max(0, lineno - 2):lineno]
            if not any(IGNORE_OK.search(line) for line in adjacent):
                errors.append(
                    f"{path}:{lineno}: R7: .IgnoreError() without an "
                    "adjacent '// ignore-ok: <reason>' comment; justify "
                    "the drop or use .LogIgnored(\"reason\")")

    if not path.startswith(PLACEMENT_DIRS):
        for m in ALLOCATE_EXTENTS.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R8: direct "
                "AllocateExtents call outside src/storage/; place replica "
                "groups with StoragePool::AllocateSpread")

    if not path.startswith(ROW_MATCHES_DIRS):
        for m in ROW_MATCHES.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R9: row-at-a-time "
                "Matches(schema, row) outside tests/; bind the conjunction "
                "once with query::BoundConjunction and evaluate chunks")

    if not path.startswith(COMPARE_VALUES_PATHS):
        for m in COMPARE_VALUES.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R10: CompareValues "
                "call outside WHERE and stats code; compare keys with "
                "format::CompareKeys")

    if path.startswith(KEY_TABLE_DIRS):
        for m in VALUE_KEYED_CONTAINER.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R11: ordered "
                f"std::{m.group(1)} keyed by format::Value or KeyLess; key "
                "GROUP BY and join state with query::KeyTable")

    if path.startswith(ENCODER_DIRS):
        for m in ORDERED_CONTAINER.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R12: std::{m.group(1)} "
                "in the format/codec layers; number and count keys with "
                "codec::KeyIds")

    if path.startswith(ROW_API_DIR) and path.endswith(".h"):
        for m in ROW_PARAMETER.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start(1))}: R13: query-layer "
                "function takes a format::Row; consume column batches "
                "(query::ChunkRows) and keep row-at-a-time references in "
                "tests/oracle")

    if path.startswith("src" + os.sep):
        for m in SELF_GROWTH_RESERVE.finditer(code):
            errors.append(
                f"{path}:{lineno_at(code, m.start())}: R14: "
                f"{m.group(1)}{m.group(2)}reserve({m.group(1)}{m.group(2)}"
                "size() + ...) reallocates on every call; let push_back or "
                "resize grow the vector, or reserve the final size once")

    if not path.startswith("src" + os.sep):
        check_blocking_under_lock(path, code, errors)
    return errors


def source_files():
    for d in SCAN_DIRS:
        for root, _, names in os.walk(os.path.join(REPO, d)):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    yield os.path.relpath(os.path.join(root, name), REPO)


def direct_includes(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        return set(LOCAL_INCLUDE.findall(f.read()))


def check_nodiscard(errors):
    expectations = [
        (os.path.join("src", "common", "status.h"),
         r"class\s+\[\[nodiscard\]\]\s+Status\b", "Status"),
        (os.path.join("src", "common", "result.h"),
         r"class\s+\[\[nodiscard\]\]\s+Result\b", "Result<T>"),
    ]
    for path, pattern, what in expectations:
        with open(os.path.join(REPO, path), encoding="utf-8") as f:
            if not re.search(pattern, f.read()):
                errors.append(
                    f"{path}: R1: {what} lost its [[nodiscard]] attribute")


def sibling_header(path):
    base, ext = os.path.splitext(path)
    if ext in (".cc", ".cpp"):
        h = base + ".h"
        if os.path.exists(os.path.join(REPO, h)):
            return os.path.relpath(h, "src") if h.startswith("src" + os.sep) \
                else h
    return None


def main():
    errors = []
    check_nodiscard(errors)

    for path in source_files():
        with open(os.path.join(REPO, path), encoding="utf-8") as f:
            raw = f.read()
        errors.extend(lint_text(path, raw))

        # R3b needs the filesystem (sibling-header lookup), so it stays out
        # of lint_text.
        if path not in MUTEX_FILES and WRAPPER_USE.search(strip_comments(raw)):
            includes = direct_includes(path)
            header = sibling_header(path)
            if "common/mutex.h" not in includes and (
                    header is None or "common/mutex.h" not in
                    direct_includes(os.path.join("src", header) if
                                    os.path.exists(os.path.join(
                                        REPO, "src", header)) else header)):
                errors.append(
                    f"{path}: R3b: uses locking wrappers without including "
                    '"common/mutex.h" (directly or via its own header)')

    if errors:
        print(f"lint: {len(errors)} violation(s)")
        for e in errors:
            print("  " + e)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
