#!/usr/bin/env python3
"""Link audit: library functions that only tests link.

Builds the repository (every test, bench and example) and the standalone
perfbench project (perfbench_runner) at -O0 with -ffunction-sections, and
links every binary with -Wl,--gc-sections,--print-gc-sections and a link
map, so the linker itself reports which archive members each binary
loads (the map) and which of their function sections it drops (the
gc-sections report): the rest it keeps. A library function is an
externally visible function that a src/ translation unit defines out of
line (not an inline or template instantiation, which every user emits
itself).

A library function is *test-only* when some test binary keeps it and no
bench, example or perfbench_runner does. Each test-only function must be
listed in tools/link_audit_allowlist.txt with a reason:

    <function> -- <reason>

<function> is the demangled name with its parameter list, every
"streamlake::" dropped, exactly as this script prints it. An allowlist
entry that names no test-only function is itself an error (delete it), so
the list cannot go stale and hide the next test-only function. The
allowlist is for deliberate test hooks, test observers of an invariant and
portable reference kernels; anything else is deleted or given a runtime
surface in an example (see DESIGN.md, "Test-only code").

Usage (from the repository root):

    python3 tools/link_audit.py [--build-dir DIR] [--jobs N]
                                [--allowlist FILE] [--no-build]

--build-dir (default build-link-audit/) holds the two CMake builds;
--no-build re-reads the link records of an earlier run. Exit status: 0
clean, 1 findings, 2 usage or build error.

Internal mode: `link_audit.py --record-link -- <link command...>` is the
CMake linker launcher of the audit build. It adds the gc-sections and map
flags to the link, runs it, and writes the linker's report next to the
output binary as <binary>.linkaudit (the map as <binary>.linkaudit.map).
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BUILD_DIR = os.path.join(REPO, "build-link-audit")
DEFAULT_ALLOWLIST = os.path.join(REPO, "tools", "link_audit_allowlist.txt")
RECORD_SUFFIX = ".linkaudit"
LIBRARY = "libstreamlake.a"

LINK_FLAGS = "-Wl,--gc-sections,--print-gc-sections,-Map="
# `removing unused section '.text.X' in file '.../libstreamlake.a(m.cc.o)'`
REMOVED = re.compile(
    r"removing unused section '([^']+)' in file '[^']*"
    + re.escape(LIBRARY) + r"\(([^)]+)\)'")
# The map's "Archive member included ..." list starts each loaded member
# at column 0: `.../libstreamlake.a(m.cc.o)`.
LOADED = re.compile(r"^\S*" + re.escape(LIBRARY) + r"\(([^)]+\.o)\)")
MEMBER = re.compile(r"^(\S+\.o):\s+file format")


def fail(message):
    print("link_audit: " + message, file=sys.stderr)
    sys.exit(2)


def record_link(command):
    """Linker launcher: run `command`, keep the linker's report."""
    output = None
    for i, arg in enumerate(command):
        if arg == "-o" and i + 1 < len(command):
            output = command[i + 1]
    if output is not None:
        command = command + [LINK_FLAGS + output + RECORD_SUFFIX + ".map"]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    if output is not None:
        with open(output + RECORD_SUFFIX, "w", encoding="utf-8") as f:
            f.write(proc.stdout)
    return 0


def run(command, cwd=REPO):
    proc = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail("command failed: " + " ".join(command))


def build(build_dir, jobs):
    launcher = "%s;%s;--record-link;--" % (sys.executable,
                                             os.path.abspath(__file__))
    common = ["-DCMAKE_BUILD_TYPE=Debug",
              "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
              "-DCMAKE_CXX_FLAGS=-ffunction-sections",
              "-DCMAKE_CXX_LINKER_LAUNCHER=" + launcher]
    projects = [(os.path.join(build_dir, "main"), REPO, []),
                (os.path.join(build_dir, "perfbench"),
                 os.path.join(REPO, "perfbench"), ["--target",
                                                   "perfbench_runner"])]
    for binary_dir, source_dir, targets in projects:
        run(["cmake", "-S", source_dir, "-B", binary_dir] + common)
        run(["cmake", "--build", binary_dir, "-j", str(jobs)] + targets)


def library_functions(archive):
    """{(member, section): [symbol, ...]} for every externally visible,
    out-of-line function the archive's members define."""
    proc = subprocess.run(["objdump", "-t", archive], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    functions = {}
    member = None
    for line in proc.stdout.splitlines():
        m = MEMBER.match(line)
        if m:
            member = m.group(1)
            continue
        # `<address> <7 flag chars> <section>\t<size> <name>`
        if member is None or len(line) < 26 or "\t" not in line:
            continue
        flags = line[17:24]
        if flags[0] != "g" or flags[6] != "F":
            continue
        section, rest = line[25:].split("\t", 1)
        name = rest.split()[-1]
        if section.startswith(".text"):
            functions.setdefault((member, section), []).append(name)
    return functions


def kept_sections(record_path, functions):
    """The library function sections the binary of `record_path` keeps:
    those of the members it loaded, less those its link removed."""
    loaded, removed = set(), set()
    with open(record_path, encoding="utf-8", errors="replace") as f:
        for line in f:
            m = REMOVED.search(line)
            if m:
                removed.add((m.group(2), m.group(1)))
    with open(record_path + ".map", encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("Discarded input sections"):
                break
            m = LOADED.match(line)
            if m:
                loaded.add(m.group(1))
    return {key for key in functions
            if key[0] in loaded and key not in removed}


def binaries(build_dir):
    """(kind, path of the link record) for every audited binary."""
    out = []
    for root, _, names in os.walk(build_dir):
        for name in names:
            if not name.endswith(RECORD_SUFFIX):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, build_dir).split(os.sep)
            if rel[0] == "main" and rel[1] == "tests":
                out.append(("test", path))
            elif rel[0] == "main" and rel[1] in ("bench", "examples"):
                out.append(("root", path))
            elif rel[0] == "perfbench" and name.startswith("perfbench_runner"):
                out.append(("root", path))
    return sorted(out)


def demangle(names):
    proc = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                          stdout=subprocess.PIPE, text=True, check=True)
    return [n.replace("streamlake::", "")
            for n in proc.stdout.splitlines()]


def read_allowlist(path):
    """{function: reason}, or fail on a malformed line."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            function, sep, reason = line.partition(" -- ")
            if not sep or not reason.strip():
                fail("%s:%d: expected '<function> -- <reason>'"
                     % (path, lineno))
            entries[function.strip()] = reason.strip()
    return entries


def main(argv):
    if len(argv) >= 2 and argv[0] == "--record-link" and argv[1] == "--":
        return record_link(argv[2:])
    build_dir, allowlist, jobs, do_build = (DEFAULT_BUILD_DIR,
                                            DEFAULT_ALLOWLIST, 2, True)
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag == "--no-build":
            do_build = False
            i += 1
            continue
        if flag not in ("--build-dir", "--allowlist", "--jobs") or \
                i + 1 >= len(argv):
            fail("usage: link_audit.py [--build-dir DIR] [--jobs N] "
                 "[--allowlist FILE] [--no-build]")
        value = argv[i + 1]
        if flag == "--build-dir":
            build_dir = os.path.abspath(value)
        elif flag == "--allowlist":
            allowlist = os.path.abspath(value)
        elif not value.isdigit() or int(value) < 1:
            fail("--jobs needs a positive number")
        else:
            jobs = int(value)
        i += 2

    entries = read_allowlist(allowlist)
    if do_build:
        build(build_dir, jobs)
    archive = os.path.join(build_dir, "main", "src", LIBRARY)
    if not os.path.exists(archive):
        fail("no %s under %s (run without --no-build)" % (LIBRARY, build_dir))
    functions = library_functions(archive)
    audited = binaries(build_dir)
    if not any(kind == "test" for kind, _ in audited) or \
            not any(kind == "root" for kind, _ in audited):
        fail("no link records under %s" % build_dir)

    by_tests, by_roots = set(), set()
    for kind, path in audited:
        (by_tests if kind == "test" else by_roots).update(
            kept_sections(path, functions))
    test_only = sorted(by_tests - by_roots)
    names = demangle([min(functions[key]) for key in test_only])
    found = sorted(set(names))

    missing = [n for n in found if n not in entries]
    stale = sorted(n for n in entries if n not in found)
    for n in missing:
        print("link_audit: test-only function not in the allowlist: " + n)
    for n in stale:
        print("link_audit: stale allowlist entry (not test-only): " + n)
    print("link_audit: %d binaries, %d library functions, %d test-only "
          "(%d allowlisted), %d missing, %d stale"
          % (len(audited), len(functions), len(found),
             len(found) - len(missing), len(missing), len(stale)))
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
