#!/usr/bin/env python3
"""Self-test for tools/qrank_lint.py: exact-findings assertions.

Synthesizes a compile_commands.json over tests/lint_fixtures/ (they are
never part of the CMake build) and asserts the exact (file, line, rule)
multiset the linter must report — locations are computed by searching
the fixture sources for their distinctive lines, so the expectations are
exact without being brittle to comment edits above them.

Also asserts the contract edges:
  * exit code is 1 with findings, 0 on a clean subset;
  * the hot-alloc transitive walk crosses into an included header
    (alloc_helper.h) — the case a per-file grep cannot see;
  * suppression comments remove findings AND stop the transitive walk;
  * the reader-guard dead-check fixture (`true ||` short-circuiting
    the size check away) is CAUGHT — the rule's basic-reachability
    extension sees through constant short-circuits;
  * --report writes the same findings to a file;
  * orphan-module, which walks a tree rather than the compile
    database, flags exactly the orphan headers of the
    orphan_module_bad/ tree and nothing in orphan_module_ok/.

Usage: qrank_lint_test.py <repo_root>
"""

import json
import os
import re
import subprocess
import sys
import tempfile

FINDING_RE = re.compile(r"^(.*?):(\d+): error: \[([a-z-]+)\]")


def line_of(root, rel, needle, occurrence=1):
    path = os.path.join(root, rel)
    hits = []
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            if needle in line:
                hits.append(i)
    if len(hits) < occurrence:
        raise AssertionError("%s: %r not found (x%d)" % (rel, needle,
                                                         occurrence))
    return hits[occurrence - 1]


# The rules driven by the compile database; orphan-module walks a tree
# and is exercised on its own fixture trees below.
TU_RULES = "hot-alloc,scalar-tu,reader-guard,no-assert,naked-mutex"


def run_lint(root, db_entries, extra_args=(), tree=None, rules=TU_RULES):
    tmpdir = tempfile.mkdtemp(prefix="qrank_lint_test_")
    db_path = os.path.join(tmpdir, "compile_commands.json")
    with open(db_path, "w", encoding="utf-8") as f:
        json.dump(db_entries, f)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "qrank_lint.py"),
         "-p", db_path, "--select", "lint_fixtures", "--root", tree or root,
         "--rules", rules, *extra_args],
        capture_output=True, text=True)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group(1), int(m.group(2)), m.group(3)))
    return proc, findings


def main():
    if len(sys.argv) != 2:
        print("usage: qrank_lint_test.py <repo_root>", file=sys.stderr)
        return 2
    root = os.path.realpath(sys.argv[1])
    fx = os.path.join(root, "tests", "lint_fixtures")

    def entry(name, flags=""):
        return {"directory": fx,
                "command": "c++ -std=c++20 %s -c %s" % (flags, name),
                "file": os.path.join(fx, name)}

    db = [
        entry("hot_alloc_bad.cc"),
        entry("hot_alloc_ok.cc"),
        entry("scalar_tu_bad.cc", "-mavx2"),
        entry("scalar_tu_ok.cc"),
        entry("reader_guard_bad.cc"),
        entry("reader_guard_ok.cc"),
        entry("reader_guard_known_miss.cc"),
        entry("no_assert_bad.cc"),
        entry("no_assert_ok.cc"),
        entry("naked_mutex_bad.cc"),
        entry("naked_mutex_ok.cc"),
    ]

    F = "tests/lint_fixtures/"
    expected = {
        # hot-alloc: direct, transitive-in-file, transitive-into-header.
        (F + "hot_alloc_bad.cc",
         line_of(root, F + "hot_alloc_bad.cc", "v->push_back(1);"),
         "hot-alloc"),
        (F + "hot_alloc_bad.cc",
         line_of(root, F + "hot_alloc_bad.cc", "v->push_back(7);"),
         "hot-alloc"),
        (F + "alloc_helper.h",
         line_of(root, F + "alloc_helper.h", "return new int[n];"),
         "hot-alloc"),
        # scalar-tu: only the -mavx2 TU.
        (F + "scalar_tu_bad.cc",
         line_of(root, F + "scalar_tu_bad.cc",
                 "QRANK_SCALAR_TU_ONLY double ScalarOracleSweep"),
         "scalar-tu"),
        # reader-guard: unguarded reinterpret_cast in the bad fixture,
        # and the dead-check fixture whose only size check is behind a
        # constant `true ||` short-circuit; the ok fixture is clean.
        (F + "reader_guard_bad.cc",
         line_of(root, F + "reader_guard_bad.cc", "reinterpret_cast"),
         "reader-guard"),
        (F + "reader_guard_known_miss.cc",
         line_of(root, F + "reader_guard_known_miss.cc",
                 "*reinterpret_cast<const uint32_t*>"),
         "reader-guard"),
        # no-assert: both raw asserts, not the static_assert.
        (F + "no_assert_bad.cc",
         line_of(root, F + "no_assert_bad.cc", "assert(lo <= hi);"),
         "no-assert"),
        (F + "no_assert_bad.cc",
         line_of(root, F + "no_assert_bad.cc", "assert(i >= 0 && i < n);"),
         "no-assert"),
        # naked-mutex: the member, plus lock_guard AND mutex on the use
        # line (two findings, one line).
        (F + "naked_mutex_bad.cc",
         line_of(root, F + "naked_mutex_bad.cc", "std::mutex mu_;"),
         "naked-mutex"),
        (F + "naked_mutex_bad.cc",
         line_of(root, F + "naked_mutex_bad.cc",
                 "std::lock_guard<std::mutex> lock(mu_);"),
         "naked-mutex"),
    }

    proc, findings = run_lint(root, db)
    if proc.returncode != 1:
        print("FAIL: expected exit 1 with findings, got %d\n%s%s" %
              (proc.returncode, proc.stdout, proc.stderr), file=sys.stderr)
        return 1
    if findings != expected:
        print("FAIL: findings mismatch", file=sys.stderr)
        for f in sorted(expected - findings):
            print("  missing:    %s:%d [%s]" % f, file=sys.stderr)
        for f in sorted(findings - expected):
            print("  unexpected: %s:%d [%s]" % f, file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return 1

    # Clean subset must exit 0 (negative fixtures truly negative).
    clean_db = [e for e in db if "_ok" in e["file"]]
    proc2, findings2 = run_lint(root, clean_db)
    if proc2.returncode != 0 or findings2:
        print("FAIL: negative fixtures produced findings:\n%s" %
              proc2.stdout, file=sys.stderr)
        return 1

    # --report mirrors stdout findings.
    report = os.path.join(tempfile.mkdtemp(prefix="qrank_lint_rep_"),
                          "lint.txt")
    proc3, _ = run_lint(root, db, extra_args=("--report", report))
    with open(report, "r", encoding="utf-8") as f:
        rep_lines = {tuple([m.group(1), int(m.group(2)), m.group(3)])
                     for m in (FINDING_RE.match(l) for l in f)
                     if m}
    if rep_lines != expected:
        print("FAIL: --report content differs from stdout findings",
              file=sys.stderr)
        return 1

    # orphan-module: the header only its own .cc includes and the one
    # only a test includes; the tools-included header is no finding.
    bad_tree = os.path.join(fx, "orphan_module_bad")
    orphan_expected = {
        ("src/lib/orphan.h", 1, "orphan-module"),
        ("src/lib/test_only.h", 1, "orphan-module"),
    }
    proc4, findings4 = run_lint(root, [], tree=bad_tree,
                                rules="orphan-module")
    if proc4.returncode != 1 or findings4 != orphan_expected:
        print("FAIL: orphan-module findings on orphan_module_bad/: "
              "exit %d\n%s" % (proc4.returncode, proc4.stdout),
              file=sys.stderr)
        return 1
    # Included from tools/, from another .cc in src/ and from bench/,
    # or suppressed: clean.
    proc5, findings5 = run_lint(root, [],
                                tree=os.path.join(fx, "orphan_module_ok"),
                                rules="orphan-module")
    if proc5.returncode != 0 or findings5:
        print("FAIL: orphan_module_ok/ produced findings:\n%s" %
              proc5.stdout, file=sys.stderr)
        return 1

    print("PASS: %d exact findings, negatives clean, dead-check "
          "caught, report matches, %d orphan modules" %
          (len(expected), len(orphan_expected)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
