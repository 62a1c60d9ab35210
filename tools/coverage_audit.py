#!/usr/bin/env python3
"""List the src/ functions that no product entry point executes.

Build a coverage tree, then run the audit over it:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="--coverage -O0" \\
        -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    python3 tools/coverage_audit.py build-cov

The audit

  1. deletes the tree's old counters (*.gcda);
  2. runs the product entry points in a scratch directory: every
     fig* bench, table1_hardware, abl_design_choices, every example,
     perf_smoke, and replay_tool record + replay for both scenarios
     (plain and --preempt). Tests are not product paths and do not
     run;
  3. runs `gcov -j` over every non-test object: the coserve library's
     objects, and the objects of the bench and example binaries it
     ran. Counts are summed per (file, demangled name, line), so an
     inline function counts as reached when any binary ran it;
  4. prints every src/ function whose summed count is zero and that
     tools/coverage_allowlist.txt does not list, and exits 1 if there
     is one. An entry point that fails, or a malformed allowlist,
     exits 2.

Allowlist lines read `<file> | <function> | <reason>`. <file> is the
path as printed here; <function> is a demangled name as printed here,
where `*` matches any run of characters.
Every entry needs a reason. Entries that match no unreached function
are printed as stale, so they can be pruned; they do not fail the
audit.

Blind spot: gcov lists only functions the compiler emitted. A
template that is never instantiated, or an inline function that no
translation unit calls, emits no code, so it never appears here
however dead it is. Review such code by reading it: grep for the
callers of a header's templates and inline members.
"""

import glob
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(REPO, "tools", "coverage_allowlist.txt")


def die(message):
    sys.stderr.write("coverage audit: %s\n" % message)
    sys.exit(2)


def names_of(pattern):
    """Binary names built from the sources matching @p pattern."""
    return sorted(os.path.splitext(os.path.basename(p))[0]
                  for p in glob.glob(os.path.join(REPO, pattern)))


def entry_points(build, scratch):
    """Command lines of every product entry point, in run order."""
    runs = [[name] for name in names_of("bench/fig*.cc")]
    runs += [["table1_hardware"], ["abl_design_choices"]]
    runs += [[name] for name in names_of("examples/*.cpp")]
    runs.append(["perf_smoke", os.path.join(scratch, "BENCH_perf.json")])
    for flags in ([], ["--preempt"]):
        log = os.path.join(scratch, "decisions%s.log" % "".join(flags))
        runs.append(["replay_tool", "record", log] + flags)
        runs.append(["replay_tool", "replay", log] + flags)
    return [[os.path.join(build, run[0])] + run[1:] for run in runs]


def run_entry_points(build):
    for gcda in glob.glob(os.path.join(build, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)
    with tempfile.TemporaryDirectory() as scratch:
        for cmd in entry_points(build, scratch):
            done = subprocess.run(cmd, cwd=scratch,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                die("%s exited %d" % (" ".join(cmd), done.returncode))


def product_objects(build):
    """gcno files of the library, and of the binaries that ran."""
    out = []
    for gcno in sorted(glob.glob(os.path.join(build, "CMakeFiles", "*.dir",
                                              "**", "*.gcno"),
                                 recursive=True)):
        rel = os.path.relpath(gcno, os.path.join(build, "CMakeFiles"))
        target, source = rel.split(os.sep, 1)
        if source.split(os.sep, 1)[0] not in ("src", "bench", "examples"):
            continue
        ran = os.path.exists(gcno[:-len(".gcno")] + ".gcda")
        if ran or target == "coserve.dir":
            out.append(gcno)
    return out


def function_counts(build):
    """{(file, demangled name, line): summed execution count}."""
    counts = {}
    for gcno in product_objects(build):
        done = subprocess.run(["gcov", "-j", "-t", gcno], cwd=build,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=True)
        report = json.loads(done.stdout)
        cwd = report["current_working_directory"]
        for f in report["files"]:
            path = os.path.relpath(
                os.path.normpath(os.path.join(cwd, f["file"])), REPO)
            if not path.startswith("src" + os.sep):
                continue
            for fn in f["functions"]:
                key = (path, fn["demangled_name"], fn["start_line"])
                counts[key] = counts.get(key, 0) + fn["execution_count"]
    return counts


def load_allowlist():
    entries = []
    with open(ALLOWLIST) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(" | ")]
            if len(parts) != 3 or not all(parts):
                die("%s:%d: want `<file> | <function> | <reason>`"
                    % (ALLOWLIST, lineno))
            path, name, _ = parts
            # `*` is the only wildcard: names hold brackets.
            regex = re.compile(
                ".*".join(re.escape(p) for p in name.split("*")) + r"\Z")
            entries.append((lineno, path, name, regex))
    return entries


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        sys.exit(2)
    build = os.path.abspath(sys.argv[1])
    allow = load_allowlist()
    run_entry_points(build)
    unreached = sorted(k for k, n in function_counts(build).items()
                       if n == 0)
    used = set()
    missing = []
    for path, name, line in unreached:
        hit = [e for e in allow if e[1] == path and e[3].match(name)]
        used.update(e[0] for e in hit)
        if not hit:
            missing.append((path, line, name))
    print("coverage audit: %d src/ functions unreached, %d allowlisted, "
          "%d without a reason" % (len(unreached),
                                   len(unreached) - len(missing),
                                   len(missing)))
    for path, line, name in missing:
        print("UNREACHED %s:%d %s" % (path, line, name))
    for lineno, path, name, _ in allow:
        if lineno not in used:
            print("stale allowlist entry (line %d): %s | %s"
                  % (lineno, path, name))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
