#!/usr/bin/env python3
"""Count library functions that only tests (or nothing) link.

Usage:
    python3 tools/dead_code_scan.py BUILD_DIR PERFBENCH_BUILD_DIR

BUILD_DIR is a configured-and-built tree of the top-level project (its
libdsouth_*.a archives plus every test, bench, example and tool binary);
PERFBENCH_BUILD_DIR is a build of perfbench/ holding perfbench_driver.
Both must be built with

    -O1 -fno-inline -ffunction-sections -fdata-sections   (compile)
    -Wl,--gc-sections                                     (link)

so every library function gets its own section and the linker drops the
ones no binary reaches. -fno-inline matters: without it a function that
is only called from inside its own translation unit gets inlined there,
its out-of-line copy is discarded, and the scan would report it as having
no caller (JsonValue::make_* and trace_relax are examples).

For every global text symbol (nm type T) defined in a library archive,
the scan looks at which binaries still define it after garbage
collection: a program binary (bench, example, tool, perfbench_driver)
means it is used; only test binaries means it is test-only; none means
no binary links it at all. Constructor and destructor variants that
demangle to the same name count once.

The two counts are a report, not a gate: the script exits 0 whatever
they are, and non-zero only when a build tree is missing or unreadable.
"""

import argparse
import os
import subprocess
import sys


def text_symbols(path):
    """Demangled names of the global text symbols (type T) `path` defines."""
    out = subprocess.run(
        ["nm", "--defined-only", "--demangle", path],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T":
            names.add(parts[2])
    return names


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def walk_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            yield os.path.join(dirpath, name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("build_dir")
    ap.add_argument("perfbench_build_dir")
    args = ap.parse_args()

    archives = [p for p in walk_files(args.build_dir)
                if os.path.basename(p).startswith("libdsouth_")
                and p.endswith(".a")]
    tests_dir = os.path.join(os.path.abspath(args.build_dir), "tests")
    test_bins, program_bins = [], []
    for p in walk_files(args.build_dir):
        if is_elf_executable(p):
            in_tests = os.path.abspath(p).startswith(tests_dir + os.sep)
            (test_bins if in_tests else program_bins).append(p)
    program_bins += [p for p in walk_files(args.perfbench_build_dir)
                     if os.path.basename(p) == "perfbench_driver"
                     and is_elf_executable(p)]
    if not archives or not test_bins or not program_bins:
        sys.exit(f"dead_code_scan: expected libdsouth_*.a archives, test "
                 f"binaries and program binaries; found {len(archives)}, "
                 f"{len(test_bins)}, {len(program_bins)}")

    library = set()
    for a in archives:
        library |= text_symbols(a)
    in_programs, in_tests = set(), set()
    for b in program_bins:
        in_programs |= text_symbols(b) & library
    for b in test_bins:
        in_tests |= text_symbols(b) & library

    test_only = sorted(in_tests - in_programs)
    no_caller = sorted(library - in_tests - in_programs)
    print(f"library functions: {len(library)} "
          f"({len(archives)} archives, {len(program_bins)} program and "
          f"{len(test_bins)} test binaries)")
    print(f"test-only: {len(test_only)}")
    print(f"no-caller: {len(no_caller)}")
    for title, names in (("test-only", test_only), ("no-caller", no_caller)):
        print(f"\n{title}:")
        for n in names:
            print(f"  {n}")


if __name__ == "__main__":
    main()
