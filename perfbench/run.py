#!/usr/bin/env python3
"""Entry point of the layered benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (and the arm2gc
library it links) into .bench_build/ in Release mode, then runs one workload
in its own process. The last line of standard output is the result JSON;
the full record lands in .bench_build/records/. Extra options (--runs,
--record-dir) are passed through to the binary.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build(root: str) -> None:
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)


def main() -> int:
    root = os.getcwd()
    args = sys.argv[1:]
    if "--workload" not in args:
        print("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>",
              file=sys.stderr)
        return 2
    try:
        build(root)
    except (subprocess.CalledProcessError, OSError) as exc:
        print(f"run.py: build failed: {exc}", file=sys.stderr)
        return 1
    if "--record-dir" not in args:
        args += ["--record-dir", os.path.join(BUILD_DIR, "records")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(root, BINARY)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
