#!/usr/bin/env python3
"""Build and run the dangle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package from source
(release profile, offline) into $CARGO_TARGET_DIR, default `.bench_build`,
then runs it with the same arguments. The last line of standard output is
the result object; build output goes to standard error. Exits non-zero,
printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, "perfbench-spans")
    run = subprocess.run([exe, *sys.argv[1:], "--spans-dir", spans], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
