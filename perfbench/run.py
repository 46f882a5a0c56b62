#!/usr/bin/env python3
"""Builds the server and the load generator from source, then runs one
benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload warm-hot --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object; build output and
progress go to standard error. Builds land in $CARGO_TARGET_DIR (default
`.bench_build`), and run files in its `perfbench-run` directory.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit(f"perfbench: {needed} not found; run from the repository root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "slade-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    )
    for build in builds:
        # Cargo's own output goes to stderr, keeping stdout for the result.
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(build)}")
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--cli", os.path.join(release, "slade-cli"),
        "--work-dir", os.path.join(target, "perfbench-run"),
    ]
    sys.exit(subprocess.run(command, cwd=root).returncode)


if __name__ == "__main__":
    main()
