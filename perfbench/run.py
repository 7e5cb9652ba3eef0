#!/usr/bin/env python3
"""Builds `gpd` and the benchmark harness from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Both release builds go to
$CARGO_TARGET_DIR (default: .bench_build). The harness prints a
human-readable report on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. It exits
non-zero without a result when the sources are missing or a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "gpd-cli", "--bin", "gpd"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]
    for manifest, extra in steps:
        if not os.path.isfile(manifest):
            sys.exit(f"run.py: {manifest} is missing; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    harness = os.path.join(release, "gpd-perfbench")
    args = [harness, "--gpd", os.path.join(release, "gpd"), "--root", ROOT]
    os.execv(harness, args + sys.argv[1:])


if __name__ == "__main__":
    main()
