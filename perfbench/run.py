#!/usr/bin/env python3
"""Build and run the bpfstor benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or `perfbench/target` when that is unset, then runs it with the same
arguments. The last line of its output is the JSON result. A traced run
also writes its spans to `<target dir>/perfbench-spans-<workload>.jsonl`.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def arg_value(argv, flag):
    """The value after `flag` in `argv`, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main(argv):
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode
    extra = []
    workload = arg_value(argv, "--workload")
    if arg_value(argv, "--trace") == "1" and workload:
        extra = ["--spans-out", os.path.join(target, f"perfbench-spans-{workload}.jsonl")]
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"), *argv, *extra],
        timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
