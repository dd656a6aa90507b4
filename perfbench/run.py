#!/usr/bin/env python3
"""Build and run the trust-engine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0

The harness is a Go program in its own module (perfbench/go.mod), which
builds against the repository's module through a local replace. Build
outputs, the Go build cache and temporary files go under the directory
named by CARGO_TARGET_DIR (default .bench_build), so nothing is written
outside the checkout, and GOENV=off keeps the toolchain from reading a
user's go env file. All arguments are passed to the harness, which prints
its result as the last line of standard output. GOMAXPROCS is set to the
number of processors this process may run on.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOENV="off",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
        GOMAXPROCS=str(len(os.sched_getaffinity(0))),
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, "--workdir", out] + sys.argv[1:], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
