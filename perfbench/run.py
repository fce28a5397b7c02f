#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table-safe --seed 1 --seconds 15 --trace 0

It builds the benchmark (this directory, a Go module of its own that uses
the repository's packages through a replace directive) and cmd/vbmcd from
source into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build), keeping Go's build cache there too, then runs the benchmark.
Its standard output is one JSON row per query, then one JSON line with the
run's metrics. Traced runs (--trace 1) also write their spans to .bench_out.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    bench_dir = os.path.join(root, "perfbench")
    bin_dir = os.path.join(build, "bin")
    for name, pkg in (("perfbench", "."), ("vbmcd", "ravbmc/cmd/vbmcd")):
        built = subprocess.run(
            ["go", "build", "-o", os.path.join(bin_dir, name), pkg],
            cwd=bench_dir, env=env, stdout=sys.stderr,
        )
        if built.returncode != 0:
            print("run.py: building %s failed" % pkg, file=sys.stderr)
            return 2

    ran = subprocess.run(
        [
            os.path.join(bin_dir, "perfbench"),
            "-workload", args.workload,
            "-seed", str(args.seed),
            "-seconds", str(args.seconds),
            "-trace", str(args.trace),
            "-vbmcd", os.path.join(bin_dir, "vbmcd"),
            "-out", os.path.join(root, ".bench_out"),
        ],
        cwd=root,
    )
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
