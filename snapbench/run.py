#!/usr/bin/env python3
"""Build snapbench from source and run it once.

Usage, from the repository root:

    python3 snapbench/run.py --workload W --seed N --seconds S --trace 0|1

Every argument is passed to snapbench.exe, whose last output line is the
result JSON.  The build output goes to stderr; a failed build exits 1
without a result.  The dune cache is disabled so the build reads and
writes only inside the checkout.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./snapbench/snapbench.exe"
    build = subprocess.run(
        ["dune", "build", "--root", root, target],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("snapbench: build failed\n")
        return 1
    exe = os.path.join(root, "_build", "default", "snapbench", "snapbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
