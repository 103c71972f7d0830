#!/usr/bin/env python3
"""Build and run the tinca_perf benchmark from a source checkout.

    python3 tinca_perf/run.py --workload W --seed S --seconds N --trace 0|1

Builds tinca_perf/perf.exe with dune inside the checkout (the shared
dune cache and user configuration are turned off, so nothing outside
the checkout is written) and runs `perf.exe run` with the given
arguments; see perf.ml for what a run does and prints.  Build messages
go to stderr, so the last line on stdout is the run's JSON result.
Without the library sources next to it (no dune-project in the parent
directory) it exits with status 2 before doing anything.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print(f"tinca_perf: no dune-project in {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--no-config",
         "--display=quiet", "./tinca_perf/perf.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "tinca_perf", "perf.exe")
    return subprocess.run([exe, "run", *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
