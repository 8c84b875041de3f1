#!/usr/bin/env python3
"""Build and run the dinersim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fuzz|mc|ring|extract|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build of a fresh checkout
compiles the whole library tree), then runs it with the same arguments.
`--workload all` runs the four workloads one after the other, each in its
own process so that each one's peak heap is its own, and merges their
results with each metric prefixed by its workload. The last line of
standard output is the JSON result; the exit code is non-zero when the
build fails, the checkout is incomplete, or an output check fails. See
perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

# Run relative to the root, so the program's argv[0] (allocated on its
# heap) is the same in every checkout: a word more or less of start-up
# allocation moves the top heap by a heap-growth step.
EXE = os.path.join(".", "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("fuzz", "mc", "ring", "extract")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for need in ("dune-project", os.path.join("lib", "dsim"), os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run me from the root of a dinersim checkout (missing %s)" % need)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    # Dune's own output goes to stderr so the result stays the last line
    # of stdout.
    build = subprocess.run(
        dune + ["build", "--root", root, "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)
    sys.stdout.flush()
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] != ["all"]:
        sys.exit(subprocess.run([EXE] + args).returncode)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        run = subprocess.run(
            [EXE] + args[:at] + [workload] + args[at + 1:],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = run.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or run.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("%s printed no result (exit %d)" % (workload, run.returncode))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    sys.exit(code)


if __name__ == "__main__":
    main()
