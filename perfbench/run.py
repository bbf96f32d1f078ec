#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune, runs one workload, and
passes its report through. The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
metrics are the `end_to_end` metrics of BENCHMARK.json, with --trace 1
its `per_layer` metrics (a layer a workload does not exercise reads 0).
Everything the run writes stays inside the checkout (_build/, .perfbench/).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over the program's sources, so runs of different code are
    never compared by mistake even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                       text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a full checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", build.returncode)

    cmd = [os.path.join(root, EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", ".perfbench"]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    if r.returncode != 0:
        fail("benchmark exited with %d" % r.returncode, r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("  commit     %s" % git_commit(root))
    print("  source     %s" % source_digest(root))

    produced = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = produced.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s missing from %s" % (m["name"], args.workload), 4)
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 4)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
