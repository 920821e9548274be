#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run builds perfbench/fwbench.exe with dune (inside the tree, shared
cache off) and then runs one workload; its last stdout line is the JSON
result.  --self-test checks that the allocation signal repeats exactly
for one seed and that every workload reports exactly the metrics that
BENCHMARK.json declares, with correct rows.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fwbench.exe")
ENV = dict(os.environ, DUNE_CACHE="disabled")


# Workloads whose process runs on a single CPU.  On serve_fanout the
# client and the HTTP domain hand every request back and forth; on two
# CPUs of a virtual machine each hand-off wakes an idle virtual CPU,
# whose wake-up time follows the load of the host and not the program.
# On one CPU the hand-off is a context switch.
ONE_CPU = {"serve_fanout"}


def one_cpu():
    """Runs in the child between fork and exec: the highest allowed CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        os.write(2, b"perfbench: cannot pin to one CPU; running on all\n")


def run(cmd, timeout, **kw):
    """Run cmd to completion; a timeout kills it and waits for it."""
    with subprocess.Popen(cmd, cwd=ROOT, env=ENV, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise
        return p.returncode, out


def build(target="./perfbench/fwbench.exe"):
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: no {needed} in {ROOT}; run from a full source tree",
                  file=sys.stderr)
            return False
    code, _ = run(["dune", "build", "--root", ROOT, target], timeout=850,
                  stdout=sys.stderr)
    return code == 0


def pin(argv):
    """The pre-exec hook that puts a workload's process on one CPU, or None."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload" and value in ONE_CPU:
            return one_cpu
    return None


def self_test():
    if not build() or not build("@perfbench/determinism"):
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run([EXE, "--workload", w["name"], "--seed", "3",
                             "--seconds", "1", "--trace", trace], timeout=170,
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin(["--workload", w["name"]]))
            res = json.loads(out.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            good = code == 0 and res["correct"] and got == want
            ok = ok and good
            print(f"{w['name']} --trace {trace}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not build():
        return 1
    code, _ = run([EXE] + argv, timeout=175, preexec_fn=pin(argv))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
