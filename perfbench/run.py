#!/usr/bin/env python3
"""Build the toolchain and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload small-kernels --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the line
before it is the stamp (host cores, OCaml version, commit, dirty tree).
With --trace 1 the Chrome trace of the run is written to
perfbench/_out/trace-<workload>-<seed>.json.

--self-test runs seconds-long sizes of every workload, once at --trace 0
and once at --trace 1, and checks that every metric BENCHMARK.json names
is printed with its unit and that the correctness checks ran, the
in-run determinism recheck among them.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = "_build/default/perfbench/bench.exe"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune-project and lib/ beside perfbench/: not a checkout of the repository")
    # no shared build cache: everything the build writes stays in _build
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/dfpd.exe"],
        cwd=ROOT, env={**os.environ, "DUNE_CACHE": "disabled"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def git(*args):
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.decode().strip() if r.returncode == 0 else None


def stamp_args():
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return [
        "--host-cores", str(len(os.sched_getaffinity(0))),
        "--commit", commit or "none (not a git checkout)",
        "--dirty", "unknown" if status is None else str(bool(status)).lower(),
    ]


def run_bench(args, capture=False):
    """Run bench.exe in its own session so a timeout can stop dfpd too."""
    p = subprocess.Popen([BENCH, *args, *stamp_args()],
                         cwd=ROOT, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None,
                         stderr=subprocess.PIPE if capture else None)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    return p.returncode, (out or b"").decode(), (err or b"").decode()


def self_test():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{wl} trace={trace}"
            code, out, err = run_bench(["--workload", wl, "--seed", "1", "--seconds", "2",
                                        "--trace", str(trace), "--smoke"], capture=True)
            if code != 0:
                problems.append(f"{tag}: exit {code}\n{err}")
                continue
            res = json.loads(out.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} wrong unit {wrong}")
            ran = ["sweep experiments verified", "fuzz kernels clean", "dfpd digests verified",
                   "dfpd phase B answered from disk", "exact counts repeat"]
            for check in ran:
                if not any(line.startswith(f"perfbench: check: {check}: ") and
                           not line.endswith(": 0") for line in err.splitlines()):
                    problems.append(f"{tag}: check did not run: {check}")
            if not out.splitlines()[-2].startswith("stamp: "):
                problems.append(f"{tag}: no stamp line")
            print(f"self-test: {tag}: {len(got)} metrics", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        die("self-test FAILED")
    print("self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        self_test()
        return
    if not a.workload:
        die("--workload is required")
    code, _, _ = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
