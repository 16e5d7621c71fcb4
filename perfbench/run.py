#!/usr/bin/env python3
"""qpsa perf ledger: build the ledger binary from this checkout and run one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The binary is built with CMake from perfbench/CMakeLists.txt (which
compiles the library from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset.  The last stdout line is
the run's JSON result; build output goes to stderr.  Exit status: the
binary's (0 correct, 1 correctness gate failed), or 2 when the build or
the run could not complete (no result is printed then).

--selftest runs every workload of BENCHMARK.json at a tiny size, traced and
untraced, checks that every metric BENCHMARK.json names is printed with its
unit, and checks that the correctness gate trips when one beat is removed
from one session's reference stream.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the ledger binary; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "qpsa")):
        raise RuntimeError("qpsa sources not found under " + os.path.join(ROOT, "src"))
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "qpsa_perfbench")


def source_digest():
    """Digest of the library sources the binary was built from (the
    checkout a benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(binary, args):
    """Run the ledger; returns (exit code, stdout)."""
    out_dir = os.path.join(build_root(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary] + args + ["--work-dir", out_dir, "--rev", git_rev(),
                             "--source-digest", source_digest()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for wl in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(binary, ["--workload", wl["name"], "--seed", "7",
                                            "--seconds", "0.5", "--trace", trace, "--tiny"])
            res = last_json(out)
            where = "%s trace=%s" % (wl["name"], trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d" % (where, code))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(res)))
            if not res.get("correct") or res.get("failed") != 0:
                problems.append("%s: correctness gate failed" % where)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append("%s: missing %s extra %s unit mismatch %s"
                                % (where, missing, extra, units))
            log("selftest: %s ok" % where)
    code, out = run_binary(binary, ["--workload", bench["workloads"][0]["name"],
                                    "--seed", "7", "--seconds", "0.5", "--trace", "0",
                                    "--tiny", "--perturb-reference"])
    res = last_json(out)
    if code != 1 or res is None or res["correct"] or res["failed"] == 0:
        problems.append("perturbed reference did not trip the gate (exit %d)" % code)
    else:
        log("selftest: perturbed reference trips the gate (%d failed)" % res["failed"])
    for p in problems:
        log("selftest FAILED: " + p)
    if not problems:
        print("selftest ok")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    try:
        binary = build()
        if a.selftest:
            return selftest(binary)
        if not a.workload:
            ap.error("--workload is required")
        code, out = run_binary(binary, ["--workload", a.workload, "--seed", a.seed,
                                        "--seconds", a.seconds, "--trace", a.trace])
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log("perfbench: " + str(e))
        return 2
    if code not in (0, 1):
        log("perfbench: ledger exited with %d" % code)
        return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
