#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one cycle, untraced and traced, and checks that every
metric named in BENCHMARK.json is printed with its unit, both in the human-
readable lines and in the last-line JSON; that ``--compare`` prints every
end-to-end metric of every workload with its unit; and that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Output goes under
``.bench_out/selftest``.  Exits nonzero on the first failed expectation.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def printed(lines, name, unit):
    pattern = re.compile(rf"^\s*{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in lines)


def check_run(workload, trace, spec, results):
    rc, out, err = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--out", str(results))
    if rc != 0:
        fail(f"{workload} trace={trace} exited {rc}: {err.strip()[-500:]}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or not result["correct"] or result["failed"]:
        fail(f"{workload} trace={trace}: bad result line {lines[-1][:200]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {m['name']} reported as {got}")
        if not printed(lines[:-1], m["name"], m["unit"]):
            fail(f"{workload}: {m['name']} not printed with unit {m['unit']}")
    if not trace and not printed(lines[:-1], "failed_ratio", "ratio"):
        fail(f"{workload}: failed_ratio not printed")
    print(f"ok  {workload} trace={trace}: {len(wanted)} metrics with units")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = WORK / "results.json"
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec, results)

    rc, out, err = bench("--compare", str(results), str(results))
    if rc != 0:
        fail(f"--compare exited {rc}: {err.strip()[-500:]}")
    lines = out.splitlines()
    for w in spec["workloads"]:
        block = lines[next(i for i, line in enumerate(lines)
                           if line.startswith(w["name"] + ":")):]
        for m in spec["end_to_end"]:
            if not any(re.match(rf"^\s*{re.escape(m['name'])}\s.*\s{re.escape(m['unit'])}\s+"
                                r"ratio 1\.0000", line) for line in block):
                fail(f"--compare did not print {w['name']} {m['name']} [{m['unit']}]")
    print("ok  --compare prints every end-to-end metric with its unit")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    w = spec["workloads"][0]["name"]
    rc, out, _ = bench("--workload", w, "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
    if rc == 0 or '"correct"' in out:
        fail("the benchmark ran without the library")
    print("ok  refuses to run without the library")


if __name__ == "__main__":
    main()
