"""Quick self-test of the campaign benchmark.

Runs every workload of BENCHMARK.json at its tiny size, untraced and
traced, at the seed whose report digests are pinned, and checks that each
run passes its correctness checks and that its last line of output lists
exactly the end-to-end (untraced) or per-layer (traced) metrics named in
BENCHMARK.json, each with its unit and a finite value.

Run from the repository root:

    python3 campaign_bench/selftest.py

Exits non-zero on the first failure.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED_SEED = "1"


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(bench, workload, trace):
    args = bench["command"] + [
        "--workload", workload,
        "--seed", PINNED_SEED,
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "tiny",
    ]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{where} exited {done.returncode}:\n{done.stderr[-4000:]}")
    if "variants/s" in done.stdout + done.stderr:
        fail(f"{where} prints a variants/s figure; name programs or observations")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{where} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where} result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where} is not correct: {lines[-1]}")
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in want}
    if set(got) != names:
        fail(f"{where} metrics differ from BENCHMARK.json: missing "
             f"{sorted(names - set(got))}, extra {sorted(set(got) - names)}")
    for m in want:
        value = got[m["name"]]
        if value.get("unit") != m["unit"]:
            fail(f"{where} {m['name']} has unit {value.get('unit')!r}, not {m['unit']!r}")
        number = value.get("value")
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            fail(f"{where} {m['name']} has value {number!r}")
    print(f"selftest: {where}: correct, {len(got)} metrics")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace in (0, 1):
            run(bench, workload["name"], trace)
    print("selftest: ok")


if __name__ == "__main__":
    main()
