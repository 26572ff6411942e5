"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root.  Checks, for every workload:
  - the untraced run emits exactly the end-to-end metrics of
    BENCHMARK.json and the traced run exactly its per-layer metrics,
    each with its declared unit;
  - traced and untraced runs report identical simulated results
    (fingerprint, latencies, counts);
and, for the serving and fleet workloads, that an output check fails
(exit 1, "correct": false) when a wrapped replica corrupts one result.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
problems = []


def run(workload, trace, extra=()):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    sim = None
    for line in lines:
        if line.startswith("sim: "):
            sim = json.loads(line[len("sim: "):])
    return out.returncode, result, sim, out.stderr


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        problems.append(what)


for w in WORKLOADS:
    sims = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, result, sim, err = run(w, trace)
        label = f"{w} trace={trace}"
        expect(rc == 0 and result is not None and result["correct"],
               f"{label}: exits 0 with correct results"
               + ("" if rc == 0 else f" (rc {rc}: {err.strip()[-300:]})"))
        if result is None:
            continue
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == want, f"{label}: every {key} metric emitted with its unit")
        expect(all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values()),
               f"{label}: every value is a number")
        sims[trace] = sim
    expect(sims.get(0) is not None and sims.get(0) == sims.get(1),
           f"{w}: traced and untraced runs report identical simulated results")

for w in ("serve_md5", "serve_cpu", "fleet_flash"):
    rc, result, _, _ = run(w, 0, ("--corrupt", "2"))
    expect(rc == 1 and result is not None and not result["correct"],
           f"{w}: a corrupted result fails the output check")

print("selftest: " + ("ok" if not problems else f"{len(problems)} failures"))
sys.exit(1 if problems else 0)
