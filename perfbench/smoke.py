#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that
  - each workload runs untraced and traced, passes its correctness gate,
    and prints every metric name of the benchmark with its unit;
  - the gate works both against a recorded reference (seed 1) and against
    a reference computed in the run (seed 2);
  - a deliberately corrupted reference makes the run fail;
  - BENCHMARK.json, when present, names exactly the metrics run.py prints.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the benchmark directory clean
import run  # noqa: E402  (run.py's metric tables)


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny",
                           "--seconds", "1", *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2]) if len(lines) >= 2 else None
    return proc.returncode, result, detail, proc.stderr


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metrics(result, table, what):
    metrics = result["metrics"] if result else {}
    check(set(metrics) == set(table) and
          all(metrics[k]["unit"] == u for k, u in table.items()),
          what + " prints every metric with its unit")


def main():
    for workload in run.WORKLOADS:
        for seed, gate in ((1, "recorded"), (2, "computed")):
            code, result, detail, err = bench("--workload", workload,
                                              "--seed", str(seed),
                                              "--trace", "0")
            check(code == 0 and result and result["correct"] and
                  detail["reference"] == gate,
                  "{} seed {} untraced, {} reference {}".format(
                      workload, seed, gate, err.strip()[-300:]))
            check_metrics(result, run.END_TO_END, workload)
        if workload == "serve_guarded":
            service = detail.get("service", {})
            check(all(service.get(k, {}).get("unit") == u
                      for k, u in run.SERVICE.items()),
                  "serve_guarded prints every service metric with its unit")
        code, result, detail, err = bench("--workload", workload, "--seed",
                                          "1", "--trace", "1")
        check(code == 0 and result and result["correct"],
              workload + " traced run matches the untraced run " +
              err.strip()[-300:])
        check_metrics(result, run.PER_LAYER, workload + " traced")

    refs = run.load_references(run.DEFAULT_REFERENCES)
    corrupt = json.loads(json.dumps(refs))
    corrupt["tiny"]["bcast16"]["1"]["transmissions"] += 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / "corrupt-references.json"
    path.write_text(json.dumps(corrupt))
    code, result, detail, _ = bench("--workload", "bcast16", "--seed", "1",
                                    "--trace", "0", "--references", str(path))
    check(code != 0 and result is not None and not result["correct"] and
          result["failed"] == result["attempted"],
          "a corrupted reference fails every operation")

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        check({m["name"]: m["unit"] for m in spec["end_to_end"]} ==
              run.END_TO_END and
              {m["name"]: m["unit"] for m in spec["per_layer"]} ==
              run.PER_LAYER and
              [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
              "BENCHMARK.json matches run.py's workloads and metric tables")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
