#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py

For each workload it runs run.py with a fixed op count (--ops), untraced
and twice traced with the same seed, and asserts that
  - the result line has exactly correct/attempted/failed/metrics, the run
    is correct and no op failed;
  - every metric BENCHMARK.json declares for the mode is present, with
    its declared unit;
  - the detail line reports the sample count and the host context;
  - the count-based layer metrics repeat exactly for the fixed seed.
Exits 0 when every assertion holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# Ops per short run, and the layer counts that must repeat exactly.
SHORT = {
    "criterion": (25, ["automata.states_built", "automata.inhabited_ratio"]),
    "update_stream": (40, ["xml.doc_index.builds", "fd.traces_per_op",
                           "fd.contexts_rescanned"]),
    "serve": (150, ["fd.traces_per_op", "exec.cache.hit_ratio",
                    "serve.shed"]),
}
CONTEXT_KEYS = {"cpu_model", "nproc", "compiler", "build_type",
                "git_revision", "loadavg_at_start"}


def run(workload, ops, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "60", "--trace",
         str(trace), "--ops", str(ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, (
        f"{workload}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, declared, trace):
    ops, counts = SHORT[workload]
    header, result = run(workload, ops, trace)
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: incorrect: {result}"
    assert result["failed"] == 0 and result["attempted"] >= ops, where
    for spec in declared:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"{where}: {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{where}: {spec['name']} unit"
    assert set(result["metrics"]) == {s["name"] for s in declared}, where
    assert header["detail"]["op_samples"] == result["attempted"], where
    assert CONTEXT_KEYS <= set(header["context"]), where
    return {name: result["metrics"][name]["value"]
            for name in counts if trace}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in SHORT:
        check(workload, spec["end_to_end"], 0)
        first = check(workload, spec["per_layer"], 1)
        second = check(workload, spec["per_layer"], 1)
        assert first == second, f"{workload}: counts differ {first} {second}"
        print(f"ok {workload}: {first}")
    print("selftest passed")


if __name__ == "__main__":
    main()
