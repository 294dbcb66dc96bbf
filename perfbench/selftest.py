#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It runs every workload briefly, untraced and traced, and asserts that the
result line has exactly the keys correct, attempted, failed and metrics,
that every metric declared in ``BENCHMARK.json`` prints with its declared
unit, that the detail line carries the workload's own metric names, and
that the current code passes the correctness gate.  It then feeds each workload's gate a deliberately
corrupted output and asserts that the gate counts it as a failure.  It
takes about a minute, most of it in the oracle rounds, each of which holds
two six-vertex faces.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMED = {
    "query": {"query.ops_per_s", "query.tail_us"},
    "audit": {"audit.simplices_per_s", "audit.p50_ms", "audit.tail_ms"},
    "oracle": {"oracle.records_per_s", "oracle.p50_ms", "oracle.tail_ms"},
    "cli": {"cli.validate_s", "cli.project_s", "cli.project_check_s", "cli.altitudes_s", "cli.check_s"},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_workload(spec: dict, workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    check(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True,
          f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(list(got) == [m["name"] for m in declared], f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        entry = got[m["name"]]
        check(set(entry) == {"value", "unit"} and entry["unit"] == m["unit"],
              f"{label}: {m['name']} printed as {entry}")
        check(isinstance(entry["value"], (int, float)), f"{label}: {m['name']} is not a number")
        if not trace:
            check(entry["value"] > 0, f"{label}: end-to-end {m['name']} is {entry['value']}")
    if trace:
        check(got["trace.spans"]["value"] > 0, f"{label}: no spans recorded")
        check(got["import.hsproj_ms"]["value"] > 0, f"{label}: no import breakdown")
    else:
        check(NAMED[workload] <= set(detail["named"]), f"{label}: detail lacks {NAMED[workload]}")
    check("environment" in detail, f"{label}: no environment record")
    print(f"ok  {label}: {result['attempted']} operations, {len(got)} metrics")


def gates_catch_corruption() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl

    inputs = wl.query_setup(7)
    run = wl.query_run(inputs, 0.0)
    check(not any(wl.query_check(inputs, run)), "query gate rejects correct outputs")
    ptf = run.outputs[0]
    run.outputs[0] = dataclasses.replace(ptf, foot=ptf.foot * 1.001)
    run.outputs[6] = run.outputs[6] + 1e-6
    flags = wl.query_check(inputs, run)
    check(flags[0] and flags[6] and sum(flags) == 2,
          "query gate misses a foot off the manifold or a distance that disagrees")

    inputs = wl.audit_setup(7)
    run = wl.audit_run(inputs, 0.0)
    check(not any(wl.audit_check(inputs, run)), "audit gate rejects correct outputs")
    s, scaling, reports, schur, kinv = run.outputs[3]
    schur[-1] = (schur[-1][0], schur[-1][1] + 1e-6)
    check(wl.audit_check(inputs, run) == [i == 3 for i in range(len(run.outputs))],
          "audit gate misses disagreeing Schur routes")

    inputs = wl.oracle_setup(7)
    small = min((r for b in inputs["batches"] for r in b), key=lambda r: (len(r.face) < 2, len(r.face)))
    inputs["batches"] = [[small]]
    closed, found = wl.oracle_one(small)
    good = wl.Run(outputs=[(closed, found)])
    bad = wl.Run(outputs=[(closed, dataclasses.replace(found, distance=found.distance + 1e-4))])
    check(wl.oracle_check(inputs, good) == [False], "oracle gate rejects correct outputs")
    check(wl.oracle_check(inputs, bad) == [True], "oracle gate misses a distance deviation")

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as workdir:
        inputs = wl.cli_setup(7, workdir)
        run = wl.cli_trace(inputs)
        check(not any(wl.cli_check(inputs, run)), "cli gate rejects correct outputs")
        code, stdout = run.outputs[0]
        report = json.loads(stdout)
        report["status"] = "CheckFailed"
        run.outputs[0] = (code, json.dumps(report))
        run.outputs[1] = (1, run.outputs[1][1])
        check(wl.cli_check(inputs, run)[:3] == [True, True, False], "cli gate misses a failed report")
    print("ok  every gate counts a corrupted output as a failure")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            run_workload(spec, workload, trace)
    gates_catch_corruption()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
