#!/usr/bin/env python3
"""Run one hsproj benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Workloads: ``query``, ``audit``, ``oracle`` and ``cli`` (see
``perfbench/README.md``).  The package is imported from ``src/`` of the
checkout; nothing is installed.  With ``--trace 0`` the workload runs for
about ``--seconds`` and the end-to-end metrics of ``BENCHMARK.json`` are
reported, the timed loop's at reference speed: scaled by a fixed reference
loop run every 0.2 s, because a shared machine's speed is not steady.
With ``--trace 1`` a fixed slice of the workload runs three
times (untraced, with every hsproj function wrapped, untraced again) and
the per-layer metrics are reported; the spans go to ``.perfbench_out/``.

Standard output ends with two JSON lines: a detail record (environment,
sample counts, per-command figures) and the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, whatever the correctness gate found, and 2 when
the checkout has no ``src/hsproj`` or no ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("query", "audit", "oracle", "cli")
SETUP_REPEATS = 5
# one client and no threads: BLAS pools are pinned to one thread here and
# in every child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_MODULES = ("hsproj", "hsproj.oracle", "scipy.optimize", "scipy.linalg", "numpy")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half of the samples."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def tail_mean(samples: list[float]) -> float:
    """Mean of the slowest tenth of the samples, and of at least ten of them."""
    ordered = sorted(samples)
    k = min(len(ordered), max(10, math.ceil(len(ordered) / 10)))
    return statistics.fmean(ordered[-k:])


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or None
    if Path("/proc/cpuinfo").exists():
        lines = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # the config layout is not a stable numpy interface
        blas = None
    threads = None
    if Path("/proc/self/status").exists():
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hsproj").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    scan = sys.modules.get("hsproj._scan")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "scan_backend": getattr(scan, "backend_name", None),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": threads,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def cold_import_s() -> float:
    """Wall time of ``import hsproj`` in a fresh interpreter, timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import hsproj; print(time.perf_counter() - t)"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"import hsproj failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout)


def import_breakdown() -> dict[str, float]:
    """Cumulative ``-X importtime`` of the modules a cold ``import hsproj`` loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hsproj"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"import hsproj failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if cum.isdigit():
                cumulative[name] = int(cum) / 1000.0
    return {f"import.{mod}_ms": cumulative.get(mod, 0.0) for mod in IMPORT_MODULES}


def by_kind(kinds: list[str], latencies: list[float], unit_scale: float) -> dict[str, dict]:
    groups: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, latencies):
        groups.setdefault(kind, []).append(lat)
    out = {}
    for kind, lats in groups.items():
        value, pct = tail_percentile(lats)
        out[kind] = {"count": len(lats), "p50": statistics.median(lats) * unit_scale,
                     "tail": value * unit_scale, "tail_percentile": pct}
    return out


def end_to_end(name: str, run, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the detail record with the workload's own figures.

    The timed loop's figures are at reference speed
    (``workloads.REFERENCE_NOMINAL_S``); ``setup_s`` is wall time.  The
    detail record also gives the loop's wall-clock throughput and tail, and
    the reference times measured.  The tail is a mean over the slowest tenth of
    the sorted samples rather than a single order statistic, which jumps
    between the modes of a narrow distribution.  The median, the
    interquartile mean and the highest percentile with ten samples beyond
    it are in the detail record.
    """
    scaled = run.scaled_latencies()
    ops = len(scaled)

    def per_op(lats):
        if name != "query":
            return lats
        # operations are calls, but latency is taken per triple (its five
        # calls): single calls fall into per-function modes
        return [sum(lats[i : i + 5]) for i in range(0, ops - ops % 5, 5)]

    latencies = per_op(scaled)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops / sum(scaled),
        "tail_ms": 1000.0 * tail_mean(latencies),
    }
    pct_value, pct = tail_percentile(latencies)
    ref_q = statistics.quantiles(run.reference, n=4)
    detail = {
        "samples": len(latencies),
        "wall_s": run.wall_s,
        "wall_ops_per_s": ops / run.wall_s,
        "wall_tail_ms": 1000.0 * tail_mean(per_op(run.latencies)),
        "reference_ms": {"count": len(run.reference), "q1": 1000.0 * ref_q[0],
                         "median": 1000.0 * ref_q[1], "q3": 1000.0 * ref_q[2]},
        "p50_ms": 1000.0 * statistics.median(latencies),
        "iqm_ms": 1000.0 * interquartile_mean(latencies),
        "tail_percentile": pct,
        "tail_percentile_ms": 1000.0 * pct_value,
    }
    if name == "query":
        call_tail, call_pct = tail_percentile(scaled)
        detail["named"] = {"query.ops_per_s": metrics["ops_per_s"], "query.tail_us": 1e6 * call_tail,
                           "query.tail_percentile": call_pct, "query.tail_samples": ops}
        detail["per_call_us"] = by_kind(run.kinds, scaled, 1e6)
    elif name in ("audit", "oracle"):
        unit = "simplices" if name == "audit" else "records"
        detail["named"] = {f"{name}.{unit}_per_s": metrics["ops_per_s"],
                           f"{name}.p50_ms": detail["p50_ms"], f"{name}.tail_ms": detail["tail_percentile_ms"],
                           f"{name}.tail_percentile": pct, f"{name}.tail_samples": ops}
    else:
        kinds = by_kind(run.kinds, scaled, 1.0)
        detail["named"] = {f"cli.{kind}_s": row["p50"] for kind, row in kinds.items()}
        detail["per_command_s"] = kinds
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    if not (src / "hsproj" / "__init__.py").is_file():
        fail(f"no hsproj sources under {src}")
    spec = json.loads(spec_path.read_text())

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))
    import hsproj

    if Path(hsproj.__file__).resolve().parent != (src / "hsproj").resolve():
        fail(f"imported hsproj from {hsproj.__file__}, not from {src}")

    import tracer
    import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setup = {
            "query": wl.query_setup,
            "audit": wl.audit_setup,
            "oracle": wl.oracle_setup,
            "cli": lambda seed: wl.cli_setup(seed, workdir),
        }[args.workload]
        # one set-up = a cold import plus the input generation, in wall
        # time: scaling a cold import in a child process by the reference
        # loop run in this one made it less steady, not more
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inputs = setup(args.seed)
            generation_s = perf_counter() - t0
            times.append(cold_import_s() + generation_s)
        setup_s = statistics.median(times)
        check = getattr(wl, f"{args.workload}_check")
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "excluded_inputs": inputs["excluded"], "setup_repeats_s": times, "environment": environment()}

        if args.trace == 0:
            run = getattr(wl, f"{args.workload}_run")(inputs, args.seconds)
            values, extra = end_to_end(args.workload, run, setup_s)
            detail.update(extra)
            declared = spec["end_to_end"]
        else:
            one_pass = lambda: getattr(wl, f"{args.workload}_trace")(inputs)  # noqa: E731
            # untraced passes on both sides of the traced one, so that
            # warm-up and drift fall on neither side of the difference
            before = one_pass()
            tr = tracer.Tracer()
            tr.install()
            try:
                run = one_pass()
            finally:
                tr.uninstall()
            after = one_pass()
            # at reference speed, like the timed loop: the host's speed can
            # change between the three passes
            at_ref = [sum(r.scaled_latencies()) for r in (before, run, after)]
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tr.write(spans_path)
            summary = tr.summary()
            values = tracer.layer_metrics(summary)
            values["trace.overhead_s"] = at_ref[1] - (at_ref[0] + at_ref[2]) / 2
            values["trace.spans"] = len(tr.spans)
            values.update(import_breakdown())
            detail.update({"untraced_s": [before.wall_s, after.wall_s], "traced_s": run.wall_s,
                           "passes_at_reference_speed_s": at_ref,
                           "spans_file": str(spans_path.relative_to(ROOT)), "spans": summary})
            declared = spec["per_layer"]
        bad = check(inputs, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not any(bad) and len(bad) == len(run.outputs),
        "attempted": len(run.outputs),
        "failed": sum(bad),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
