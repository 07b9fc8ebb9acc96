"""carcino benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload wide-256 --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout and imports carcino from its
``src/`` directory. Each workload generates its cohort from ``--seed``
in a temporary directory under ``.perfbench-work/`` and calls
``carcino.cli.main`` in-process, as ``simulate``, ``split``,
``evaluate``, ``score`` and ``simulate --sweep``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced pass, then the same pass with spans
recorded around each layer's public functions, and prints the per-layer
metrics and the tracing overhead.

Every line but the last starts with ``#`` and describes the machine,
the inputs, each metric with its sample count and base, and the gates.
The last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 1 when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS
from yardstick import ELASTICITY, NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "carcino" / "__init__.py").is_file():
        print(f"error: no carcino sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import numpy  # imported before any timing, so set-up times carcino alone

    from harness import WorkloadRun

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        bench = WorkloadRun(workload, seed, seconds, workdir, SRC)
        metrics = bench.trace() if trace else bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    info = bench.info
    print(
        f"# machine: nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"cpu={cpu_model()!r} python={platform.python_version()} numpy={numpy.__version__}"
    )
    print(f"# workload: {workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# spec: {json.dumps(workload.spec_dict(seed), sort_keys=True)}")
    print(
        f"# inputs: frames_listed={workload.listed_frames} gen_frames={workload.gen_frames} "
        f"sweep_frames={workload.sweep_frames} "
        f"cohort_bytes={info.get('cohort_bytes')} "
        f"sweep_cohorts_bytes={info.get('sweep_cohorts_bytes')}"
    )
    for line in describe(bench, metrics, trace):
        print(f"# {line}")
    ratio = bench.failed / bench.attempted
    print(f"# failed_ratio = {bench.failed}/{bench.attempted} = {ratio:g}")
    stored = seed == DEFAULT_SEED and workload.report_sha256 is not None
    digest_note = "checked" if stored else "skipped (no digest stored for this seed and spec)"
    print(
        f"# digests: report={info.get('report_sha256')} sweep={info.get('sweep_sha256')} "
        f"stored-digest check {digest_note}"
    )
    correct = not bench.failures and bench.failed == 0
    for failure in bench.failures[:10]:
        print(f"# GATE FAILED {failure}")
    if len(bench.failures) > 10:
        print(f"# ... and {len(bench.failures) - 10} more gate failures")
    print(f"# gates: {'all passed' if correct else 'FAILED'}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def describe(bench, metrics: dict, trace: bool) -> list[str]:
    """One line per metric, with its sample count and base."""
    from harness import percentile

    s, info = bench.samples, bench.info
    w = bench.workload
    if trace:
        plain, traced = info["walls"]
        j1, j2 = info["pool_speedup_bases"]
        lines = [
            f"trace: untraced wall {plain:.4f} s, traced wall {traced:.4f} s, "
            f"self times of all spans add up to {info['self_sum_s']:.4f} s "
            f"of {info['span_wall_s']:.4f} s spanned",
            f"cohort.pool_speedup base: {w.listed_frames} frames in {j1:.4f} s at --jobs 1 "
            f"and {j2:.4f} s at --jobs 2",
        ]
        return lines + [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    n = {k: len(v) for k, v in s.items()}
    raw = {k: statistics.median(v) for k, v in s.items()}
    top, top_ms = info["score_highest_percentile"]
    score_ms = [x * 1e3 for x in s["score_s"]]

    def per_s(frames: int, key: str) -> str:
        return f"{n[key]} calls x {frames} frames; raw median {frames / raw[key]:.6g} frames/s"

    bases = {
        "setup_s": f"median of {n['setup_s']} set-ups; raw median {raw['setup_s']:.6g} s",
        "eval_frames_per_s": per_s(w.listed_frames, "eval_j1_s") + " at --jobs 1",
        "eval_par_frames_per_s": per_s(w.listed_frames, "eval_j2_s") + " at --jobs 2",
        "score_p50_ms": f"{n['score_s']} closed-loop calls, one caller; raw p50 "
        f"{percentile(score_ms, 50):.6g} ms",
        "score_p90_ms": f"{n['score_s']} calls; raw p90 {percentile(score_ms, 90):.6g} ms; "
        f"highest percentile with >=10 beyond: p{top:g} = {top_ms:.4f} ms",
        "gen_frames_per_s": per_s(w.gen_frames, "gen_s") + " (simulate of the sweep's spec)",
        "sweep_frames_per_s": per_s(w.sweep_frames, "sweep_s") + " (simulate --sweep)",
        "peak_rss_mb": "ru_maxrss of the benchmark process, not normalised",
    }
    quartiles = statistics.quantiles(bench.chunks, n=4)
    lines = [
        f"times are scaled by (yardstick nominal {NOMINAL_S * 1e3:g} ms / nearby chunks) "
        f"** {ELASTICITY:g}; {len(bench.chunks)} chunks ran, quartiles "
        + " ".join(f"{q * 1e3:.4f}" for q in quartiles)
        + " ms"
    ]
    return lines + [
        f"{name} = {value:.6g} {unit} ({bases[name]})" for name, (value, unit) in metrics.items()
    ]


if __name__ == "__main__":
    sys.exit(main())
