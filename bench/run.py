"""graphdirac benchmark: four workloads timed end to end, and a traced per-layer run.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py --workload path-solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One run sets up its workload (import, inputs, one warm-up operation), then
repeats the workload's fixed batch of operations a number of times fixed by
``--seconds`` (about ``--seconds`` of batch time on a quiet machine), checking
every batch's outputs after its clock stops.  Times are scaled to a nominal
machine speed that is sampled while they run (see ``speed.py``).
``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` reports the per-layer metrics instead, from batches run with
spans recorded around the library's public functions (alternating with
untraced batches, which give the tracing overhead).  The run
prints one line per metric (name, value, unit), the machine it ran on, and
as its last line a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, including the spans of the
first traced batch, is written to ``bench/out/``.  ``--workload all`` runs
every workload both ways, each in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: on a few shared cores, a second thread measures the host's
# scheduler more than the library.  Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from speed import Probe  # noqa: E402
from tracing import EXACT, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checked, no_span  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of this many set-ups: this process plus fresh interpreters
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
# No new batch starts after this much wall time of batches, however slow the machine
MAX_BATCH_WALL_S = 110
COMPUTED = {"spectral.matvec_bytes"}  # derived from array sizes, not measured


@dataclass
class Batch:
    seconds: float  # scaled to the nominal machine speed
    wall_s: float   # as the clock read it, probes included
    speed: float
    checked: Checked
    layers: dict | None  # per-layer metrics of a traced batch; None when untraced


def setup(workload, seed, workdir):
    """Import the library, build the inputs and warm up; returns (inputs, scaled seconds)."""
    with Probe().measure() as m:
        import graphdirac  # noqa: F401  (timed: the import is part of set-up)

        inputs = workload.setup(seed, workdir)
        workload.warmup(inputs)
    return inputs, m.scaled_s


def batch_count(workload, seconds, trace):
    """Batches in one run: fixed by the arguments, so every run attempts the same work."""
    return max(2 if trace else 1, round(seconds / workload.batch_s))


def probe_setups(name, seed, count):
    """Set-up times of ``count`` fresh interpreters, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_batches(workload, inputs, count, trace):
    """Run the batch ``count`` times, or fewer if ``MAX_BATCH_WALL_S`` runs out.

    With ``trace``, untraced and traced batches alternate, so that a drift in
    machine speed does not read as tracing overhead.  Each batch is checked
    after its clock stops.  A traced batch keeps only its layer metrics, made
    from its spans scaled to the nominal machine speed; the raw spans of the
    first one are returned for the record.
    """
    probe = Probe()
    batches, first_spans, spent = [], None, 0.0
    while len(batches) < count and spent < MAX_BATCH_WALL_S:
        traced = trace and len(batches) % 2 == 1
        gc.collect()
        tracer = Tracer() if traced else None
        with tracer.installed() if traced else nullcontext():
            with probe.measure() as m:
                outputs = workload.batch(inputs, tracer.span if traced else no_span)
        spent += m.wall_s
        checked = workload.check(inputs, outputs)
        layers = None
        if traced:
            scaled = [dataclasses.replace(s, start=s.start * m.speed, end=s.end * m.speed)
                      for s in tracer.spans]
            layers = layer_metrics(scaled, checked.metrics)
            first_spans = first_spans or tracer.spans
        batches.append(Batch(m.scaled_s, m.wall_s, m.speed, checked, layers))
    return batches, first_spans or []


def measure(workload, seed, seconds, trace, workdir):
    """One run: returns (result line, record for the out file)."""
    setups = [] if trace else probe_setups(workload.name, seed, SETUP_SAMPLES - 1)
    inputs, own_setup = setup(workload, seed, workdir)
    setups.append(own_setup)
    env = environment()

    batches, spans = run_batches(workload, inputs, batch_count(workload, seconds, trace), trace)
    attempted = sum(len(b.checked.ok) for b in batches)
    failed = sum(not ok for b in batches for ok in b.checked.ok)
    reproducible = all(b.checked.digest == batches[0].checked.digest for b in batches)
    if trace:
        plain = [b.seconds for b in batches if b.layers is None]
        traced = [b.layers for b in batches if b.layers is not None]
        # counts repeat from batch to batch, so they are reported as counted
        metrics = {k: traced[0][k] if k in EXACT else statistics.median(t[k] for t in traced)
                   for k in traced[0]}
        traced_wall = statistics.median(b.seconds for b in batches if b.layers is not None)
        metrics.update({"trace.wall_s": traced_wall,
                        "trace.untraced_wall_s": statistics.median(plain),
                        "trace.overhead_s": traced_wall - statistics.median(plain)})
        reproducible = reproducible and all(t[k] == traced[0][k] for t in traced for k in EXACT)
    else:
        metrics = {
            "scaled_wall_s": statistics.median(b.seconds for b in batches),
            "pass_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        # every output was checked, and every repeat of the batch reproduced the
        # first one's outputs and exact counts; wrong outputs are counted in ``failed``
        "correct": reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_samples_s": setups,
        "wall_s": statistics.median(b.wall_s for b in batches),
        "batch_scaled_s": [b.seconds for b in batches],
        "batch_wall_s": [b.wall_s for b in batches],
        "batch_speed": [b.speed for b in batches],
        "spans": [[s.id, s.name, s.parent, s.op, s.start, s.end, s.info] for s in spans],
        **result,
    }
    return result, record


def with_units(metrics, spec, section):
    """Attach BENCHMARK.json's units; the metric set must match the spec exactly."""
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(declared) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


# ---------------------------------------------------------------------------
# The machine the numbers were measured on
# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(numpy),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


# OpenBLAS thread-control symbols: numpy's own wheels first, then a system OpenBLAS
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def blas_threads(numpy):
    """OpenBLAS thread count as the library reports it; None if unknown."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for pattern in _OPENBLAS_SYMBOLS:
            get = getattr(lib, pattern.format("get_num_threads"), None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                return get()
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def print_lines(name, result, spec, section, env, wall_s):
    for metric, entry in result["metrics"].items():
        note = " (computed)" if metric in COMPUTED else ""
        print(f"{name:<14} {metric:<26} {entry['value']:>18.10g} {entry['unit']}{note}")
    if section == "end_to_end":
        frac = result["failed"] / result["attempted"]
        print(f"{name:<14} {'fail_frac':<26} {frac:>18.10g} ratio "
              f"({result['failed']} failed of {result['attempted']} attempted)")
        print(f"{name:<14} {'wall_s':<26} {wall_s:>18.10g} s (median batch, unscaled)")
    print(f"{name:<14} correct={result['correct']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    (OUT / f"all-seed{seed}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "graphdirac" / "__init__.py").is_file():
        print(f"error: no graphdirac sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be at least 1")

    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, seconds)))
        return 0

    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        if args.setup_probe:
            _, seconds_taken = setup(workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds_taken}))
            return 0
        result, record = measure(workload, args.seed, seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = with_units(result["metrics"], spec, section)
    record["metrics"] = result["metrics"]
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print_lines(workload.name, result, spec, section, record["environment"], record["wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
