"""Benchmark of the noisedescent package: one workload per run.

    python3 perfbench/run.py --workload noise-n12 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run sets up the workload several times and reports the median
set-up, then repeats the workload's fixed pass until --seconds have passed
(at least once) and reports the median pass.  Every timed import, set-up
and pass sits between two probes of the host's speed (see hostspeed.py)
and is scaled to the reference speed before the median is taken.  Outputs
of every pass are checked (see checks.py).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics, which are the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.  The
traced run also writes its spans to .perfbench_out/trace-<workload>.json.

BLAS is pinned to one thread before numpy loads: OpenBLAS would otherwise
start one thread per core, which changes both the timings and the last
digits of the results.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402

WORKLOADS = ("noise-n12", "callbacks-n100", "evaluate-n100")
# fresh interpreters timed importing the package, half before and half after
# the passes, so that the samples span the machine's slow load swings
IMPORT_PROBES = 8
SETUP_REPS = 5      # in-process set-up repetitions
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import noisedescent, noisedescent.cli; print(time.perf_counter() - t)")


def scaled(times: list[float], probes: list[float], inside=None) -> list[float]:
    """Each time rescaled to the reference host speed.

    Time i is scaled by the mean of the probes either side of it,
    probes[i] and probes[i + 1], and of those taken inside it, inside[i].
    """
    inside = inside or [[] for _ in times]
    return [t * REFERENCE_S / statistics.mean([probes[i], *inside[i], probes[i + 1]])
            for i, t in enumerate(times)]


def import_seconds(host) -> list[float]:
    """Scaled times fresh interpreters take to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], [host.probe()]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
        probes.append(host.probe())
    return scaled(times, probes)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    host = HostSpeed()
    import_samples = import_seconds(host)
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    out_dir = OUT / f"{workload}-{os.getpid()}"
    # probes inside a traced pass would count in the spans around them
    bench = workloads.WORKLOADS[workload](seed, tracer, out_dir, None if trace else host)
    setup_times, probes = [], [host.probe()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        bench.setup()
        setup_times.append(time.perf_counter() - t0)
        probes.append(host.probe())
    setup_times = scaled(setup_times, probes)

    tracer.phase = "pass"
    pass_times, probes, inside, attempted, failed = [], [host.probe()], [], 0, 0
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        result = bench.run_pass()
        probes.append(host.probe())
        pass_times.append(result.seconds)
        inside.append(result.probes)
        attempted += result.attempted
        failed += result.failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.final_check()
    tracer.uninstall()
    shutil.rmtree(out_dir, ignore_errors=True)
    import_samples += import_seconds(host)

    import_s = statistics.median(import_samples)
    setup_s = import_s + statistics.median(setup_times)
    pass_s = statistics.median(scaled(pass_times, probes, inside))
    inside = [p for pass_probes in inside for p in pass_probes]
    print(f"{workload} seed={seed}: pass_s={pass_s:.4f} ({len(pass_times)} passes, "
          f"unscaled {statistics.median(pass_times):.4f}, probe {statistics.median(probes + inside):.4f}, "
          f"{len(inside)} probes inside) "
          f"setup_s={setup_s:.4f} (import {import_s:.4f}) peak_rss_mb={peak_rss_mb:.1f}",
          file=sys.stderr)
    for failure in bench.failures[:5]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        tracer.write(OUT / f"trace-{workload}.json")
        metrics = tracer.metrics(SETUP_REPS, len(pass_times))
    else:
        metrics = {"pass_s": {"value": pass_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return {"correct": not bench.problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noisedescent" / "__init__.py").is_file():
        print(f"error: no noisedescent package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
