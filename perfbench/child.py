"""One benchmark iteration in a fresh interpreter, started by run.py.

    python3 perfbench/child.py --workload NAME --seed S --mode MODE --workdir DIR

MODE is ``setup`` (import and write the inputs, then stop), ``run`` (also
the measured phase, untraced) or ``trace`` (the same under the span
tracer). The last line of standard output is one JSON object; the
``setup_done`` stamp is CLOCK_MONOTONIC, which the parent shares, so the
parent measures set-up from the moment it started this process.

Outside ``trace`` mode the host-speed probe (probe.py) runs from the start,
and the object also holds the probe's mean chunk time over set-up
(``setup_probe``) and over the measured phase (``phase_probe``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    sampler = None
    if args.mode != "trace":
        import probe

        sampler = probe.Sampler()
        sampler.start()

    sys.path.insert(0, str(ROOT / "src"))
    import rainbowpath

    if not Path(rainbowpath.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rainbowpath imported from {rainbowpath.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    args.workdir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(args.seed, args.workdir)
    out: dict = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if sampler:
        out["setup_probe"] = sampler.lap()
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(out))
        return 0

    mark = len(tracer.start) if tracer else 0
    started = time.perf_counter()
    result = workload.measure(state)
    wall_s = time.perf_counter() - started
    if sampler:
        out["phase_probe"] = sampler.lap()
        sampler.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.restore()
    validation, digest = workload.validate(state, result)
    out.update(
        wall_s=wall_s,
        ops=result["ops"],
        attempted=validation.attempted,
        failed=validation.failed,
        problems=validation.problems,
        report_sha256=digest,
        kernel_path=workloads.kernel_path(),
    )
    if tracer:
        counts = tracer.exact_counts()
        out["counts"] = counts
        out["layers"] = spans.layer_metrics(tracer.layer_table(), counts, wall_s,
                                            wall_s - tracer.root_time(mark))
        out["spans"] = len(tracer.start)
        tracer.write(str(args.workdir / "spans.tsv.gz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
