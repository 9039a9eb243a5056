"""Benchmark of the uecsm package: three closed-loop workloads, one caller.

    python3 perfbench/run.py --workload search3 --seed 1 --seconds 30 --trace 0

``--workload`` is ``search3``, ``classify-mixed``, ``oracle`` or ``all``
(each in turn, in its own process).  With ``--trace 0`` the workload runs
closed-loop for ``--seconds`` with tracing off and the last line of output
is the JSON result carrying the end-to-end metrics of BENCHMARK.json; the
lines before it give the same run under the names of each workload's own
metrics, with units and sample counts.  With ``--trace 1`` a fixed number
of inputs is run untraced and then traced, and the result carries the
per-layer metrics.  Run it from the root of a checkout: the package is
imported from ``src/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that both sides of a
# comparison run the same way on any core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("search3", "classify-mixed", "oracle")

SETUP_RUNS = 9              # fresh CLI processes timed per run; median reported
CLI_TIMEOUT_S = 60
# Inputs per second of --seconds run in each pass of a traced run, rounded
# up to whole cycles; the untraced pass takes about 0.4 of --seconds at the
# commit that set these.
TRACE_INPUTS_PER_S = {"search3": 4, "classify-mixed": 16, "oracle": 1}


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_cli(argv: list[str], stdin: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          text=True, env=_cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def closed_form_document() -> str:
    from uecsm.documents import MatrixDocument, serialize_matrix_document
    from uecsm.fixtures import find_fixture

    fx = find_fixture("closed-form-s")
    return serialize_matrix_document(MatrixDocument.from_matrix(fx.matrix(), fx.label))


class SetupTimer:
    """Wall time of fresh ``python -m uecsm.cli classify - --json -`` runs
    on the closed-form-s document, after one untimed run that fills the
    bytecode and file caches.

    As the ``between`` hook of a timed pass it runs one more whenever
    another ``1/runs`` of ``seconds`` of workload time has passed, so that
    ``setup_s`` samples the host over the same span as the workload's
    metrics and not in one burst: the speed of a shared host can drift from
    one few seconds to the next."""

    def __init__(self, runs: int, seconds: float = 0.0):
        self.runs = runs
        self.interval = seconds / runs
        self.doc = closed_form_document()
        self.times: list[float] = []
        self._time_one()
        self.times.clear()

    def _time_one(self) -> None:
        elapsed, out = _run_cli(["-m", "uecsm.cli", "classify", "-", "--json", "-"],
                                self.doc)
        if json.loads(out)["final"] != "UECSM":
            raise RuntimeError(f"closed-form-s classified as {json.loads(out)['final']}")
        self.times.append(elapsed)

    def __call__(self, workload_s: float) -> None:
        while len(self.times) < self.runs and workload_s >= len(self.times) * self.interval:
            self._time_one()

    def finish(self) -> list[float]:
        while len(self.times) < self.runs:
            self._time_one()
        return self.times


def measure_import(runs: int) -> list[float]:
    code = ("import time; t = time.perf_counter(); import uecsm.cli; "
            "print(time.perf_counter() - t)")
    return [float(_run_cli(["-c", code], "")[1]) for _ in range(runs)]


def machine_facts() -> dict[str, object]:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(Path(np.__file__).parent.parent / "numpy.libs"),
    }


def _blas_threads(libdir: Path) -> object:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _quantile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def class_latencies_ms(p) -> dict[object, list[float]]:
    """Latencies in ms grouped by input class: the size n for classify-mixed,
    the pool kind for oracle, one class of chunks for search3."""
    groups: dict[object, list[float]] = {}
    for seconds, cls in zip(p.latencies_s, p.classes):
        groups.setdefault(cls, []).append(seconds * 1e3)
    return groups


def end_to_end(workload: str, p, setup: list[float]) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, the workload's own named metrics)."""
    lat_ms = [x * 1e3 for x in p.latencies_s]
    groups = class_latencies_ms(p)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup)
    # The mean latency of each class of input, combined as a geometric mean
    # so that a gain on any class moves it alike.  Not a median: over a mix
    # of classes it lands where two classes' latencies overlap and jumps
    # between them, and within a class it follows whichever speed a shared
    # host held longest, where the mean averages the host's swings over the run.
    latency_ms = statistics.geometric_mean(statistics.fmean(v) for v in groups.values())
    contract = {
        "ops_per_s": _metric(p.ops / p.timed_s, "1/s", p.ops),
        "latency_ms": _metric(latency_ms, "ms", len(lat_ms)),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "setup_s": _metric(setup_s, "s", len(setup)),
    }
    named = {
        "setup_s": _metric(setup_s, "s", len(setup)),
        f"{workload}.failed_frac": _metric(p.failed / p.attempted, "fraction", p.attempted),
        f"{workload}.peak_rss_mb": _metric(peak_mb, "MB"),
    }
    if workload == "search3":
        named["search3.candidates_per_s"] = _metric(p.ops / p.timed_s, "1/s", p.ops)
        named["search3.breakdown_frac"] = _metric(
            p.counts.get("breakdown", 0) / max(p.counts.get("candidates", 0), 1),
            "fraction", p.counts.get("candidates", 0))
        named["search3.candidate_p50_ms"] = _metric(_quantile(lat_ms, 50), "ms",
                                                    len(lat_ms))
    elif workload == "classify-mixed":
        named["classify.requests_per_s"] = _metric(p.ops / p.timed_s, "1/s", p.ops)
        for n in (3, 8, 32):
            sample = groups.get(n, [])
            for q in (50, 90):
                named[f"classify.n{n}_p{q}_ms"] = _metric(_quantile(sample, q), "ms",
                                                          len(sample))
        for step, seconds in p.steps_s.items():
            named[f"classify.{step}_share"] = _metric(seconds / p.timed_s, "fraction")
    else:
        named["oracle.verdicts_per_s"] = _metric(p.ops / p.timed_s, "1/s", p.ops)
        named["oracle.verdict_p50_s"] = _metric(_quantile(lat_ms, 50) / 1e3, "s", p.ops)
        for kind, sample in groups.items():
            named[f"oracle.{kind}_p50_s"] = _metric(_quantile(sample, 50) / 1e3, "s",
                                                    len(sample))
        named["oracle.inconclusive_frac"] = _metric(
            p.counts.get("Inconclusive", 0) / max(p.ops, 1), "fraction", p.ops)
    return contract, named


def per_layer(untraced, traced, tracer) -> dict:
    metrics = {name: _metric(value, _unit(name))
               for name, value in tracer.metrics(traced.timed_s).items()}
    for key in ("not_applicable", "breakdown", "uecsm", "not_uecsm", "hits"):
        metrics[f"search.{key}"] = _metric(traced.counts.get(key, 0), "count")
    metrics["trace.overhead_s"] = _metric(traced.timed_s - untraced.timed_s, "s")
    metrics["cli.import_s"] = _metric(statistics.median(measure_import(3)), "s")
    metrics["cli.first_verdict_s"] = _metric(
        statistics.median(SetupTimer(3).finish()), "s")
    return metrics


def _unit(name: str) -> str:
    if name.endswith(("_us", ".us_p50")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "fraction"
    if name.endswith("per_descent"):
        return "ratio"
    if name.endswith("residual"):
        return "1"
    return "count"


def run_one(args) -> int:
    if not (SRC / "uecsm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'uecsm'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    facts = machine_facts()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts,
              "input_sha256": workloads.input_hash(workload)}
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in facts.items()))
    print(f"workload: {args.workload} seed={args.seed} "
          f"inputs_sha256={record['input_sha256']}")

    workloads.run_pass(workload, ops=1)     # warm caches and lazy imports
    if args.trace:
        from tracer import Tracer

        cycles = math.ceil(TRACE_INPUTS_PER_S[args.workload] * args.seconds
                           / workload.cycle)
        ops = cycles * workload.cycle
        untraced = workloads.run_pass(workload, ops=ops)
        with Tracer() as tracer:
            traced = workloads.run_pass(workload, ops=ops)
        passes = (untraced, traced)
        metrics = per_layer(untraced, traced, tracer)
        agree = untraced.answers == traced.answers and untraced.counts == traced.counts
        print(f"traced answers equal untraced: {agree} ({ops} inputs each)")
        record["named"] = {}
    else:
        timer = SetupTimer(SETUP_RUNS, args.seconds)
        p = workloads.run_pass(workload, seconds=args.seconds, between=timer)
        setup = timer.finish()
        passes = (p,)
        metrics, record["named"] = end_to_end(args.workload, p, setup)
        agree = True
    for p in passes:
        workloads.confirm_hits(p)    # untraced: a traced pass has ended here

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    incorrect = sum(p.incorrect for p in passes)
    record["counts"] = passes[-1].counts
    record["notes"] = [note for p in passes for note in p.notes]
    print("counts: " + json.dumps(record["counts"], sort_keys=True))
    for note in record["notes"]:
        print(f"failure: {note}")
    for name, m in {**record["named"], **metrics}.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}{samples}")
    result = {"correct": incorrect == 0 and agree, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    record["result"] = result
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=args.seconds * 6 + 240)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("record: ")))
        record = json.loads(next(line[8:] for line in lines if line.startswith("record: ")))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        source = record["named"] if not args.trace else {
            f"{name}.{k}": v for k, v in result["metrics"].items()}
        merged["metrics"].update({k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in source.items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
