"""voltplan end-to-end benchmark: one run_pipeline call at a time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--record-hashes]

Each workload (see workloads.py) makes calls in a closed loop with one
caller until --seconds have passed and every one of its anneal seeds has run
once. Every call's artifacts are checked by checks.py; a call that raises or
fails a check counts as failed. With --trace 0 the end-to-end metrics are
reported; with --trace 1 the calls alternate untraced and traced, and the
per-layer metrics come from the traced ones. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the voltplan sources are not in the checkout.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASHES = HERE / "hashes.json"
SETUP_REPEATS = 5
# result quality, each the mean over the run's anneal seeds
QUALITY_UNITS = {
    "power": "power_units",
    "area": "area_units",
    "wirelength_ls": "length_units",
    "islands": "count",
    "ls_in_room_pct": "%",
}


def _import_voltplan():
    src = ROOT / "src"
    if not (src / "voltplan" / "__init__.py").is_file():
        print(f"perfbench: no voltplan sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import voltplan

    if Path(voltplan.__file__).resolve().parent != (src / "voltplan").resolve():
        print(f"perfbench: imported voltplan from {voltplan.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    from voltplan.flow import kernel_name

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "kernel": kernel_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of a fresh process that imports and builds the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path):
    from voltplan import RunConfig, run_pipeline

    from checks import artifact_digest, check_run
    from tracer import Tracer, layer_metrics
    from workloads import build_instance

    setup_s = None if trace else measure_setup(workload.name, seed)
    inst = build_instance(workload, seed, ROOT, work / "in")
    tracer = Tracer() if trace else None
    n_inputs = len(inst.anneal_seeds)
    plain, traced = [], []
    evaluated = 0  # feasible anneal candidates over the untraced calls
    digests, quality = {}, {}
    attempted = failed = 0
    began = time.perf_counter()
    min_calls = 2 if trace else n_inputs
    i = 0
    while i < min_calls or time.perf_counter() - began < seconds:
        # traced runs pair an untraced and a traced call on the same input
        j = (i // 2 if trace else i) % n_inputs
        is_traced = trace and i % 2 == 1
        evals = [0]

        def observe(_floorplan, _assignment, _phi):
            evals[0] += 1

        out = work / f"out{j}"
        config = RunConfig(
            blocks_path=inst.paths["blocks"],
            nets_path=inst.paths["nets"],
            spec_path=inst.paths["spec"],
            seed=inst.anneal_seeds[j],
            out_dir=str(out),
            observer=observe,
            **workload.run_options,
        )
        attempted += 1
        try:
            with tracer.tracing(i) if is_traced else nullcontext():
                t0 = time.perf_counter()
                _row, result = run_pipeline(config)
                elapsed = time.perf_counter() - t0
            m = result.metrics
            q = check_run(
                out, inst.blocks, inst.pairs, inst.spec_text, workload.kappa,
                {"power": m.power, "area": m.area, "wirelength_ls": m.wirelength_with_ls,
                 "islands": m.islands, "ls_count": m.ls_count, "els": m.els_count},
            )
            digest = artifact_digest(out)
            if digests.setdefault(j, digest) != digest:
                raise RuntimeError(f"seed {inst.anneal_seeds[j]}: artifacts differ on rerun")
        except Exception:  # a failed call is counted and reported, the run goes on
            failed += 1
            print(f"call {i} (anneal seed {inst.anneal_seeds[j]}) failed:", file=sys.stderr)
            traceback.print_exc()
            i += 1
            continue
        quality[j] = q
        if is_traced:
            traced.append(elapsed)
        else:
            plain.append(elapsed)
            evaluated += evals[0]
        i += 1

    ok = failed == 0 and attempted > 0
    run_digest = None
    if len(digests) == n_inputs:
        run_digest = hashlib.sha256(
            "".join(digests[j] for j in range(n_inputs)).encode()
        ).hexdigest()[:16]
    if trace:
        metrics = layer_metrics(tracer, len(traced), len(inst.blocks)) if traced else {}
        metrics["bench.gen_spec_s"] = (inst.gen_spec_s, "s")
        if traced and plain:
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics["bench.trace_overhead_s"] = (overhead, "s")
        traces = ROOT / ".perfbench-traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {"setup_s": (setup_s, "s")}
        if plain:
            metrics["run_s"] = (statistics.median(plain), "s")
            metrics["evals_per_s"] = (evaluated / sum(plain), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        if quality:
            qs = list(quality.values())
            for key, unit in QUALITY_UNITS.items():
                metrics[key] = (statistics.fmean(getattr(q, key) for q in qs), unit)
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": run_digest,
    }


def report(name, seed, result, recorded):
    print(f"== {name}  seed {seed}  attempted {result['attempted']}  failed {result['failed']}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<28} {value:>14.6f} {unit}")
    digest = result["digest"]
    if digest is None:  # traced runs need not reach every anneal seed
        return
    ref = recorded.get(name, {}).get(str(seed))
    status = "unrecorded" if ref is None else ("same" if ref == digest else "changed")
    print(f"  artifacts digest {digest}  recorded {ref}  -> {status}")


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true",
                        help="store this run's artifact digest in hashes.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            from workloads import build_instance

            build_instance(WORKLOADS[args.workload], args.seed, ROOT, work)
            return 0
        print(f"env {json.dumps(environment())}  import {time.perf_counter() - STARTED:.3f} s")
        recorded = json.loads(HASHES.read_text()) if HASHES.is_file() else {}
        results = {}
        for name in names:
            results[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work / name
            )
            report(name, args.seed, results[name], recorded)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    if args.record_hashes:
        for name, res in results.items():
            if res["correct"] and res["digest"]:
                recorded.setdefault(name, {})[str(args.seed)] = res["digest"]
        HASHES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    def as_json(metrics, prefix=""):
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    if len(names) == 1:
        metrics = as_json(results[names[0]]["metrics"])
    else:
        metrics = {}
        for name, res in results.items():
            metrics.update(as_json(res["metrics"], prefix=f"{name}."))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    _import_voltplan()
    sys.exit(main())
