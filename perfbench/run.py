"""Pipeline benchmark for netrans: stage throughput and output quality.

Usage (from the repository root):

    python3 perfbench/run.py --workload {pipeline,lexicon} --seed N --seconds S --trace {0,1}

The inputs are generated from ``--seed``.  Set-up (process start, imports,
input generation, file writes) runs in a fresh process eleven times;
``setup_s`` is its median, host-normalized as below.  The pipeline workload
then trains both translators once, and the downstream stages (align,
rewrite, test time) run as whole passes, each in a fresh process so that
every pass starts with cold caches as a command-line run does, for about
``--seconds`` seconds, at least once.

Other tenants of a shared host slow a process by up to ~75% for seconds to
minutes at a time, and its CPU time by as much as its wall time (they
compete for the core's caches and execution units, not only for the CPU).
So every stage is timed in pieces between the benchmark's own hooks, with a
fixed pure-Python probe timed in between, and each piece is scaled to the
probe's reference speed (``workloads.Clock``).  These host-normalized times
carry the unit ``ref_s``: seconds on a host that runs the probe at its
reference speed.  A stage's time is their median over the passes.  Each
set-up is scaled by probes taken right after it; ``setup_s`` keeps the unit
``s`` that the format of ``BENCHMARK.json`` prescribes for it.  The host's
speed during the stages (reference over probe time) and the raw wall and
CPU times are reported next to them (``host_speed``, ``setup_wall_s``,
``total_wall_s``, ``total_cpu_s``).

With ``--trace 1`` one more process runs every stage with each layer's
public functions wrapped (``tracing.py``) and the run reports per-layer
metrics, plus ``trace.overhead_s``: the traced pass's host-normalized time
minus the median of the untraced runs of the same code and seed stored in
``perfbench/out/results/`` (one untraced pass is made first if there are
none).

Every run passes a correctness gate: quality floors from ``record.json``,
byte-identical outputs across the passes of the run, and the same output
digests as every earlier run of this code at the same seed.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, stamped with
the environment, goes to ``perfbench/out/results/``.

Only the benchmark's own processes are measured: ``perf_counter``,
``process_time`` and each process's own peak resident memory.  Metric names
and units come from ``BENCHMARK.json``.  The program runs single-process
(``jobs=1``) with one BLAS thread.
"""

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 11
PROCESS_TIMEOUT_S = 170

# name -> unit of the metrics the result line carries
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# printed and recorded too, not on the result line: the host's speed and the
# raw times next to the normalized ones, pipeline-only figures, exact-match
# accuracy (near 0 on pipeline) and the failure share (0 when all is well)
REPORTED = {
    "host_speed": "ratio",
    "setup_wall_s": "s",
    "total_wall_s": "s",
    "total_cpu_s": "s",
    "train_pairs_per_s": "pairs/ref_s",
    "train_loss": "nats/char",
    "testtime_entity_acc": "ratio",
    "failed_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "lexicon"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_digest() -> str:
    """sha256 over the program's source and data files, the key for digest checks."""
    h = hashlib.sha256()
    for path in sorted((SRC / "netrans").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy

    from netrans import simdist

    return {
        "simdist_backend": simdist.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
        "workload": workload,
        "seed": seed,
    }


def isolated(work: Path, name: str, *args):
    """``workloads.<name>(*args)`` in a fresh interpreter (``worker.py``); returns its result."""
    work.mkdir(parents=True, exist_ok=True)
    request, result = work / "request.pickle", work / "result.pickle"
    request.write_bytes(pickle.dumps((name, args)))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(request), str(result)],
                   check=True, timeout=PROCESS_TIMEOUT_S)
    return pickle.loads(result.read_bytes())


def stage_seconds(results, stage: str) -> float:
    """A stage's host-normalized time: its median over the processes that ran it."""
    return statistics.median(r.timelines[stage].normalized_s() for r in results
                             if stage in r.timelines)


def combine(results, units: dict[str, int]) -> dict[str, float]:
    """End-to-end figures of a run from its processes' results.

    total_s is one pass through every stage: the sum of the stage times.
    The raw wall and CPU times are combined the same way.
    """
    ran = [stage for stage in units if any(stage in r.timelines for r in results)]
    stage_s = {stage: stage_seconds(results, stage) for stage in ran}
    failed = {stage for r in results for stage in r.failed_stages}

    def rate(stage):
        return 0.0 if stage in failed or not stage_s.get(stage) else units[stage] / stage_s[stage]

    def raw_total(field):
        return sum(statistics.median(getattr(r, field)[stage] for r in results
                                     if stage in getattr(r, field)) for stage in ran)

    aligned = next(r for r in results if "align" in r.stage_units)
    m = {
        "total_s": sum(stage_s.values()),
        "align_sents_per_s": rate("align"),
        "testtime_sents_per_s": rate("testtime"),
        **aligned.quality,
        "failed_ratio": sum(r.failed for r in results) / sum(r.attempted for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "host_speed": statistics.median(line.speed() for r in results
                                        for line in r.timelines.values()),
        "total_wall_s": raw_total("stage_s"),
        "total_cpu_s": raw_total("stage_cpu_s"),
    }
    if "train" in units:
        losses = next(r.final_losses for r in results if "train" in r.stage_units)
        m["train_pairs_per_s"] = rate("train")
        m["train_loss"] = statistics.fmean(losses) if len(losses) == 2 else 0.0
    m.update({f"stage.{stage}.s": seconds for stage, seconds in stage_s.items()})
    return m


def run_untraced(workloads, inputs, work: Path, seconds: float, once: bool = False):
    """Train once (pipeline), then downstream passes for about ``seconds`` (``once``: one)."""
    results = []
    models = work / "models"
    started = time.perf_counter()
    if inputs.spec.neural:
        results.append(isolated(work / "train", "run_pass_isolated", inputs, work / "train",
                                ("train",), models)[0])
    passes_started = time.perf_counter()
    n = 0
    while True:
        n += 1
        results.append(isolated(work / f"pass{n}", "run_pass_isolated", inputs,
                                work / f"pass{n}", workloads.DOWNSTREAM, models)[0])
        now = time.perf_counter()
        # start another pass only when it should end within the run length
        if once or now - started + (now - passes_started) / n > seconds:
            return results


def stored_total_s(out: Path, spec_name: str, seed: int, code: str, inputs_digest: str):
    """Median total_s of the untraced runs of this code on these inputs, if any."""
    totals = []
    for path in (out / "results").glob(f"{spec_name}-seed{seed}-trace0-*.json"):
        record = json.loads(path.read_text())
        if (record["env"]["code_sha256"], record["inputs"]) == (code, inputs_digest):
            totals.append(record["metrics"]["total_s"])
    return statistics.median(totals) if totals else None


def per_layer(traced, tracer, units, baseline_total_s: float) -> dict:
    import tracing

    m = tracing.layer_metrics(tracer, traced.total_s)
    own = combine([traced], units)
    m["train.pair_updates"] = m["model.loss_and_grads.calls"]
    epochs = [e for direction in traced.epoch_s for e in direction]
    m["train.epoch_s"] = statistics.median(epochs) if epochs else 0.0
    m["train.pairs_per_s"] = own.get("train_pairs_per_s", 0.0)
    m["train.loss"] = own.get("train_loss", 0.0)
    for stage in tracing.STAGE_NAMES:
        m[f"stage.{stage}.s"] = traced.stage_s.get(stage, 0.0)
    # both sides host-normalized, so the host's load cancels out
    m["trace.overhead_s"] = own["total_s"] - baseline_total_s
    return m


def gate(spec_name: str, seed: int, env: dict, input_digests: list[str], results,
         out: Path) -> dict:
    """Correctness checks of one run; every value must be True."""
    floors = json.loads((BENCH / "record.json").read_text())["floors"][spec_name]
    aligned = [r for r in results if "align" in r.stage_units]
    first = aligned[0]
    checks = {f"{name}>={floor}": first.quality[name] >= floor for name, floor in floors.items()}
    checks["inputs_identical_across_setups"] = len(set(input_digests)) == 1
    checks["outputs_identical_across_passes"] = all(r.digests == first.digests for r in aligned)
    checks["no_missing_outputs"] = "missing" not in first.digests.values()

    # every run of this code on these inputs must reproduce the first one's outputs
    record = {"outputs": first.digests, "quality": first.quality}
    store = out / "digests" / (f"{spec_name}-seed{seed}-{env['simdist_backend']}-"
                               f"{env['code_sha256'][:16]}-{input_digests[0][:16]}.json")
    if store.exists():
        checks["outputs_identical_to_earlier_runs"] = json.loads(store.read_text()) == record
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return checks


def measure(spec, seed: int, seconds: float, trace: bool, out: Path):
    """Set up, run and check one workload; returns (record, tracer or None)."""
    import workloads

    work = out / "work" / f"{spec.name}-{seed}-{os.getpid()}"
    tracer = None
    try:
        setup_times, input_digests = [], []
        for rep in range(SETUP_REPS):
            # a fresh process each time: start, imports, input generation, file writes
            started = time.perf_counter()
            inputs, ready = isolated(work / f"setup{rep}", "timed_setup", spec, seed,
                                     work / f"setup{rep}")
            setup_times.append((ready - started, workloads.host_speed()))
            input_digests.append(inputs.digest())
        env = environment(spec.name, seed)
        units = workloads.stage_units(inputs)
        if trace:
            baseline = stored_total_s(out, spec.name, seed, env["code_sha256"], input_digests[0])
            results = []
            if baseline is None:
                results = run_untraced(workloads, inputs, work, seconds, once=True)
                baseline = combine(results, units)["total_s"]
            traced, tracer = isolated(work / "traced", "run_pass_isolated", inputs,
                                      work / "traced", tuple(units), work / "traced_models", True)
            results.append(traced)
        else:
            results = run_untraced(workloads, inputs, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = gate(spec.name, seed, env, input_digests, results, out)
    untraced = results[:-1] if trace else results
    metrics = combine(untraced or results, units)
    # host-normalized like the stages, by probes taken right after each set-up
    metrics["setup_s"] = statistics.median(wall * speed for wall, speed in setup_times)
    metrics["setup_wall_s"] = statistics.median(wall for wall, _ in setup_times)
    record = {
        "env": env,
        "inputs": input_digests[0],
        "trace": int(trace),
        "seconds": seconds,
        "correct": all(checks.values()),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "checks": checks,
        "metrics": metrics,
        "per_layer": per_layer(results[-1], tracer, units, baseline) if trace else {},
        "setup_runs": [{"wall_s": wall, "host_speed": speed} for wall, speed in setup_times],
        "processes": [{"stage_s": r.stage_s, "stage_cpu_s": r.stage_cpu_s,
                       "failed_stages": r.failed_stages,
                       "peak_rss_mb": r.peak_rss_mb, "epoch_s": r.epoch_s}
                      for r in results],
        # a pass whose align stage failed restores nothing
        "restore_reports": next((r.restore for r in results if r.restore), {}),
        "digests": next((r.digests for r in results if r.digests), {}),
    }
    return record, tracer


def table(record: dict) -> list[str]:
    """Human-readable report: environment, every metric with its unit, the checks."""
    env, metrics = record["env"], record["metrics"]
    lines = [f"# workload {env['workload']}, seed {env['seed']}, "
             f"{len(record['processes'])} process(es), "
             f"backend {env['simdist_backend']}, python {env['python']}, numpy {env['numpy']}, "
             f"blas threads {env['blas_threads']}, nproc {env['nproc']}, "
             f"commit {env['git_commit'][:12]}"]
    lines += [f"{name:<24} {metrics[name]:>14.6f} {unit}"
              for name, unit in {**END_TO_END, **REPORTED}.items() if name in metrics]
    lines += [f"check {name:<40} {'ok' if ok else 'FAILED'}"
              for name, ok in record["checks"].items()]
    lines += [f"layer {name:<40} {record['per_layer'][name]:>14.6f} {unit}"
              for name, unit in PER_LAYER.items() if record["trace"]]
    return lines


def result_line(record: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones for a traced run."""
    values, units = ((record["per_layer"], PER_LAYER) if record["trace"]
                     else (record["metrics"], END_TO_END))
    shown = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": shown}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netrans" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(BENCH), str(SRC)]
    import workloads

    record, tracer = measure(workloads.SPECS[args.workload], args.seed, args.seconds,
                             bool(args.trace), OUT)

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        import tracing

        tracing.write_trace(tracer, results_dir / f"{stem}.spans.json")

    print("\n".join(table(record)))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
