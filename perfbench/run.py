"""dckit benchmark: seeded ``dckit condense`` workloads, measured end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload blobs-dm --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the real CLI as a child process, one at a time in a closed loop
with one client, for ``--seconds``; it checks every run's artifacts and reports
the end-to-end metrics, with times scaled to the host speed that a probe process
measures between runs. ``--trace 1`` calls ``dckit.harness.run`` in-process on
the same config, alternating untraced runs with runs traced by ``tracing.Tracer``,
and reports the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workload rationale and metric interactions are in ``perfbench/NOTES.md``.
"""
import os

# Pinned before numpy loads, here and in every child, so BLAS starts no thread
# pool that competes for the cores; the runs themselves are serial.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
ARTIFACTS = ("synthetic.csv", "synthetic.csv.meta.json", "steps.csv", "report.json", "timings.json",
             "objective.csv", "objective.svg", "accuracy.csv", "accuracy.svg")
DIGESTED = ("synthetic.csv", "steps.csv", "report.json")
SETUP_STAGES = ("load", "normalize", "split", "init")
# End-to-end metrics and units.
E2E_UNITS = {"run_s": "s", "setup_s": "s", "condense_s": "s", "peak_rss_mb": "MB", "accuracy": "fraction"}
# A run reports the median over its CLI processes. Their times are scaled to the
# host's speed at the moment, measured by a probe process (``probe_seconds``) run
# between them: on a shared host the speed of the same work moves by 1.3-1.7x for
# seconds to minutes, and the probe moves with it.
SCALED = ("run_s", "setup_s", "condense_s")
# The probe starts an interpreter and imports numpy, as each CLI process does;
# it never imports dckit, so a change to the program cannot change it.
PROBE_CODE = "import numpy"
# What the probe takes on the reference host, a 2-vCPU Intel Xeon virtual
# machine at its common speed; a scaled time is in seconds on that host.
PROBE_REFERENCE_S = 0.2
MIN_SAMPLES = 3
# Every run must end within 180 s; stop starting work that could cross this.
HARD_LIMIT_S = 160.0
IMPORT_SAMPLES = 3


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))  # carries the pinned thread variables


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def digests(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTED}


def check_artifacts(out: Path, expected_rows: int) -> list:
    """Problems with one run's artifacts; empty when every check passes."""
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        data = np.loadtxt(out / "synthetic.csv", delimiter=",", skiprows=1, ndmin=2)
        checks = json.loads((out / "report.json").read_text())["discrepancy"]["hierarchy_checks"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable artifacts: {e!r}"]
    problems = []
    feats = data[:, :-1]
    if data.shape[0] != expected_rows:
        problems.append(f"synthetic.csv has {data.shape[0]} rows, expected {expected_rows}")
    if not np.all(np.isfinite(feats)):
        problems.append("synthetic.csv has non-finite features")
    elif feats.size and (feats.min() < 0.0 or feats.max() > 1.0):
        problems.append("synthetic.csv has features outside [0, 1]")
    if not checks:
        problems.append("report.json has no hierarchy checks")
    problems += [f"hierarchy check {c['name']} not satisfied" for c in checks if not c["satisfied"]]
    return problems


def accuracy(out: Path) -> float:
    per_arch = json.loads((out / "report.json").read_text())["evaluation"]["per_architecture"]
    return statistics.fmean(entry["mean"] for entry in per_arch.values())


def run_cli(work: Path, expected_rows: int, hard_deadline: float) -> dict:
    """One ``dckit condense`` process, spawn to exit; returns its sample and problems."""
    out, stamp = work / "out", work / "imported_at"
    shutil.rmtree(out, ignore_errors=True)
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "cli_main.py"), "--imported-at", stamp.name,
           "condense", "--config", "config.json", "--out", out.name]
    with open(work / "cli.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, hard_deadline - t0), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a running
            # maximum over every child this process has reaped
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (work / "cli.log").read_text(errors="replace").strip().splitlines()[-1:]
        return {"problems": [f"exit code {proc.returncode}: {' '.join(tail)}"]}
    problems = check_artifacts(out, expected_rows)
    if problems:
        return {"problems": problems}
    try:
        timings = json.loads((out / "timings.json").read_text())
        imported_at = float(stamp.read_text())
        return {
            "problems": [],
            "digests": digests(out),
            "run_s": t1 - t0,
            "setup_s": imported_at - t0 + sum(timings[s] for s in SETUP_STAGES),
            "condense_s": timings["condense"],
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
            "accuracy": accuracy(out),
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
    except (OSError, ValueError, KeyError) as e:
        return {"problems": [f"unreadable run record: {e!r}"]}


def probe_seconds(hard_deadline: float) -> float:
    """Wall time of one probe process, spawn to exit."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", PROBE_CODE], env=child_env(), check=True,
                   timeout=max(1.0, hard_deadline - t0))
    return time.monotonic() - t0


def host_speed(probe_before: float, probe_after: float) -> float:
    """The host's speed, relative to the reference, while a process ran between two probes."""
    return PROBE_REFERENCE_S / (0.5 * (probe_before + probe_after))


def tail_percentile(values):
    """(percentile, value) for the highest percentile with >= 10 samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure_end_to_end(work: Path, expected_rows: int, seconds: float, hard_deadline: float):
    compileall.compile_dir(SRC / "dckit", quiet=1)  # users do not pay bytecode compilation per run
    samples, failed, reference = [], 0, None
    start = time.monotonic()
    durations = []
    probe = probe_seconds(hard_deadline)
    while True:
        t0 = time.monotonic()
        sample = run_cli(work, expected_rows, hard_deadline)
        probe_before, probe = probe, probe_seconds(hard_deadline)
        durations.append(time.monotonic() - t0)
        if not sample["problems"]:
            sample["speed"] = host_speed(probe_before, probe)
            for name in SCALED:
                sample["raw_" + name] = sample[name]
                sample[name] *= sample["speed"]
            reference = reference or sample["digests"]
            if sample["digests"] != reference:
                sample["problems"].append(f"artifact digests differ from the first run: {sample['digests']}")
        if sample["problems"]:
            failed += 1
            print(f"run {len(durations)}: FAILED: {'; '.join(sample['problems'])}")
        else:
            samples.append(sample)
            print(f"run {len(durations)}: " + "  ".join(
                f"{k} {sample[k]:.4f}" for k in (*E2E_UNITS, "speed", "raw_run_s", "cpu_s")))
        now = time.monotonic()
        if now + max(durations) > hard_deadline:
            break
        if len(durations) >= MIN_SAMPLES and now - start + max(durations) > seconds:
            break
    attempted = len(durations)
    print(f"digests: {json.dumps(reference, sort_keys=True)}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    metrics = {}
    if samples:
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name in SCALED:
            print(f"unscaled {name}: median {statistics.median(s['raw_' + name] for s in samples):.4f} s")
        print(f"host speed: median {statistics.median(s['speed'] for s in samples):.4f} of the reference")
        tail = tail_percentile([s["run_s"] for s in samples])
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"run_s: median {metrics['run_s']['value']:.4f} s, {tail_text}, n={len(samples)}")
    return failed == 0 and bool(samples), attempted, failed, metrics


def cli_import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import dckit.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def cli_run_config(config: str, out: str):
    """The ``RunConfig`` that ``dckit condense --config CONFIG --out OUT`` runs."""
    import dckit.cli

    args = dckit.cli.build_parser().parse_args(["condense", "--config", config, "--out", out])
    return dckit.cli._build_run_config(args)


def measure_layers(work: Path, expected_rows: int, seconds: float, hard_deadline: float):
    sys.path.insert(0, str(SRC))
    import dckit.harness
    from tracing import (LAYER_UNITS, Tracer, count_mismatches, layer_metrics, leftover_wrappers,
                         median_metrics, stage_mismatches)

    if Path(dckit.__file__).resolve().parent != SRC / "dckit":
        raise SystemExit(f"imported dckit from {dckit.__file__}, not from {SRC}")
    start = time.monotonic()
    compileall.compile_dir(SRC / "dckit", quiet=1)
    import_s = cli_import_seconds()
    os.chdir(work)  # the config names the dataset relative to the work directory

    tracer = Tracer()
    walls = {"untraced": [], "traced": []}
    traced_metrics, problems, failed_runs, reference = [], [], set(), None
    plan = ["untraced", "traced", "traced"]
    attempted = 0
    while True:
        kind = plan[attempted] if attempted < len(plan) else ("untraced", "traced")[attempted % 2]
        attempted += 1
        out = Path(f"out-{attempted}")
        shutil.rmtree(out, ignore_errors=True)
        cfg = cli_run_config("config.json", str(out))
        t0 = time.perf_counter()
        try:
            if kind == "traced":
                spans = tracer.traced_call(attempted, dckit.harness.run, cfg)
            else:
                dckit.harness.run(cfg)
            run_problems = check_artifacts(out, expected_rows)
        except Exception as e:  # a failed run is counted and reported, the others still run
            traceback.print_exc(file=sys.stdout)
            run_problems = [f"run() raised {e!r}"]
        walls[kind].append(time.perf_counter() - t0)
        if not run_problems:
            reference = reference or digests(out)
            if digests(out) != reference:
                run_problems.append("artifact digests differ between runs")
            if kind == "traced":
                run_problems += stage_mismatches(spans, json.loads((out / "timings.json").read_text()))
                traced_metrics.append(layer_metrics(spans))
        if run_problems:
            failed_runs.add(attempted)
            problems += [f"run {attempted} ({kind}): {p}" for p in run_problems]
        print(f"run {attempted}: {kind} run() {walls[kind][-1]:.4f} s"
              + (f"  problems: {run_problems}" if run_problems else ""))
        shutil.rmtree(out, ignore_errors=True)
        now = time.monotonic()
        longest = max(walls["traced"] + walls["untraced"])
        if now + longest > hard_deadline:
            break
        if attempted >= len(plan) and now - start + longest > seconds:
            break

    tracer.write(work / "spans.csv")
    leftover = leftover_wrappers()
    if leftover:
        problems.append(f"wrappers left installed after the traced runs: {leftover}")
    if not traced_metrics or not walls["untraced"]:
        return False, attempted, len(failed_runs), {}
    mismatched = count_mismatches(traced_metrics)
    if mismatched:
        problems.append(f"counts differ between traced runs: {mismatched}")
    metrics = median_metrics(traced_metrics)
    metrics["cli.import_s"] = import_s
    traced_wall = statistics.median(walls["traced"])
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls["untraced"])
    if metrics["harness.run.self_s"] > max(metrics["trace.overhead_s"], 0.0) + 0.02 * traced_wall:
        problems.append(f"stage spans leave {metrics['harness.run.self_s']:.4f} s of run() unaccounted")
    for p in problems:
        print(f"FAILED: {p}")
    ordered = {k: {"value": metrics[k], "unit": u} for k, u in LAYER_UNITS.items()}
    for name, m in ordered.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    return not problems, attempted, len(failed_runs), ordered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "dckit" / "cli.py").is_file():
        print(f"no dckit sources at {SRC}; run the benchmark from a dckit checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    class_count = write_inputs(workload, args.seed, work)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    measure = measure_layers if args.trace else measure_end_to_end
    correct, attempted, failed, metrics = measure(work, workload.per_class * class_count, args.seconds, hard_deadline)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
