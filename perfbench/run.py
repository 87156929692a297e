"""Benchmark of the recselect CLI pipeline on two seeded workloads.

    python3 perfbench/run.py --workload portfolio_gt --seed 17 --seconds 45 --trace 0

``--trace 0`` repeats the workload's two timed CLI stages while another
repetition fits in ``--seconds``, sets up repeatedly before and after them, and
reports medians of the end-to-end metrics. ``--trace 1`` runs each timed stage
once untraced and once with spans recorded around calls into each library
module, and reports the per-layer metrics; one such pair takes as long as it
takes, so it does not keep to ``--seconds``. Earlier lines describe the
run (environment, input and output digests, checks, per-repetition samples);
the last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 1 when a stage call or an output check fails, and 2
when the checkout holds no recselect sources.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import MAIN_OUTPUT, ROOT, SIZES, STAGE_DIRS, WORKLOADS, sha256  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up runs in two phases, one before and one after the timed region. Each
# phase repeats at least SETUP_REPEATS times and until SETUP_MIN_S seconds are
# spent, so the median of a fast set-up spans more than one state of a shared host.
SETUP_REPEATS = 2
SETUP_MIN_S = 5.0
SETUP_MAX_REPEATS = 100
STAGE_METRIC = {"ground-truth": "groundtruth_s", "features": "features_s",
                "evaluate": "evaluate_s", "importance": "importance_s"}
PRIMARY = "primary_stage_s"  # the first timed stage; the second is printed, not gated


def host_state() -> dict:
    """Load average and the steal counter (USER_HZ ticks summed over CPUs)."""
    state = {}
    try:
        state["loadavg"] = [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        state["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else None
    except OSError:
        pass
    return state


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # no enclosing repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS") if k in os.environ}},
        "git_sha": _git_sha(),
        "source_sha256": tree.hexdigest(),
    }


class Run:
    """Outcome bookkeeping: stage calls, checks, samples, digests."""

    def __init__(self):
        self.calls = []
        self.checks: dict[str, bool] = {}
        self.samples: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.results: dict = {}

    def add_calls(self, calls) -> bool:
        self.calls.extend(calls)
        for call in calls:
            if not call.ok:
                print(f"stage {call.stage} failed: {call.error}", file=sys.stderr)
        return all(c.ok for c in calls)

    def check(self, name: str, ok: bool) -> None:
        # A check repeated per repetition passes only if it passes every time.
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def check_all(self, label: str, checks, *args) -> None:
        """Record the named results of ``checks(*args)``; a check that raises fails."""
        try:
            results = checks(*args)
        except Exception:  # a regression can break the output format a check reads
            traceback.print_exc()
            results = {label: False}
        for name, ok in results.items():
            self.check(name, ok)

    def record_results(self, workload, work: Path, out: Path) -> None:
        try:
            self.results = workload.results(work, out)
        except Exception:  # the same output format a check reads; unreadable counts as failed
            traceback.print_exc()
            self.check("results_readable", False)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def digest(self, label: str, path: Path) -> None:
        value = sha256(path)
        self.check(f"{label}_deterministic", self.digests.setdefault(label, value) == value)

    @property
    def attempted(self) -> int:
        return len(self.calls) + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.calls) + sum(not ok for ok in self.checks.values())


def _cpu_metric(stage: str) -> str:
    return STAGE_METRIC[stage][:-len("_s")] + "_cpu_s"


def _setup(workload, tmp: Path, run: Run, phase: str, repeat: bool) -> Path | None:
    """Set up from scratch, repeatedly if ``repeat``; the last set-up's inputs are kept."""
    spent, i = 0.0, 0
    while True:
        work = tmp / f"setup-{phase}{i}"
        calls = workload.setup(work)
        run.sample("setup_s", sum(c.wall_s for c in calls))
        spent += run.samples["setup_s"][-1]
        if not run.add_calls(calls):
            return None
        for path in workload.input_files(work):
            run.digest(f"input:{path.name}", path)
        i += 1
        if not repeat or i >= SETUP_MAX_REPEATS or (i >= SETUP_REPEATS and spent >= SETUP_MIN_S):
            return work
        shutil.rmtree(work)


def timed_run(workload, tmp: Path, seconds: float, run: Run) -> dict:
    work = _setup(workload, tmp, run, "before", repeat=True)
    if work is None:
        return {}
    measure_start = time.perf_counter()
    rep = 0
    while True:
        out = tmp / f"rep{rep}"
        started = time.perf_counter()
        calls = workload.run(workload.timed_stages, work, out)
        rep_s = time.perf_counter() - started
        if not run.add_calls(calls):
            return {}
        for call in calls:
            run.sample(STAGE_METRIC[call.stage], call.wall_s)
            run.sample(_cpu_metric(call.stage), call.cpu_s)
            run.digest(f"output:{call.stage}", out / STAGE_DIRS[call.stage] / MAIN_OUTPUT[call.stage])
        run.check_all("check_outputs", workload.check_outputs, work, out)
        rep += 1
        elapsed = time.perf_counter() - measure_start
        if elapsed + rep_s > seconds:
            break
        shutil.rmtree(out)
    run.check_all("check_once", workload.check_once, work, out)
    run.record_results(workload, work, out)
    if _setup(workload, tmp, run, "after", repeat=True) is None:
        return {}
    metrics = {"setup_s": statistics.median(run.samples["setup_s"]),
               PRIMARY: statistics.median(run.samples[STAGE_METRIC[workload.timed_stages[0]]])}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics


def traced_run(workload, tmp: Path, seconds: float, run: Run) -> dict:
    """One untraced and one traced call of each timed stage, back to back.

    Set-up stages are traced too, for the layers only they exercise. The
    traced pass writes under ``traced/`` and the untraced one under ``plain/``.
    """
    from tracing import Hooks, Tracer, layer_metrics, span_summary

    work = _setup(workload, tmp, run, "once", repeat=False)
    if work is None:
        return {}
    cpu = {_cpu_metric(c.stage): c.cpu_s for c in run.calls if c.stage in STAGE_METRIC}
    plain, traced = tmp / "plain", tmp / "traced"
    tracer = Tracer()

    def run_traced(stages):
        hooks = Hooks(tracer)
        try:
            return workload.run(stages, work, traced, tracer)
        finally:
            hooks.restore()

    if not run.add_calls(run_traced(workload.setup_stages)):
        return {}
    plain_s = traced_s = 0.0
    for stage in workload.timed_stages:
        (call,) = workload.run((stage,), work, plain)
        if not run.add_calls([call]):
            return {}
        (traced_call,) = run_traced((stage,))
        if not run.add_calls([traced_call]):
            return {}
        cpu[_cpu_metric(stage)] = call.cpu_s
        plain_s += call.wall_s
        traced_s += traced_call.wall_s
        run.digest(f"output:{stage}", plain / STAGE_DIRS[stage] / MAIN_OUTPUT[stage])

    run.check_all("check_outputs", workload.check_outputs, work, plain)
    run.check_all("check_outputs", workload.check_outputs, work, traced)
    run.record_results(workload, work, plain)
    # Each traced stage's deterministic outputs equal the untraced ones, byte for byte.
    for stage in workload.setup_stages + workload.timed_stages:
        untraced_root = plain if stage in workload.timed_stages else work
        for output in workload.deterministic_outputs(stage):
            name = f"{STAGE_DIRS[stage]}/{output}"
            run.check(f"traced_equals_untraced:{name}",
                      sha256(untraced_root / name) == sha256(traced / name))

    metrics = layer_metrics(tracer)
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in per_layer:
        if name.endswith("_cpu_s"):
            metrics[name] = cpu.get(name, 0.0)
    # One untraced/traced pair: a diagnostic of the hooks' cost, not a steady figure.
    metrics["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    if tracer.missing:
        print("missing " + json.dumps(sorted(tracer.missing)))
    print("spans " + json.dumps(span_summary(tracer), sort_keys=True))
    return {name: metrics[name] for name in per_layer if name in metrics}


def _print_result(run: Run, metrics: dict) -> None:
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; no repetition starts that would end past it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' is for the self-check only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recselect").is_dir() or not (ROOT / "configs").is_dir():
        print(f"no recselect sources or configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import recselect.cli  # noqa: F401  (interpreter start-up cost, not set-up work)

    before = host_state()
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size][args.workload])
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(environment(), sort_keys=True))

    # SIGTERM unwinds like an exception, so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    run = Run()
    try:
        metrics = (traced_run if args.trace else timed_run)(workload, tmp, args.seconds, run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = host_state()

    print("host " + json.dumps({"before": before, "after": after}))
    print("provenance " + json.dumps({"seed": args.seed, "size": workload.size,
                                      "digests": run.digests}, sort_keys=True))
    print("samples " + json.dumps(run.samples, sort_keys=True))
    print("checks " + json.dumps(run.checks, sort_keys=True))
    print("results " + json.dumps(run.results, sort_keys=True))
    if args.trace:
        for name, value in metrics.items():
            print(f"layer {name} {value:.6g} {UNITS[name]}")
    else:
        for name, value in metrics.items():
            label = f"{STAGE_METRIC[workload.timed_stages[0]]} ({name})" if name == PRIMARY else name
            print(f"metric {label} {value:.6g} {UNITS[name]}")
        if metrics:
            second = STAGE_METRIC[workload.timed_stages[1]]
            print(f"metric {second} (printed, not gated) "
                  f"{statistics.median(run.samples[second]):.6g} s")
    print(f"metric error_rate {run.failed / max(run.attempted, 1):.6g} fraction "
          f"({run.failed} of {run.attempted} stage calls and checks failed)")
    _print_result(run, metrics)
    return 0 if run.failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
