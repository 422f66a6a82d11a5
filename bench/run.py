"""Benchmark of hermsymp: seeded closed-loop workloads with checked results.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of invariants, bordism, torus-sweep, cli.  One caller in one
process runs operations back to back for S seconds, finishing the pass it is
in, and checks every result against an oracle outside the timed region.
Times are on the calibrated clock of clock.py.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and reports the per-layer metrics.  ``--workload all`` runs each
workload in its own process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  Exit code 0 when every result checked correct, 1
when a result was wrong, 2 when the repository cannot be benchmarked.
BLAS libraries are limited to one thread.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("invariants", "bordism", "torus-sweep", "cli")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3    # setup_s: median of these set-ups + median import probe
PROBE_REPEATS = 5    # interpreter and import probes
DIAGNOSTICS = ("maslov.triple_index.worst_defect", "bordism.reduce.worst_distance",
               "torus.torus_m_sweep.worst_delta")
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ok_frac": "fraction",
         "setup_s": "s", "peak_rss_mb": "MB"}
# share of the untimed spread=1e3 queries that the validators reject (invariants)
REJECT_METRIC = "spaces.lagrangian_from_basis.spread_1e3_reject_frac"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first result before its check; the run must fail")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Phase:
    """Outcome of one timed phase; times are in seconds."""

    def __init__(self):
        self.calibrated: list[float] = []  # ops that completed correctly (clock.py)
        self.wall: list[float] = []        # the same operations on the wall clock
        self.calibrated_time = 0.0         # every attempted op
        self.wall_time = 0.0
        self.attempted = 0
        self.completed = 0
        self.raised: dict[str, int] = {}   # typed hermsymp errors by class name
        self.wrong: list[str] = []         # failed checks and unexpected exceptions
        self.passes = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    @property
    def ops_per_s(self) -> float:
        return len(self.calibrated) / self.calibrated_time

    def summary(self, prefix: str = "") -> dict[str, float]:
        durations = self.wall if prefix else self.calibrated
        total = self.wall_time if prefix else self.calibrated_time
        return {
            f"{prefix}ops_per_s": len(durations) / total,
            f"{prefix}op_p50_ms": percentile_ms(durations, 50),
            f"{prefix}op_p90_ms": percentile_ms(durations, 90),
        }


def run_phase(wl, seconds, clock, expected_error, tracer=None, fault=False) -> Phase:
    """Repeat passes of ``wl.ops`` until ``seconds`` have passed, checks included."""
    phase = Phase()
    deadline = perf_counter() + seconds
    after = clock.reference()
    while True:
        for index, op in enumerate(wl.ops):
            before = after  # checks are short next to the machine's slow phases
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            error = None
            start = perf_counter()
            try:
                result = op()
            except expected_error as exc:
                error = exc
            except Exception:
                error = traceback.format_exc(limit=3)
            wall = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            after = clock.reference()
            calibrated = clock.calibrated(wall, before, after)
            phase.attempted += 1
            phase.wall_time += wall
            phase.calibrated_time += calibrated
            if isinstance(error, expected_error):
                label = type(error).__name__
                phase.raised[label] = phase.raised.get(label, 0) + 1
            elif error is not None:
                phase.wrong.append(f"op {index} raised: {error}")
            else:
                if fault:
                    result, fault = wl.corrupt(index, result), False
                problem = wl.check(index, result)
                if problem is not None:
                    phase.wrong.append(f"op {index}: {problem}")
                else:
                    phase.completed += 1
                    phase.calibrated.append(calibrated)
                    phase.wall.append(wall)
            if (index + 1) % wl.pass_len == 0:
                phase.passes += 1
                if perf_counter() >= deadline:
                    return phase


def percentile_ms(durations, q: int) -> float:
    """The q-th percentile in ms; q=50 is the median."""
    if len(durations) < 2:
        return durations[0] * 1e3 if durations else float("nan")
    return statistics.quantiles(durations, n=100)[q - 1] * 1e3


def probe(code: str, clock, repeats: int) -> tuple[float, float]:
    """Median (calibrated, wall) seconds of a fresh ``python -c code``.

    ``clock`` should use the ``import`` reference, since this is a process.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    calibrated, wall = [], []
    after = clock.reference()
    for _ in range(repeats):
        before = after
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        wall.append(perf_counter() - start)
        after = clock.reference()
        calibrated.append(clock.calibrated(wall[-1], before, after))
    return statistics.median(calibrated), statistics.median(wall)


def commit() -> str:
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


def metadata(args, np) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 process",
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "hermsymp" / "__init__.py").is_file():
        print(f"no hermsymp sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import numpy as np
    import hermsymp.cli  # noqa: F401  (every layer, including the CLI, is imported)
    from hermsymp.errors import HermsympError
    import workloads
    from clock import Clock
    from tracer import Tracer
    import_wall = perf_counter() - start
    clock = Clock(workloads.CLASSES[args.workload].reference)
    clock.reference()  # the first run pays for lazy set-up

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        setup_wall, setup_cal = [], []
        for _ in range(SETUP_REPEATS):
            before = clock.reference()
            start = perf_counter()
            wl = workloads.make(args.workload, args.seed, ROOT, workdir)
            for index in wl.warmup:
                try:
                    wl.ops[index]()
                except HermsympError:
                    pass
            setup_wall.append(perf_counter() - start)
            setup_cal.append(clock.calibrated(setup_wall[-1], before, clock.reference()))
        # the imports happen once here, so they are timed in fresh interpreters
        processes = clock if clock.kind == "import" else Clock("import")
        import_s, import_wall_s = probe("import hermsymp.cli", processes, PROBE_REPEATS)
        setup_s = import_s + statistics.median(setup_cal)
        wall_setup_s = import_wall_s + statistics.median(setup_wall)

        if args.trace:
            plain = run_phase(wl, args.seconds / 2, clock, HermsympError,
                              fault=args.inject_fault)
            tracer = Tracer()
            if args.workload == "cli":
                wl.traced = tracer.merged.append
            tracer.install()
            try:
                traced = run_phase(wl, args.seconds / 2, clock, HermsympError, tracer)
            finally:
                tracer.uninstall()
            phases = (plain, traced)
            metrics = tracer.metrics()
            diagnostics = wl.diagnostics()
            for name in DIAGNOSTICS:
                metrics[name] = diagnostics.get(name, 0.0)
            interp = probe("pass", processes, PROBE_REPEATS)[0]
            metrics["cli.interp_ms"] = interp * 1e3
            metrics["cli.import_ms"] = (probe("import hermsymp.cli", processes, PROBE_REPEATS)[0]
                                        - interp) * 1e3
            metrics["trace_overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0
            wall = {}
        else:
            phase = run_phase(wl, args.seconds, clock, HermsympError, fault=args.inject_fault)
            phases = (phase,)
            who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
            metrics = {
                **phase.summary(),
                "ok_frac": phase.completed / phase.attempted,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            wall = {**phase.summary("wall_"), "wall_setup_s": wall_setup_s}
        conformance = wl.conformance(HermsympError)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = [w for p in phases for w in p.wrong]
    if not all(p.calibrated for p in phases):
        wrong.append("no timed operation completed")
    raised: dict[str, int] = {}
    for p in phases:
        for label, n in p.raised.items():
            raised[label] = raised.get(label, 0) + n
    probed = {}
    if conformance is not None:
        queries, rejected, probe_wrong = conformance
        wrong += probe_wrong
        probed = {"queries": queries, "rejected": rejected,
                  "reject_frac": sum(rejected.values()) / queries}
    if args.trace:
        metrics[REJECT_METRIC] = probed.get("reject_frac", 0.0)
    for message in wrong[:5]:
        print(f"WRONG {args.workload}: {message}", file=sys.stderr)

    units = {name: UNITS.get(name) or _layer_unit(name) for name in metrics}
    units.update({name: UNITS[name.removeprefix("wall_")] for name in wall})
    printed = {**metrics, **wall, "failed_frac": failed / attempted}
    if probed:
        printed[REJECT_METRIC] = probed["reject_frac"]
    for name, value in printed.items():
        print(f"{args.workload:12s} {name:45s} {value:14.6g} {units.get(name, 'fraction')}")
    meta = metadata(args, np)
    meta.update(passes=[p.passes for p in phases], attempted=attempted,
                completed=attempted - failed, failed=failed, raised=raised,
                wrong=len(wrong), op_samples=[len(p.calibrated) for p in phases],
                failed_frac=failed / attempted, wall=wall, setup_runs_wall_s=setup_wall,
                import_in_process_wall_s=import_wall, clock=[clock.kind, clock.nominal],
                conformance=probed)
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not wrong else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == REJECT_METRIC:
        return "fraction"
    if name.endswith((".calls", ".errors")):
        return "count"
    return "1" if ".worst_" in name else "ratio"


def run_all(args) -> int:
    """Each workload in its own process, then one table of the results."""
    rows, worst = [], 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.inject_fault:
            cmd.append("--inject-fault")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            result = json.loads(lines[-1])
            result["failed_frac"] = result["failed"] / result["attempted"]
            rows.append((name, result))
    print(f"{'workload':12s} {'correct':8s} {'failed_frac':>11s} " +
          " ".join(f"{m:>12s}" for m in UNITS if not args.trace))
    for name, result in rows:
        values = " ".join(f"{result['metrics'][m]['value']:12.5g}" for m in UNITS
                          if not args.trace)
        print(f"{name:12s} {str(result['correct']):8s} {result['failed_frac']:11.4g} {values}")
    summary = {"correct": worst == 0 and len(rows) == len(NAMES),
               "attempted": sum(r["attempted"] for _, r in rows),
               "failed": sum(r["failed"] for _, r in rows),
               "metrics": {f"{name}.{m}": r["metrics"][m] for name, r in rows
                           for m in r["metrics"]}}
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
