"""quadforge benchmark: one workload, measured for a fixed time, every op checked.

    python3 perfbench/run.py --workload gen-large --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout and uses the quadforge under
``src/``; nothing needs installing.  With ``--trace 0`` it prints the
end-to-end metrics, with times scaled to the defining machine's speed by
``hostspeed.py``; with ``--trace 1`` it runs each unit of ops untraced and
then traced, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any op or the catalog check failed, and 2 when the checkout has no
quadforge source.

The catalog is copied per run and pointed to by ``QUADFORGE_CATALOG``; the
run fails if the copy or the shipped catalog changed.  Scratch files live in
``.perfbench/`` at the checkout root and results are written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_CATALOG = SRC / "quadforge" / "data" / "catalog"
SETUP_REPEATS = (3, 15)  # at least 3 setups, and up to 15 while they take under 4 s
SETUP_BUDGET_S = 4.0
SETUP_SLICES = 10  # reference slices before each setup and after the last

sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from layers import METRICS as LAYER_METRICS, TARGETS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import OP_TIMEOUT_S, WORKLOADS, CheckFailed, Context, Digests  # noqa: E402

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
              ("edges_per_s", "1/s"), ("peak_rss_mb", "MB"))


def tree_digest(path: Path) -> dict:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def source_digest() -> str:
    h = hashlib.sha256()
    for rel, sha in tree_digest(SRC).items():
        if "__pycache__" not in rel:
            h.update(f"{rel} {sha}\n".encode())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


TAIL_MIN_SAMPLES = 20


def tail(values: list) -> tuple:
    """(value, percentile): the highest nearest-rank percentile with at least
    ten samples beyond it.  With fewer than 20 samples, the highest with at
    least one beyond it, so that one hiccup alone does not make the tail."""
    xs = sorted(values)
    beyond = 10 if len(xs) >= TAIL_MIN_SAMPLES else 1
    i = max(len(xs) - beyond - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


class Runner:
    def __init__(self, ctx: Context, workload):
        self.ctx = ctx
        self.workload = workload
        self.records: list = []  # one dict per op attempted
        self.speed = HostSpeed()

    def measure(self, units, seconds: float) -> None:
        """Run whole units for up to ``seconds``: after the first, a unit
        starts only if one more like the last would end in time."""
        start = time.perf_counter()
        self.speed.sample(force=True)
        for unit in units:
            t0 = time.perf_counter()
            self.run_unit(unit, "measured")
            unit_s = time.perf_counter() - t0
            if time.perf_counter() - start + unit_s > seconds:
                break
        self.speed.sample(force=True)

    def run_unit(self, unit, phase: str) -> None:
        if unit.prepare is not None:
            unit.prepare()
        tracer = self.ctx.tracer
        for op in unit.ops:
            self.speed.sample()
            record = {"op": len(self.records), "label": op.label, "phase": phase}
            if tracer is not None:
                tracer.op = record["op"]
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception:  # a failed op is counted, never retried or skipped
                error = traceback.format_exc(limit=4)
            record["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    record["edges"] = op.check(result)
                except Exception:
                    error = traceback.format_exc(limit=4)
            record["ok"] = error is None
            if error is not None:
                record["error"] = error
                print(f"FAILED op {record['op']} {op.label}:\n{error}", file=sys.stderr)
            self.records.append(record)

    def end_to_end(self, setup_s: float, setup_slowdown: float) -> tuple:
        """The end-to-end metrics at the defining machine's speed, and the
        raw ones with the slowdowns that scaled them."""
        raw, extra = self.raw_end_to_end(setup_s)
        slowdown = self.speed.slowdown()
        scale = {"setup_s": 1 / setup_slowdown, "op_p50_s": 1 / slowdown,
                 "op_tail_s": 1 / slowdown, "ops_per_s": slowdown, "edges_per_s": slowdown,
                 "peak_rss_mb": 1.0}
        extra.update(raw_metrics=raw, slowdown=slowdown, setup_slowdown=setup_slowdown)
        return {name: value * scale[name] for name, value in raw.items()}, extra

    def raw_end_to_end(self, setup_s: float) -> tuple:
        ops = self.records
        times = [r["seconds"] for r in ops]
        busy = sum(times)
        ok = [r for r in ops if r["ok"]]
        # A request timed several times in the run counts once, at its mean
        # time: the median of many repeats of one short op jumps between the
        # host's speed modes, where their mean moves smoothly.
        by_request = defaultdict(list)
        for r in ops:
            by_request[r["label"]].append(r["seconds"])
        p50 = statistics.median(statistics.fmean(v) for v in by_request.values())
        tail_s, pct = tail(times)
        rss_who = resource.RUSAGE_CHILDREN if self.workload.work_in_children else resource.RUSAGE_SELF
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "ops_per_s": len(ok) / busy,
            "edges_per_s": sum(r["edges"] for r in ok) / busy,
            "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
        }
        return metrics, {"op_tail_percentile": pct, "op_tail_samples": len(times),
                         "failed_ratio": (len(ops) - len(ok)) / len(ops)}


def traced_run(runner: Runner, units, seconds: float) -> tuple:
    """Run each unit untraced and then traced, until ``seconds`` have passed.
    Pairing the two runs of a unit keeps the host's speed drift out of the
    tracing overhead."""
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    start = time.perf_counter()
    for unit in units:
        for phase in walls:
            first = len(runner.records)
            if phase == "traced":
                tracer.install(TARGETS, "quadforge")
                runner.ctx.tracer = tracer
            try:
                runner.run_unit(unit, phase)
            finally:
                tracer.uninstall()
                runner.ctx.tracer = None
            walls[phase] += sum(r["seconds"] for r in runner.records[first:])
        if time.perf_counter() - start >= seconds:
            break
    untraced_wall, traced_wall = walls["untraced"], walls["traced"]
    values = layer_metrics(tracer.stats, traced_wall, untraced_wall)
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in LAYER_METRICS}
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "layer_stats": {k: asdict(v) for k, v in sorted(tracer.stats.items())},
             "op_self_s": {str(op): dict(v) for op, v in tracer.op_self.items()}}
    return metrics, extra


def import_probe(ctx: Context) -> None:
    probe = subprocess.run([sys.executable, "-c", "import quadforge.cli"], env=ctx.env,
                           capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        raise CheckFailed(f"a fresh interpreter cannot import quadforge: {probe.stderr[-300:]}")


def setup_once(ctx: Context, workload) -> float:
    catalog = ctx.workdir / "catalog"
    if catalog.exists():
        shutil.rmtree(catalog)
    t0 = time.perf_counter()
    import_probe(ctx)
    shutil.copytree(SHIPPED_CATALOG, catalog)
    workload.setup()
    return time.perf_counter() - t0


def timed_setups(ctx: Context, workload) -> tuple:
    """The times of several setups, after an untimed import that warms the
    file cache, and the host's slowdown sampled around them."""
    import_probe(ctx)
    speed = HostSpeed(min_slices=SETUP_SLICES)
    setups: list = []
    least, most = SETUP_REPEATS
    while len(setups) < least or (len(setups) < most and sum(setups) < SETUP_BUDGET_S):
        speed.sample(force=True)
        setups.append(setup_once(ctx, workload))
    speed.sample(force=True)
    return setups, speed.slowdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadforge" / "cli.py").is_file():
        print(f"error: no quadforge source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import networkx
    import quadforge.cli
    if Path(quadforge.cli.__file__).resolve().parent != (SRC / "quadforge").resolve():
        print(f"error: imported quadforge from {quadforge.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    state_dir = ROOT / ".perfbench"
    workdir = state_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, state_dir, workdir, networkx.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, state_dir: Path, workdir: Path, networkx_version: str) -> int:
    src_sha = source_digest()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["QUADFORGE_CATALOG"] = str(workdir / "catalog")
    os.environ["QUADFORGE_CATALOG"] = env["QUADFORGE_CATALOG"]
    ctx = Context(seed=args.seed, workdir=workdir, env=env,
                  digests=Digests(state_dir / "digests" / f"{src_sha[:16]}.json"))
    workload = WORKLOADS[args.workload](ctx)
    shipped_before = tree_digest(SHIPPED_CATALOG)

    try:
        setups, setup_slowdown = timed_setups(ctx, workload)
    except (CheckFailed, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: setup failed: {exc}", file=sys.stderr)
        return 1
    first_op_after_s = time.perf_counter() - PROCESS_START

    runner = Runner(ctx, workload)
    if args.trace:
        metrics, extra = traced_run(runner, workload.units(), args.seconds)
    else:
        runner.measure(workload.units(), args.seconds)
        values, extra = runner.end_to_end(statistics.median(setups), setup_slowdown)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra["setup_samples_s"] = setups
    extra["first_op_after_s"] = first_op_after_s

    problems = []
    if tree_digest(workdir / "catalog") != shipped_before:
        problems.append("the run changed its copy of the catalog")
    if tree_digest(SHIPPED_CATALOG) != shipped_before:
        problems.append("the shipped catalog changed during the run")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    ctx.digests.save()

    records = runner.records
    failed = sum(not r["ok"] for r in records)
    env_info = {"commit": git_commit(), "src_sha256": src_sha,
                "python": platform.python_version(), "networkx": networkx_version,
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace}
    correct = failed == 0 and not problems

    results_dir = state_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(
        {"env": env_info, "correct": correct, "problems": problems, "metrics": metrics,
         "extra": extra, "ops": records, "gen_sha256": ctx.digests.run}, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in env_info.items()))
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    else:
        print(f"{'metric':40s} {'scaled':>14s} {'raw':>14s}")
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:>14.6g} {extra['raw_metrics'][name]:>14.6g} {m['unit']}")
        print(f"{'host slowdown (setup, ops)':40s} {extra['setup_slowdown']:>14.4g} "
              f"{extra['slowdown']:>14.4g}")
        print(f"{'op_tail_s is p' + format(extra['op_tail_percentile'], '.4g'):40s} "
              f"of {extra['op_tail_samples']} ops")
        print(f"{'failed_ratio':40s} {extra['failed_ratio']:>14.6g} ratio")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
