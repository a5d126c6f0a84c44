"""Benchmark of cfmimo's per-block pipeline, end to end and per layer.

    python3 perfbench/run.py --workload desk-fullcf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, untraced then traced
    python3 perfbench/run.py --workload all --smoke           # tiny sizes, every check, well under a minute

Run from the root of a cfmimo checkout. Each run generates its inputs from
the seed, runs ``cfmimo compare`` (and ``export-cdf``) in child processes
for whole rounds until ``--seconds`` have passed, checks the outputs apart
from cfmimo, and prints one JSON result as its last line.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics: rounds then alternate between
plain commands and commands run under ``perfbench/tracer.py``, the per-layer
figures come from the traced rounds, and the tracing overhead is the traced
round time minus the plain one. Traced and plain rounds must write
byte-identical reports.

Results and the last traced round's spans are kept in ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench")
#: BLAS threads in every child and in this process; 1 keeps run-to-run
#: spread low on a shared machine and never exceeds nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    return env


def run_child(argv: list, log_path: str) -> tuple:
    """Run a child to exit; returns (exit code, wall seconds, peak RSS in KiB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas, "commit": commit,
    }


def setup_probe(config_path: str, work: str) -> dict:
    """One set-up probe: seconds from spawn to block 0, plus the probe's steps."""
    out_path = os.path.join(work, "probe.json")
    with open(out_path, "w") as out:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        rc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), config_path],
                            stdout=out, env=child_env(), cwd=ROOT).returncode
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}")
    with open(out_path) as f:
        probe = json.loads(f.read().splitlines()[-1])
    probe["setup_s"] = probe["ready"] - spawned
    return probe


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.walls, self.rss, self.codes, self.span_files = [], [], [], []

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def ok(self) -> bool:
        return all(c == 0 for c in self.codes)


def run_round(wl, index: int, traced: bool, config_path: str, out_dir: str, work: str) -> Round:
    shutil.rmtree(out_dir, ignore_errors=True)
    rnd = Round(traced)
    for j, cmd in enumerate(wl.commands(config_path, out_dir)):
        if traced:
            spans = os.path.join(work, f"spans-{index}-{j}.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--"] + cmd
            rnd.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "cfmimo.cli"] + cmd
        code, wall, rss = run_child(argv, os.path.join(work, "cli.log"))
        rnd.codes.append(code)
        rnd.walls.append(wall)
        rnd.rss.append(rss)
        if code != 0:
            break
    return rnd


def compared_files(wl) -> list:
    names = ["comparison.csv"]
    for a in wl.algorithms:
        names += [f"{a}/report.txt", f"{a}/se_blocks.csv"] + ([f"{a}/cdf.csv"] if wl.export_cdf else [])
    return names


def same_outputs(wl, a_dir: str, b_dir: str) -> list:
    """Files that differ between two rounds' outputs (all should be equal)."""
    differ = []
    for name in compared_files(wl):
        try:
            with open(os.path.join(a_dir, name), "rb") as fa, open(os.path.join(b_dir, name), "rb") as fb:
                if fa.read() != fb.read():
                    differ.append(name)
        except OSError:
            differ.append(name)
    return differ


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import checks
    import layers

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"work-{wl.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        config_path, out_dir, map_inputs = wl.prepare(seed, work)
        ref_dir = os.path.join(work, "ref")
        # warm the bytecode cache so every measured interpreter start is alike
        run_child([sys.executable, "-c", "import cfmimo"], os.path.join(work, "cli.log"))

        # Set-up probes go between rounds, outside the measured time, so that
        # their median spans the run rather than one moment of it.
        probes, rounds, differ = [], [], []
        n_probes = 2 if smoke else SETUP_REPEATS
        deadline = time.monotonic() + seconds
        while len(rounds) < (2 if trace else 1) or time.monotonic() < deadline:
            if len(probes) < n_probes:
                start = time.monotonic()
                probes.append(setup_probe(config_path, work))
                deadline += time.monotonic() - start
            traced = trace and len(rounds) % 2 == 1
            rnd = run_round(wl, len(rounds), traced, config_path, out_dir, work)
            rounds.append(rnd)
            if not rnd.ok:
                continue
            if not os.path.isdir(ref_dir):
                os.rename(out_dir, ref_dir)
            else:
                differ += [("traced " if traced else "") + name for name in same_outputs(wl, ref_dir, out_dir)]

        probes += [setup_probe(config_path, work) for _ in range(n_probes - len(probes))]
        n_cmds = len(wl.commands(config_path, out_dir))
        pairs = len(wl.algorithms) * wl.blocks
        attempted = len(rounds) * (n_cmds + pairs)
        failed = sum(
            (n_cmds - sum(c == 0 for c in r.codes)) + (pairs if not r.codes or r.codes[0] != 0 else 0)
            for r in rounds
        )
        results = [("every round writes byte-identical outputs", not differ,
                    f"differ: {sorted(set(differ))}" if differ else "")]
        if os.path.isdir(ref_dir):
            results += checks.run_checks(wl, config_path, ref_dir, seed, map_inputs)
        else:
            results.append(("at least one round succeeded", False, f"see {work}/cli.log"))

        plain = [r for r in rounds if not r.traced and r.ok]
        traced_rounds = [r for r in rounds if r.traced and r.ok]
        if trace:
            metrics = layers.per_layer(wl, config_path, ref_dir, map_inputs, traced_rounds, plain, probes)
            keep = os.path.join(WORK_ROOT, "results", f"{wl.name}-seed{seed}.spans")
            shutil.rmtree(keep, ignore_errors=True)
            if traced_rounds:
                os.makedirs(keep)
                for path in traced_rounds[-1].span_files:
                    shutil.copy(path, keep)
        else:
            work_per_round = wl.n_ues * wl.blocks * len(wl.algorithms)
            metrics = {
                "ue_blocks_per_s": (statistics.median(work_per_round / r.wall for r in plain) if plain else 0.0,
                                    "UE-block/s"),
                "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
                "peak_rss_mb": (statistics.median(max(r.rss) / 1024.0 for r in plain) if plain else 0.0, "MB"),
            }
        return {
            "correct": all(bool(ok) for _, ok, _ in results),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in results],
            "rounds": [{"traced": r.traced, "walls_s": r.walls, "codes": r.codes} for r in rounds],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one short round each")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cfmimo", "__init__.py")):
        print(f"error: no cfmimo source under {ROOT}/src; run from the root of a cfmimo checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from workloads import workloads

    table = workloads(smoke=args.smoke)
    if args.workload != "all" and args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(table)}", file=sys.stderr)
        return 2
    seconds = 1.0 if args.smoke else args.seconds
    plan = [(n, t) for n in table for t in (False, True)] if args.workload == "all" else [
        (args.workload, bool(args.trace))]

    env = environment()
    print("env " + json.dumps(env))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    for name, trace in plan:
        res = run_workload(table[name], args.seed, seconds, trace, args.smoke)
        for c in res["checks"]:
            print(f"check {name}: {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}".rstrip())
        for key, m in res["metrics"].items():
            print(f"metric {name} {'traced' if trace else 'plain'}: {key} = {m['value']:.6g} {m['unit']}")
        print(f"ops {name}: attempted {res['attempted']}, failed {res['failed']}")
        suffix = "-smoke" if args.smoke else ""
        with open(os.path.join(results_dir, f"{name}-seed{args.seed}-trace{int(trace)}{suffix}.json"), "w") as f:
            json.dump(dict(res, workload=name, seed=args.seed, env=env), f, indent=1)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if len(plan) == 1:
        combined["metrics"] = res["metrics"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
