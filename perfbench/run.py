#!/usr/bin/env python3
"""ptmfnet benchmark: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload train_short --seed 314 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all [--toy]

Run it from the root of a source tree; it imports the program from `src/`.
Inputs are generated from --seed under `.perfbench_work/`, which is removed at
exit; a traced run leaves its spans in `.perfbench_out/`. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones, measured
untraced, with every timed command paired with the same command of the speed
reference (see reference.py); with --trace 1 they are the per-layer ones from
one traced round.
Exit code 0 means a result was printed; any other code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# The CPUs of a shared host run at different speeds at any one moment. The
# program and the speed reference (reference.py, a child process that inherits
# this) are compared call by call, so both run on one CPU, the last one this
# process may use.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
# BLAS reads its thread count once, when NumPy loads: cap it at the CPUs the
# process may use before that
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads as wl  # noqa: E402  (after the BLAS cap; it imports NumPy)

SETUP_REPEATS = 9


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        return (git / ref[5:]).read_text(encoding="utf-8").strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"seed": seed, "nproc": NPROC, "pinned_cpu": CPU, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "git_revision": _git_revision()}


def import_program() -> None:
    """Import ptmfnet from this tree's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ptmfnet" / "cli.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}; run from the root of a ptmfnet tree")
    sys.path.insert(0, str(src))
    import ptmfnet.cli

    if src.resolve() not in Path(ptmfnet.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: imported ptmfnet from {ptmfnet.cli.__file__}, not from {src}")


def _program_setup(session) -> tuple | None:
    """One set-up of the program, checked: (seconds, records), or None."""
    dt, n = wl.setup_once(session.spec, session.inp)
    expected = session.inp.setup_records
    return (dt, n) if session.ledger.op("setup", [] if n == expected else
                                        [f"loaded {n} records of {expected}"]) else None


def _pair(session, ref, stage: str, ref_first: bool) -> tuple | None:
    """One call of `stage` (or "setup") by the program and one by the
    reference, back to back. Returns (program seconds, units, reference
    seconds, units), or None if either call failed."""
    def program():
        return _program_setup(session) if stage == "setup" else getattr(session, stage)()

    def reference():
        r = ref.call(stage)
        session.ledger.op(f"reference {stage}", r["problems"] or ([] if r["ok"] else ["failed"]))
        return (r["seconds"], r["units"]) if r["ok"] else None

    if ref_first:
        r, p = reference(), program()
    else:
        p, r = program(), reference()
    return p + r if p and r else None


def _measure(session, ref, seconds: float) -> dict:
    """Pairs of calls of the command that is furthest below its share of the
    time so far (`Spec.shares`), until the budget is spent;
    stops early rather than overrun it by more than half of the next pair.
    Which side of a command's pairs runs first alternates. Returns the pairs
    per command."""
    start = time.perf_counter()
    pairs = {stage: [] for stage in wl.STAGES}
    spent = dict.fromkeys(wl.STAGES, 0.0)
    calls = dict.fromkeys(wl.STAGES, 0)
    last = {}
    share = dict(zip(wl.STAGES, session.spec.shares))
    while True:
        stage = min(wl.STAGES, key=lambda k: spent[k] / share[k])
        t0 = time.perf_counter()
        pair = _pair(session, ref, stage, calls[stage] % 2 == 1)
        calls[stage] += 1
        if pair:
            pairs[stage].append(pair)
        last[stage] = time.perf_counter() - t0
        spent[stage] += last[stage]
        nxt = min(wl.STAGES, key=lambda k: spent[k] / share[k])
        if time.perf_counter() - start + 0.5 * last.get(nxt, 0.0) >= seconds:
            print("  time per command, program and reference: "
                  + ", ".join(f"{k} {v:.2f} s" for k, v in spent.items()))
            return pairs


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _scaled(spec, stage: str, pairs: list, unit: str) -> tuple:
    """The program's rate at the reference speed of the tuning machine: its
    rate over all pairs of `stage` divided by the reference's rate over the
    same pairs, times the reference rate recorded in the workload's spec. For
    set-up, the same with times instead of rates."""
    if not pairs:
        return 0.0, unit
    pdt, pu, rdt, ru = (sum(col) for col in zip(*pairs))
    ratio = pdt / rdt if stage == "setup" else (pu / pdt) / (ru / rdt)
    per_pair = sorted(p[0] / p[2] if stage == "setup" else (p[1] / p[0]) / (p[3] / p[2]) for p in pairs)
    prog, ref = (pdt / len(pairs), rdt / len(pairs)) if stage == "setup" else (pu / pdt, ru / rdt)
    print(f"  {stage}: {len(pairs)} pairs, program {prog:.4g} and reference {ref:.4g} {unit}; "
          f"ratio {ratio:.4f}, per pair min "
          f"{per_pair[0]:.4f} median {median(per_pair):.4f} max {per_pair[-1]:.4f}")
    return spec.ref_rates[stage] * ratio, unit


def _end_to_end(session, setup: list, pairs: dict) -> dict:
    import resource

    spec = session.spec
    return {
        "setup_s": _scaled(spec, "setup", setup, "s"),
        "train_samples_per_s": _scaled(spec, "train", pairs["train"], "samples/s"),
        "final_train_loss": (session.final_train_loss or 0.0, "nats"),
        "eval_samples_per_s": _scaled(spec, "eval", pairs["eval"], "samples/s"),
        "extract_audio_s_per_s": _scaled(spec, "extract", pairs["extract"], "audio-s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(session, name: str, seed: int) -> dict:
    from tracing import Tracer, per_layer_metrics

    untraced = _timed(session.round)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _timed(session.round)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl")
    print(f"  rounds: untraced {untraced:.3f} s, traced {traced:.3f} s")
    return per_layer_metrics(tracer, traced, untraced)


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    import shutil

    from reference import Reference

    spec = (wl.TOY if toy else wl.SPECS)[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = None if trace else Reference(name, seed, toy)  # writes its inputs while this process does
    try:
        inp = wl.make_inputs(spec, seed, work)
        ledger = wl.Ledger()
        session = wl.Session(spec, inp, ledger)
        if trace:
            for _ in range(SETUP_REPEATS):
                _program_setup(session)
            metrics = _traced(session, name, seed)
        else:
            ref.wait_ready()
            setup = [p for i in range(SETUP_REPEATS) if (p := _pair(session, ref, "setup", i % 2 == 1))]
            pairs = _measure(session, ref, seconds)
        if spec.learn_check:
            session.learn_check()
        if not trace:
            metrics = _end_to_end(session, setup, pairs)
        return {"ledger": ledger, "metrics": metrics}
    finally:
        if ref is not None:
            ref.close()
        shutil.rmtree(work, ignore_errors=True)


def _print_result(ledger, metrics: dict) -> None:
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    print(f"  checks: {ledger.attempted - ledger.failed}/{ledger.attempted} operations passed, "
          f"failed_ops_frac {ledger.failed / max(ledger.attempted, 1):.4g}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for name in wl.SPECS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ops_frac={result['failed'] / result['attempted']:.4g}")
        for line in lines[:-1]:
            print(line)
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*wl.SPECS, "all"))
    ap.add_argument("--seed", type=int, default=314, help="input seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="measurement budget per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced round instead of end-to-end ones")
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_program()
    print(f"{args.workload}: {json.dumps(environment(args.seed), sort_keys=True)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    _print_result(result["ledger"], result["metrics"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
