"""The speed reference: a frozen copy of the program, run in its own process.

The shared host this benchmark was tuned on changes speed by 20-30% for
minutes at a time, and by more for seconds. Wall-clock rates measured at
different times therefore differ by more than any useful regression bound.
So every timed command of the program is paired with the same command run,
right before or after it, by `refprog/ptmfnet_ref`: a verbatim copy of the
program's `src/ptmfnet` taken when the benchmark was defined, which never
changes. Both see the same host speed; the ratio of their rates does not.
`run.py` reports the program's rate as that ratio times the rate the
reference reached on the tuning machine.

The reference runs in a separate process so that the program's process holds
only the program (its peak RSS stays the program's own). It writes its own
inputs from the same seed with its own writers, so a later change to the
program's file formats cannot break it. The two processes never run at once.

Protocol: the parent writes one request per line to the child's stdin
("setup", or a stage name from `workloads.STAGES`) and reads one JSON line
back: {"ok": bool, "seconds": float, "units": float, "problems": [...]}.
The child answers {"ready": true} once its inputs are written, and exits at
end of input.

    python3 perfbench/reference.py --workload train_short --seed 314 [--toy]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PKG = "ptmfnet_ref"


class Reference:
    """Parent side: starts the child and asks it to run one command at a time."""

    def __init__(self, workload: str, seed: int, toy: bool):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd + (["--toy"] if toy else []), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)

    def wait_ready(self) -> None:
        if not self._read().get("ready"):
            raise RuntimeError("reference process did not start")

    def call(self, what: str) -> dict:
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        """Ends the child and waits for it, whatever state it is in."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve(workload: str, seed: int, toy: bool) -> None:
    import shutil

    import workloads as wl

    sys.path.insert(0, str(HERE / "refprog"))
    spec = (wl.TOY if toy else wl.SPECS)[workload]
    work = HERE.parent / ".perfbench_work" / f"ref-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = sys.stdout
    try:
        inp = wl.make_inputs(spec, seed, work, PKG)
        ledger = wl.Ledger()
        session = wl.Session(spec, inp, ledger)
        out.write(json.dumps({"ready": True}) + "\n")
        out.flush()
        for line in sys.stdin:
            what = line.strip()
            failed, n_problems = ledger.failed, len(ledger.problems)
            if what == "setup":
                dt, n = wl.setup_once(spec, inp)
                ok = ledger.op("setup", [] if n == inp.setup_records else [f"loaded {n} records"])
                result = (dt, n) if ok else None
            else:
                result = getattr(session, what)()
            reply = {"ok": result is not None and ledger.failed == failed,
                     "seconds": result[0] if result else 0.0, "units": result[1] if result else 0.0,
                     "problems": ledger.problems[n_problems:]}
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="speed reference process; started by run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    serve(args.workload, args.seed, args.toy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
