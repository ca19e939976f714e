"""Run the decode benchmark in a checkout and append its results to ``BENCH_<workload>.json``.

    python3 tools/bench_record.py CHECKOUT --label {parent,change} \\
        --workload W [--seed S] [--seconds N] [--runs K]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds N`` K times
in CHECKOUT and appends one record per run to ``BENCH_<workload>.json`` at
the root of the repository that holds this script.  A record holds the rev,
the date (UTC), Python, numpy, nproc, the command, the label, and the
correctness and metrics of the run's final JSON line.  The rev, Python,
numpy and nproc come from the run's own ``env`` line, which reads the rev
from CHECKOUT's ``.git`` ("unknown" without one).  To compare two revisions,
alternate single runs of each (``--runs 1``) so that both see the same
machine load.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LABELS = ("parent", "change")


def record_of(stdout: str, *, label: str, command: list[str], date: str) -> dict:
    """The record of one run from its stdout: the ``env`` line and the final
    JSON line."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env\t")), None)
    if env is None:
        raise ValueError("benchmark output has no env line")
    result = json.loads(lines[-1])
    return {
        "rev": env["git_rev"],
        "date": date,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "command": " ".join(command),
        "label": label,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in sorted(result["metrics"].items())},
    }


def append_records(path: Path, records: list[dict]) -> None:
    """Append ``records`` to the JSON list in ``path``, creating it if absent."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    if not isinstance(old, list):
        raise ValueError(f"{path} does not hold a JSON list")
    path.write_text(json.dumps(old + records, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--label", required=True, choices=LABELS)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    command = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    out = ROOT / f"BENCH_{args.workload}.json"
    for _ in range(args.runs):
        date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        run = subprocess.run([sys.executable, *command[1:]], cwd=args.checkout,
                             capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            print(f"error: benchmark exited with {run.returncode}", file=sys.stderr)
            return 1
        record = record_of(run.stdout, label=args.label, command=command, date=date)
        append_records(out, [record])
        print(f"{args.label}\t{record['rev'][:12]}\t{record['correct']}\t" + "\t".join(
            f"{name}={value:.4f}" for name, value in record["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
