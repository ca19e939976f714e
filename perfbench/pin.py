"""Pin the reference outputs that run.py checks every decode against.

    python3 perfbench/pin.py --seeds 0-31 [WORKLOAD ...]

For each workload and seed this sets up the inputs, decodes them twice, and
stores the ``hyps.txt`` line and the n-best file digest of every utterance in
``reference/<workload>.json``.  Seeds that are already pinned are never
rewritten: the reference records the outputs of the commit that pinned them,
and code under test must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import corpus
from corpus import ROOT, WORKLOADS
from run import REFERENCE_DIR, git_revision, read_outputs


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(workload: str, seed: int, work) -> dict:
    base = work / "inputs"
    corpus.build(workload, seed, base)
    utt_ids = [
        line.split("\t", 1)[0]
        for line in (base / "corpus" / "refs.txt").read_text().splitlines()
    ]
    outputs = []
    for i in range(2):
        out = work / f"out{i}"
        if corpus.decode(base, base / "corpus", out) != 0:
            raise RuntimeError(f"{workload} seed {seed}: decode failed")
        outputs.append(read_outputs(out, utt_ids))
    if outputs[0] != outputs[1]:
        raise RuntimeError(f"{workload} seed {seed}: two decodes gave different outputs")
    if outputs[0]["extra_lines"] or None in outputs[0]["hyps"].values():
        raise RuntimeError(f"{workload} seed {seed}: hyps.txt does not match the corpus")
    return {"hyps": outputs[0]["hyps"], "nbest_sha256": outputs[0]["nbest_sha256"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args(argv)
    corpus.import_fusionkit()
    rev = git_revision()
    REFERENCE_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"pin-p{os.getpid()}"
    try:
        for workload in args.workloads:
            path = REFERENCE_DIR / f"{workload}.json"
            data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
            data["workload"] = workload
            for seed in parse_seeds(args.seeds):
                if str(seed) in data["seeds"]:
                    continue
                shutil.rmtree(work, ignore_errors=True)
                entry = pin(workload, seed, work)
                entry["git_rev"] = rev
                data["seeds"][str(seed)] = entry
                print(f"pinned {workload} seed {seed}", flush=True)
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
