import importlib.util
import json
from pathlib import Path

import pytest

from fusionkit.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_step.py"
spec = importlib.util.spec_from_file_location("replay_step", TOOL)
replay_step = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay_step)


@pytest.fixture(scope="module")
def joint(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    assert main(["synth", str(root / "corpus"), "--seed", "3", "--utts", "3", "--noise", "0.3"]) == 0
    cfg = {
        "strategy": "joint",
        "beam": 64,  # a lockstep per utterance
        "scorers": [
            {"name": "ctc", "kind": "ctc_prefix", "weight": 1.0},
            {"name": "dec", "kind": "decoder_lm", "weight": 0.1},
        ],
    }
    (root / "config.json").write_text(json.dumps(cfg))
    return root


@pytest.mark.parametrize("layer", sorted(replay_step.MODULES))
def test_replays_a_decode_through_both_sides(joint, capsys, layer):
    code = replay_step.main(
        [str(joint / "corpus"), str(joint / "config.json"), str(replay_step.SRC), "--layer", layer,
         "--repeats", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[1] == layer
    assert [line.split("\t")[0] for line in lines[1:]] == ["this", "other"]


def test_each_lockstep_replays_its_own_scorer(joint):
    # each call holds its scorer, so a scorer freed after its lockstep
    # cannot hand its id to the next lockstep's
    calls = replay_step.record(joint / "corpus", joint / "config.json", "ctc_step")
    scorers = {id(call[0]): call[0] for call in calls}
    assert len(scorers) == 3
    assert all(scorers[id(call[0])].pgs is call[1] for call in calls)
