import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_decode.py"
spec = importlib.util.spec_from_file_location("ab_decode", TOOL)
ab_decode = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_decode)

# a few utterances, at a seed with no pinned reference
TINY = ab_decode.corpus.Corpus(words=(2, 3), band=(16, 40), frame_budget=60, draws=4)
SEED = 1000


@pytest.fixture
def tiny_tsync(monkeypatch):
    _, settings = ab_decode.corpus.WORKLOADS["tsync-short"]
    monkeypatch.setitem(ab_decode.corpus.WORKLOADS, "tsync-short", (TINY, settings))
    assert ab_decode.perfbench_run.load_reference("tsync-short", SEED) is None


def test_head_against_head(tiny_tsync, capsys):
    import fusionkit

    code = ab_decode.main([str(ab_decode.ROOT), "--workload", "tsync-short", "--seed", str(SEED),
                           "--rounds", "2"])
    assert code == 0
    head, *sides = capsys.readouterr().out.splitlines()
    assert head.startswith("tsync-short\tseed 1000\t") and head.endswith(": 0 calls differ")
    assert [line.split("\t")[0] for line in sides] == ["this", "other"]
    assert sum(int(line.rsplit("won ", 1)[1].split("/")[0]) for line in sides) == 2
    # the package this process imported is in place again
    import fusionkit as after

    assert after is fusionkit


def test_each_side_keeps_its_own_code(tmp_path):
    this, other = ab_decode.load_tree(ab_decode.ROOT), ab_decode.load_tree(ab_decode.ROOT)
    assert this["fusionkit.cli"] is not other["fusionkit.cli"]
    # the CLI calls the search imported beside it
    for tree in (this, other):
        assert tree["fusionkit.cli"].timesync_ctc_beam is tree["fusionkit.search"].timesync_ctc_beam
    assert this["fusionkit.search"].timesync_ctc_beam is not other["fusionkit.search"].timesync_ctc_beam
    with pytest.raises(SystemExit, match="no fusionkit package"):
        ab_decode.load_tree(tmp_path)
