import importlib.util
import re
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
    assert sum(int(line.split("\twon ", 1)[1].split("/")[0]) for line in sides) == 2
    # each side's least traced peak of three more decodes, after the timed
    # rounds, and their spread
    peaks = [line.rsplit("\t", 1)[1] for line in sides]
    assert all(re.fullmatch(r"traced peak \d+\.\d{3} MB \(spread \d+\.\d KB of 3\)", p) for p in peaks)
    assert all(float(p.split()[2]) > 0 for p in peaks)
    assert not ab_decode.tracemalloc.is_tracing()
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


def test_each_side_builds_its_own_inputs(tiny_tsync, monkeypatch, capsys):
    # each side's lm-train writes its side's LM, so a side reads only files
    # of its own package's formats
    load_tree, loaded, written = ab_decode.load_tree, [], []

    def recording_tree(checkout):
        tree = load_tree(checkout)
        cli = tree["fusionkit.cli"]
        loaded.append(cli)  # "this" side first
        save = cli.save_ngram

        def save_ngram(model, path):
            written.append((cli, Path(path)))
            save(model, path)

        monkeypatch.setattr(cli, "save_ngram", save_ngram)
        return tree

    monkeypatch.setattr(ab_decode, "load_tree", recording_tree)
    code = ab_decode.main([str(ab_decode.ROOT), "--workload", "tsync-short", "--seed", str(SEED),
                           "--rounds", "1"])
    assert code == 0 and capsys.readouterr().out.endswith("KB of 3)\n")
    (this_cli, this_lm), (other_cli, other_lm) = written
    assert [this_cli, other_cli] == loaded and this_cli is not other_cli
    assert this_lm.parent.name == "this" and other_lm.parent.name == "other"
    assert this_lm.name == other_lm.name == "lm.fklm"
