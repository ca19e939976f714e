import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import ctc
from fusionkit.core import NEG_INF, Posteriorgram, logsumexp, logsumexp_rows
from fusionkit.ctc import (
    CtcPrefixScorer,
    PrefixStates,
    collapse,
    compress_posteriors,
    greedy_decode,
    kept_labels,
    log_add_bounds,
    topk_prune,
)

from oracle import compressed_log_probs, ctc_forward_logprob

BLANK = 0


def make_pg(probs, frame_ms=60.0):
    probs = np.asarray(probs, dtype=np.float64)
    return Posteriorgram(np.log(probs), frame_ms)


def random_pg(rng, t, v):
    rows = rng.dirichlet(np.ones(v), size=t)
    lp = np.log(rows)
    lp -= np.array([logsumexp(r) for r in lp])[:, None]
    return Posteriorgram(lp)


def brute_force_forward(pg, target, blank_id=BLANK):
    """Sum path probabilities over all V^T alignments, grouped by collapse."""
    total = NEG_INF
    t, v = pg.log_probs.shape
    target = list(target)
    for path in itertools.product(range(v), repeat=t):
        if collapse(path, blank_id) == target:
            total = np.logaddexp(total, sum(pg.log_probs[i, lab] for i, lab in enumerate(path)))
    return float(total)


def brute_force_prefix(pg, prefix, blank_id=BLANK):
    """Probability that the collapsed output begins with ``prefix``."""
    total = NEG_INF
    t, v = pg.log_probs.shape
    prefix = list(prefix)
    for path in itertools.product(range(v), repeat=t):
        out = collapse(path, blank_id)
        if out[: len(prefix)] == prefix:
            total = np.logaddexp(total, sum(pg.log_probs[i, lab] for i, lab in enumerate(path)))
    return float(total)


class TestCollapse:
    def test_merge_then_remove(self):
        assert collapse([1, 1, BLANK, 2, 2], BLANK) == [1, 2]

    def test_blank_only(self):
        assert collapse([BLANK, BLANK, BLANK], BLANK) == []

    def test_blank_separates_repeats(self):
        assert collapse([1, BLANK, 1], BLANK) == [1, 1]

    def test_empty(self):
        assert collapse([], BLANK) == []


class TestForwardLogprob:
    def test_single_frame(self):
        pg = make_pg([[0.2, 0.5, 0.3]])
        assert ctc_forward_logprob(pg, [1], BLANK) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_uniform_frames(self):
        # 9 alignment paths over {blank,a,b}; (a,a),(a,blank),(blank,a) collapse to [a]
        pg = make_pg(np.full((2, 3), 1 / 3))
        assert ctc_forward_logprob(pg, [1], BLANK) == pytest.approx(math.log(3 / 9), abs=1e-12)

    def test_infeasible(self):
        pg = make_pg([[0.2, 0.5, 0.3]])
        assert ctc_forward_logprob(pg, [1, 2], BLANK) == NEG_INF

    def test_repeat_needs_blank(self):
        pg = make_pg(np.full((2, 3), 1 / 3))
        assert ctc_forward_logprob(pg, [1, 1], BLANK) == NEG_INF

    def test_empty_target(self):
        pg = make_pg([[0.6, 0.2, 0.2], [0.5, 0.4, 0.1]])
        assert ctc_forward_logprob(pg, [], BLANK) == pytest.approx(
            math.log(0.6 * 0.5), abs=1e-12
        )

    def test_blank_in_target_rejected(self):
        pg = make_pg([[0.6, 0.2, 0.2]])
        with pytest.raises(ValueError):
            ctc_forward_logprob(pg, [BLANK], BLANK)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = int(rng.integers(1, 6))
            v = int(rng.integers(2, 5))
            pg = random_pg(rng, t, v)
            s = int(rng.integers(0, t + 1))
            target = rng.integers(1, v, size=s).tolist()
            got = ctc_forward_logprob(pg, target, BLANK)
            want = brute_force_forward(pg, target)
            if want == NEG_INF:
                assert got == NEG_INF
            else:
                assert math.exp(got) == pytest.approx(math.exp(want), abs=1e-10)


class TestGreedyDecode:
    def test_peaked(self):
        pg = make_pg([
            [0.1, 0.8, 0.1],
            [0.1, 0.8, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
        ])
        assert greedy_decode(pg, BLANK) == [1, 2]

    def test_all_blank(self):
        pg = make_pg([[0.9, 0.05, 0.05], [0.9, 0.05, 0.05]])
        assert greedy_decode(pg, BLANK) == []

    def test_tie_goes_to_lowest_id(self):
        pg = make_pg([[0.2, 0.4, 0.4]])
        assert greedy_decode(pg, BLANK) == [1]


def rows_of(states, rows):
    """The prefix states of ``rows``, in that order."""
    return PrefixStates(
        states.length, states.utt[rows], states.last[rows], states.log_nonblank[:, rows],
        states.log_blank[:, rows], states.log_sum[:, rows], states.log_prefix_prob[rows],
    )


def step_one(sc, state, cands):
    """One state through the batched protocol: its exact score row and,
    aligned with it, the successor state per candidate."""
    _, _, step = sc.step(state, cands)
    rows, cols = [0] * len(cands), list(range(len(cands)))
    return sc.exact(step, rows, cols), sc.advance(step, rows, cols)


def exact_matrix(sc, step, shape, rng=None):
    """Every (row, column) pair of a step folded exactly, asked for in one
    call, in a random order when ``rng`` is given."""
    order = np.arange(shape[0] * shape[1])
    if rng is not None:
        order = rng.permutation(order)
    rows, cols = np.divmod(order, shape[1])
    out = np.empty(order.size)
    out[order] = sc.exact(step, rows, cols)
    return out.reshape(shape)


def assert_bounded(state):
    total = np.exp(state.log_nonblank) + np.exp(state.log_blank)
    assert np.all(total <= 1.0 + 1e-6), "forward variables exceed probability 1"


def reference_prefix_step(lp, state, cands, blank, eos):
    """Single-state prefix scoring, one candidate column at a time: the
    slow reference for the batched kernel.  Returns the scores and the
    successor (prefix, log_nonblank, log_blank, log_prefix_prob) tuples."""
    T = lp.shape[0]
    prefix, log_nb, log_b, _ = state
    S = len(prefix)
    r_sum = np.logaddexp(log_nb, log_b)
    scores, succ = [], []
    for c in cands:
        r_n = np.full(T, NEG_INF)
        r_b = np.full(T, NEG_INF)
        if c == eos:
            scores.append(np.logaddexp(log_nb[T - 1], log_b[T - 1]))
            succ.append(state)
            continue
        score = NEG_INF
        if S < T:
            phi = log_b if S > 0 and c == prefix[-1] else r_sum
            start = max(S, 1)
            if S == 0:
                r_n[0] = lp[0, c]
            score = r_n[start - 1]
            for t in range(start, T):
                r_n[t] = np.logaddexp(r_n[t - 1], phi[t - 1]) + lp[t, c]
                r_b[t] = np.logaddexp(r_n[t - 1], r_b[t - 1]) + lp[t, blank]
                score = np.logaddexp(score, phi[t - 1] + lp[t, c])
        scores.append(score)
        succ.append((prefix + (c,), r_n, r_b, float(score)))
    return np.array(scores), succ


class TestLogAddBounds:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        k=st.integers(1, 4),
        base=st.floats(-1000.0, 0.0),
        spread=st.sampled_from([0.0, 1e-12, 1e-6, 1.0, 30.0]),
        dropped=st.floats(0.0, 1.0),
    )
    def test_fold_within_bounds(self, seed, n, k, base, spread, dropped):
        # near-equal terms push the float fold past M + log n: only the
        # rounding margin keeps the upper bound; some columns are all -inf
        rng = np.random.default_rng(seed)
        terms = base - rng.uniform(0.0, spread, size=(n, k))
        terms[rng.uniform(size=(n, k)) < dropped] = NEG_INF
        fold = np.logaddexp.reduce(terms, axis=0)
        lower, upper = log_add_bounds(terms.max(axis=0), n)
        assert np.array_equal(lower, terms.max(axis=0))
        assert np.all(lower <= fold) and np.all(fold <= upper)
        assert np.array_equal(np.isneginf(upper), np.isneginf(fold))


class TestPrefixScorer:
    EOS = 99

    def scorer(self, pg):
        return CtcPrefixScorer(pg, blank_id=BLANK, eos_id=self.EOS)

    def test_empty_prefix_candidate(self):
        # collapsed outputs starting with "a": (a,a),(a,blank),(blank,a),(a,b)
        pg = make_pg(np.full((2, 3), 1 / 3))
        sc = self.scorer(pg)
        scores, _ = step_one(sc, sc.initial_state(), [1])
        assert scores[0] == pytest.approx(math.log(4 / 9), abs=1e-12)

    def test_eos_equals_forward(self):
        pg = make_pg(np.full((2, 3), 1 / 3))
        sc = self.scorer(pg)
        _, states = step_one(sc, sc.initial_state(), [1])
        scores, _ = step_one(sc, states, [self.EOS])
        assert scores[0] == pytest.approx(math.log(3 / 9), abs=1e-12)
        assert scores[0] == pytest.approx(ctc_forward_logprob(pg, [1], BLANK), abs=1e-12)

    def test_candidates_partition_parent_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(1, 6))
            v = int(rng.integers(2, 5))
            pg = random_pg(rng, t, v)
            sc = self.scorer(pg)
            state = sc.initial_state()
            parent = 0.0
            for _ in range(3):
                cands = list(range(1, v)) + [self.EOS]
                scores, states = step_one(sc, state, cands)
                total = logsumexp(scores)
                assert total == pytest.approx(parent, abs=1e-9)
                pick = int(rng.integers(0, v - 1))
                if scores[pick] == NEG_INF:
                    break
                parent = scores[pick]
                state = rows_of(states, [pick])

    def test_blank_candidate_rejected(self):
        pg = make_pg(np.full((2, 3), 1 / 3))
        sc = self.scorer(pg)
        with pytest.raises(ValueError):
            sc.step(sc.initial_state(), [BLANK])

    def test_matches_brute_force_prefix(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = int(rng.integers(1, 5))
            v = int(rng.integers(2, 5))
            pg = random_pg(rng, t, v)
            sc = self.scorer(pg)
            state = sc.initial_state()
            prefix = []
            for _ in range(min(t, 3)):
                cands = list(range(1, v))
                scores, states = step_one(sc, state, cands)
                for c, got in zip(cands, scores):
                    want = brute_force_prefix(pg, prefix + [c])
                    if want == NEG_INF:
                        assert got == NEG_INF
                    else:
                        assert got == pytest.approx(want, abs=1e-9)
                pick = int(rng.integers(0, len(cands)))
                if scores[pick] == NEG_INF:
                    break
                prefix.append(cands[pick])
                state = rows_of(states, [pick])

    def test_forward_variables_bounded(self):
        rng = np.random.default_rng(21)
        pg = random_pg(rng, 5, 4)
        sc = self.scorer(pg)
        state = sc.initial_state()
        assert_bounded(state)
        for _ in range(3):
            scores, states = step_one(sc, state, [1, 2, 3])
            pick = int(np.argmax(scores))
            if scores[pick] == NEG_INF:
                break
            state = rows_of(states, [pick])
            assert_bounded(state)

    def test_monotone_under_extension(self):
        rng = np.random.default_rng(5)
        pg = random_pg(rng, 5, 4)
        sc = self.scorer(pg)
        state = sc.initial_state()
        prev = 0.0
        for _ in range(4):
            scores, states = step_one(sc, state, [1, 2, 3])
            assert np.all(scores <= prev + 1e-12)
            best = int(np.argmax(scores))
            prev = scores[best]
            state = rows_of(states, [best])

    def test_initial_state_and_mixed_lengths_rejected(self):
        pg = make_pg(np.full((2, 3), 1 / 3))
        sc = self.scorer(pg)
        state = sc.initial_state()
        assert (state.length, state.last.tolist(), state.log_prefix_prob.tolist()) == (0, [-1], [0.0])
        scores, states = step_one(sc, state, [1, 2])
        assert scores[0] == pytest.approx(math.log(4 / 9), abs=1e-12)
        # a batch holds one prefix length for all its rows, so lengths cannot mix
        assert (states.length, states.last.tolist()) == (1, [1, 2])

    def test_batched_kernel_equals_reference_exactly(self):
        # B > 1 states per step, candidates equal to each state's last label,
        # the EOS column, and prefixes as long as the posteriorgram or longer
        rng = np.random.default_rng(31)
        for _ in range(12):
            t = int(rng.integers(1, 6))
            v = int(rng.integers(3, 6))
            pg = random_pg(rng, t, v)
            lp = pg.log_probs
            sc = self.scorer(pg)
            cands = list(range(1, v)) + [self.EOS]
            init = sc.initial_state()
            states = init
            refs = [((), init.log_nonblank[:, 0], init.log_blank[:, 0], init.log_prefix_prob[0])]
            for _ in range(t + 2):
                lower, _, step = sc.step(states, cands)
                assert lower.shape == (len(states), len(cands))
                scores = exact_matrix(sc, step, lower.shape, rng)
                want = [reference_prefix_step(lp, r, cands, BLANK, self.EOS) for r in refs]
                for row, (want_scores, _) in enumerate(want):
                    assert np.array_equal(scores[row], want_scores)
                # survivors: random (row, plain column) pairs, repeats allowed
                k = int(rng.integers(1, 5))
                rows = rng.integers(0, len(states), size=k).tolist()
                cols = rng.integers(0, len(cands) - 1, size=k).tolist()
                states = sc.advance(step, rows, cols)
                refs = [want[r][1][c] for r, c in zip(rows, cols)]
                assert states.length == len(refs[0][0])
                for b, (prefix, log_nb, log_b, log_prefix) in enumerate(refs):
                    assert states.last[b] == prefix[-1]
                    assert np.array_equal(states.log_nonblank[:, b], log_nb)
                    assert np.array_equal(states.log_blank[:, b], log_b)
                    assert states.log_prefix_prob[b] == log_prefix
            assert states.length > t
            first = rows_of(states, [0])
            _, _, step = sc.step(first, [self.EOS])
            kept = sc.advance(step, [0], [0])
            assert np.array_equal(kept.log_nonblank, first.log_nonblank)
            assert np.array_equal(kept.log_blank, first.log_blank)
            assert kept.log_prefix_prob == first.log_prefix_prob and kept.last == first.last

    @pytest.mark.parametrize("seed", range(4))
    def test_log_sum_is_log_add_of_forward_variables(self, seed):
        # along a lockstep over posteriorgrams of different lengths, one
        # with pruned labels, every state's log_sum is
        # np.logaddexp(log_nonblank, log_blank) bit for bit: the empty
        # prefix's, each advance's from S = 0 on, and EOS-kept rows'
        rng = np.random.default_rng(seed)
        v = 5
        pgs = [random_pg(rng, 3, v), topk_prune(random_pg(rng, 6, v), 3, BLANK), random_pg(rng, 9, v)]
        sc = CtcPrefixScorer(pgs, BLANK, self.EOS)
        cands = list(range(1, v)) + [self.EOS]
        states = sc.initial_state()
        kept = 0
        for _ in range(11):
            want = np.logaddexp(states.log_nonblank, states.log_blank)
            assert states.log_sum.tobytes() == want.tobytes()
            _, _, step = sc.step(states, cands)
            k = min(2 * len(states), 12)
            rows = rng.integers(0, len(states), size=k)
            cols = rng.integers(0, len(cands), size=k)
            kept += np.count_nonzero(cols == len(cands) - 1)
            states = sc.advance(step, rows, cols)
        assert states.length > max(pg.num_frames for pg in pgs) and kept > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 9),
        v=st.integers(3, 8),
        shape=st.sampled_from(["dirichlet", "peaked", "uniform", "repeats"]),
        keep=st.none() | st.integers(1, 7),
        width=st.integers(1, 5),
        block=st.sampled_from([ctc._BLOCK_SIZE, 1, 5]),
    )
    def test_bounds_contain_exact(self, seed, t, v, shape, keep, width, block):
        # lower <= exact <= upper on every pair, all three -inf together,
        # and the EOS column exact, from the empty prefix to S >= T, with
        # B > 1 states and survivors that repeat their parent's last label;
        # small blocks split the exact folds and the peak pass over several
        # blocks of pairs.  With only label 1 and blank to emit, every
        # survivor past the first repeats label 1, and from 3 frames on some
        # such pair has a finite fold
        with mock.patch.object(ctc, "_BLOCK_SIZE", block):
            repeats = self.check_bounds(seed, t, v, shape, keep, width)
        if shape == "repeats" and t >= 3 and (keep is None or keep >= 2):
            assert repeats > 0

    def check_bounds(self, seed, t, v, shape, keep, width):
        rng = np.random.default_rng(seed)
        if shape == "uniform":  # many near-equal terms per pair
            pg = make_pg(np.full((t, v), 1 / v))
        elif shape == "repeats":  # label 1 and blank take turns as the likelier
            one = rng.uniform(0.5, 0.95, size=t)
            one[1::2] = 1.0 - one[1::2]
            probs = np.zeros((t, v))
            probs[:, 1], probs[:, BLANK] = one, 1.0 - one
            with np.errstate(divide="ignore"):
                pg = make_pg(probs)
        else:
            alpha = 1.0 if shape == "dirichlet" else 0.05
            with np.errstate(divide="ignore"):  # peaked rows may hold exact zeros
                pg = Posteriorgram(np.log(rng.dirichlet(np.full(v, alpha), size=t)))
        if keep is not None:  # pruned labels are -inf in every frame
            pg = topk_prune(pg, min(keep, v), BLANK)
        sc = self.scorer(pg)
        cands = list(range(1, v)) + [self.EOS]
        states = sc.initial_state()
        repeats = 0  # finite pairs that repeat their row's last label
        for _ in range(t + 2):
            lower, upper, step = sc.step(states, cands)
            exact = exact_matrix(sc, step, lower.shape)
            repeats += np.count_nonzero((states.last[:, None] == cands[:-1]) & (exact[:, :-1] > NEG_INF))
            assert not np.any(np.isnan(lower) | np.isnan(upper) | np.isnan(exact))
            assert np.all(lower <= exact) and np.all(exact <= upper)
            assert np.array_equal(np.isneginf(lower), np.isneginf(exact))
            assert np.array_equal(np.isneginf(upper), np.isneginf(exact))
            assert np.array_equal(lower[:, -1], exact[:, -1])
            assert np.array_equal(upper[:, -1], exact[:, -1])
            # survivors among the finite plain pairs, repeats first
            rows, cols = np.nonzero(exact[:, :-1] > NEG_INF)
            if rows.size == 0:
                break
            repeated = states.last[rows] == np.array(cands)[cols]
            order = np.concatenate(
                [rng.permutation(np.flatnonzero(repeated)), rng.permutation(np.flatnonzero(~repeated))]
            )[:width]
            states = sc.advance(step, rows[order], cols[order])
        return repeats

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        v=st.integers(3, 7),
        scale=st.sampled_from([0.0, 1.0, 30.0, 1500.0]),
        keep=st.none() | st.integers(1, 6),
        certain=st.booleans(),
        width=st.integers(1, 6),
    )
    def test_log_sum_exp_bounds_tight(self, seed, lengths, v, scale, keep, certain, width):
        # lower <= exact <= upper and all three -inf together, on U >= 1
        # padded posteriorgrams with -0.0 frames and pruned supports; at
        # scale 1500 the forward variables fall to about -1e4, so the
        # scaled sum G underflows.  Only those pairs may take the loose
        # bound of their largest term: every other pair's bounds are within
        # 1e-6 relative of each other, and a repeated label's (its phi is
        # log_blank) within 1e-6 nats.
        rng = np.random.default_rng(seed)
        pgs = []
        for t in lengths:
            lp = scale * rng.standard_normal((t, v))
            lp -= np.array([logsumexp(row) for row in lp])[:, None]
            if certain:  # a certain frame stored as -0.0
                frame = rng.integers(t)
                lp[frame] = NEG_INF
                lp[frame, rng.integers(v)] = -0.0
            pg = Posteriorgram(lp)
            pgs.append(pg if keep is None else topk_prune(pg, min(keep, v), BLANK))
        sc = CtcPrefixScorer(pgs, BLANK, self.EOS)
        cands = list(range(1, v)) + [self.EOS]
        labels = np.array(cands[:-1])
        peaks = [pg.log_probs[:, labels].max(axis=0) for pg in pgs]  # m_col
        states = sc.initial_state()
        for _ in range(max(lengths) + 2):
            lower, upper, step = sc.step(states, cands)
            exact = exact_matrix(sc, step, lower.shape)
            assert np.all(lower <= exact) and np.all(exact <= upper)
            assert np.array_equal(np.isneginf(lower), np.isneginf(exact))
            assert np.array_equal(np.isneginf(upper), np.isneginf(exact))
            S = states.length
            log_sum = np.logaddexp(states.log_nonblank, states.log_blank)
            for b, u in enumerate(states.utt.tolist()):
                end = pgs[u].num_frames
                if end <= S:
                    continue
                # phi[t - 1] at the frames t in [S, end), 0 first at S = 0
                phi = log_sum[S - 1 : end - 1, b] if S else np.append(0.0, log_sum[: end - 1, b])
                repeated = states.last[b] == labels
                m_row = np.where(repeated, states.log_blank[S - 1 : end - 1, b].max() if S else 0.0, phi.max())
                row = exact[b, :-1]
                sure = row > NEG_INF
                # m_row + m_col + log G = row, and G > 2**-900 with a margin
                sure[sure] = row[sure] - m_row[sure] - peaks[u][sure] > -600.0
                gap = upper[b, :-1][sure] - lower[b, :-1][sure]
                assert np.all(gap <= 1e-6 * (1.0 + np.abs(row[sure])))
                assert np.all(gap[repeated[sure]] <= 1e-6)
            rows, cols = np.nonzero(exact[:, :-1] > NEG_INF)
            if rows.size == 0:
                break
            repeated = states.last[rows] == labels[cols]
            order = np.concatenate(
                [rng.permutation(np.flatnonzero(repeated)), rng.permutation(np.flatnonzero(~repeated))]
            )[:width]
            states = sc.advance(step, rows[order], cols[order])

    def test_underflowing_sum_takes_peak_bound(self):
        # the label's mass and the prefix's sit 3000 nats apart in every
        # frame: G = exp(-3000) underflows, and the pair's bounds are those
        # of its largest term
        lp = np.full((3, 3), -3000.0)
        lp[[0, 1, 2], [1, BLANK, 2]] = 0.0
        sc = self.scorer(Posteriorgram(lp))
        with mock.patch.object(ctc, "log_add_bounds", wraps=ctc.log_add_bounds) as spy:
            lower, upper, step = sc.step(sc.initial_state(), [2])
        assert spy.called
        exact = sc.exact(step, [0], [0])
        peak = max(lp[0, 2], lp[0, BLANK] + lp[1, 2], lp[0, BLANK] + lp[1, BLANK] + lp[2, 2])
        assert lower[0, 0] == peak <= exact[0] <= upper[0, 0] < peak + 2.0


def late_pg(t, v, label, other):
    """A (t, v) posteriorgram that emits ``label`` almost surely in its last
    frame and with probability e^-700 before it, where ``other`` and blank
    share the mass: the prefix (label,) has a log_sum[t - 1] some 700 nats
    above its earlier frames'."""
    lp = np.full((t, v), NEG_INF)
    lp[:, [label, BLANK, other]] = -700.0
    lp[:-1, [BLANK, other]] = math.log(0.5)
    lp[-1, label] = 0.0
    return Posteriorgram(lp)


class TestLockstepBounds:
    EOS = 99

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 10), min_size=1, max_size=3),
        late=st.integers(2, 6),
        keep=st.none() | st.integers(1, 3),
        width=st.integers(2, 12),
    )
    def test_shuffled_lockstep_rows(self, seed, lengths, late, keep, width):
        # 2-4 posteriorgrams of different lengths with disjoint label
        # supports, one a late_pg that a longer one pads, rows shuffled out
        # of utterance order: lower <= exact <= upper, all three -inf
        # together, EOS exact, every pair whose G does not underflow within
        # the 1e-6 of test_log_sum_exp_bounds_tight (a peak taken over the
        # late_pg's padded frames breaks that), and each utterance's rows
        # bit for bit those of a scorer over its posteriorgram alone
        rng = np.random.default_rng(seed)
        U = len(lengths) + 1
        v = 2 * U + 2
        lengths[0] = max(lengths[0], late + 1)
        pgs = []
        for u, t in enumerate(lengths):
            support = [BLANK, 1 + u, 1 + u + U]  # labels of its own
            lp = np.full((t, v), NEG_INF)
            lp[:, support] = np.log(rng.dirichlet(np.ones(3), size=t))
            pg = Posteriorgram(lp)
            pgs.append(pg if keep is None else topk_prune(pg, keep + 1, BLANK))
        late_label = v - 2
        pgs.insert(int(rng.integers(U)), late_pg(late, v, late_label, v - 1))
        sc = CtcPrefixScorer(pgs, BLANK, self.EOS)
        alone = [CtcPrefixScorer(pg, BLANK, self.EOS) for pg in pgs]
        cands = np.array(list(range(1, v)) + [self.EOS])
        m_col = [pg.log_probs[:, cands[:-1]].max(axis=0) for pg in pgs]
        states = sc.initial_state()
        for _ in range(max(lengths) + 1):
            S = states.length
            lower, upper, step = sc.step(states, cands)
            exact = exact_matrix(sc, step, lower.shape)
            assert np.all(lower <= exact) and np.all(exact <= upper)
            assert np.array_equal(np.isneginf(lower), np.isneginf(exact))
            assert np.array_equal(np.isneginf(upper), np.isneginf(exact))
            assert lower[:, -1].tobytes() == exact[:, -1].tobytes() == upper[:, -1].tobytes()
            for u, pg in enumerate(pgs):
                mine = np.flatnonzero(states.utt == u)
                end = pg.num_frames
                own = [a[:end, mine] for a in (states.log_nonblank, states.log_blank, states.log_sum)]
                one = PrefixStates(S, 0 * mine, states.last[mine], *own, states.log_prefix_prob[mine])
                lo1, hi1, _ = alone[u].step(one, cands)
                assert lo1.tobytes() == lower[mine].tobytes() and hi1.tobytes() == upper[mine].tobytes()
                for b in mine.tolist() if end > S else []:
                    # m_row + m_col + log G is the exact score, m_row the
                    # peak over the row's own frames; G > 2**-900 with a margin
                    phi = states.log_sum[max(S - 1, 0) : end - 1, b]
                    phi = np.append(0.0, phi) if S == 0 else phi  # the leading term 0
                    blank = states.log_blank[S - 1 : end - 1, b].max() if S else 0.0
                    m_row = np.where(states.last[b] == cands[:-1], blank, phi.max())
                    row = exact[b, :-1]
                    sure = row > NEG_INF
                    sure[sure] = row[sure] - m_row[sure] - m_col[u][sure] > -600.0
                    gap = upper[b, :-1][sure] - lower[b, :-1][sure]
                    assert np.all(gap <= 1e-6 * (1.0 + np.abs(row[sure])))
            rows, cols = np.nonzero(exact[:, :-1] > NEG_INF)
            if rows.size == 0:
                break
            # survivors in a random order; the late_pg's (late_label,) is one
            first = np.flatnonzero((S == 0) & (cands[cols] == late_label))
            order = np.concatenate([first, rng.permutation(np.setdiff1d(np.arange(rows.size), first))])
            order = rng.permutation(order[: max(width, first.size)])
            states = sc.advance(step, rows[order], cols[order])


class TestMergeIndices:
    """The confident-argmax runs that compress_posteriors merges."""

    def test_spec_pattern(self):
        # argmax runs [a,a,blank,b,b] with probs [.95,.96,.99,.80,.97]
        pg = make_pg([
            [0.03, 0.95, 0.02],
            [0.02, 0.96, 0.02],
            [0.99, 0.005, 0.005],
            [0.10, 0.10, 0.80],
            [0.01, 0.02, 0.97],
        ])
        out = compress_posteriors(pg, 0.9)
        assert out.num_frames == 4
        pooled = np.maximum(pg.log_probs[0], pg.log_probs[1])
        np.testing.assert_allclose(out.log_probs[0], pooled - logsumexp(pooled), atol=1e-12)
        np.testing.assert_allclose(out.log_probs[1:], pg.log_probs[2:], atol=1e-12)

    def test_unreachable_threshold_is_identity(self):
        rng = np.random.default_rng(2)
        pg = random_pg(rng, 6, 3)
        assert compress_posteriors(pg, 1.5) is pg
        assert compress_posteriors(pg, math.inf) is pg

    def test_full_merge(self):
        pg = make_pg([[0.05, 0.95, 0.0 + 1e-12], [0.04, 0.95, 0.01], [0.03, 0.96, 0.01]])
        out = compress_posteriors(pg, 0.9)
        assert out.num_frames == 1
        np.testing.assert_allclose(
            np.exp(out.log_probs), [np.array([0.05, 0.96, 0.01]) / 1.02], atol=1e-12
        )


class TestCompressPosteriors:
    def test_identity_map(self):
        # one frame has no neighbour to merge with, however confident
        pg = make_pg([[0.5, 0.3, 0.2]])
        assert compress_posteriors(pg, 0.4) is pg

    def test_max_pool_then_renormalize(self):
        pg = make_pg([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1]])
        out = compress_posteriors(pg, 0.5)
        np.testing.assert_allclose(
            np.exp(out.log_probs), [[0.7 / 1.1, 0.3 / 1.1, 0.1 / 1.1]], atol=1e-12
        )

    def test_rows_normalized(self):
        rng = np.random.default_rng(4)
        pg = random_pg(rng, 6, 4)
        out = compress_posteriors(pg, 0.2)
        for row in out.log_probs:
            assert logsumexp(row) == pytest.approx(0.0, abs=1e-12)


class TestTopkPrune:
    def test_k_equals_v_is_noop(self):
        rng = np.random.default_rng(6)
        pg = random_pg(rng, 4, 5)
        assert topk_prune(pg, 5, BLANK) is pg

    def test_spec_example(self):
        pg = make_pg([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        # labels: 0=a, 1=b, 2=blank; s_max = (0.7, 0.3, 0.6) keeps {a, blank}
        out = topk_prune(pg, 2, blank_id=2)
        np.testing.assert_allclose(
            np.exp(out.log_probs), [[0.875, 0.0, 0.125], [0.1 / 0.7, 0.0, 0.6 / 0.7]], atol=1e-12
        )

    def test_k1_keep_blank_forces_blank_only(self):
        pg = make_pg([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        out = topk_prune(pg, 1, BLANK)
        assert greedy_decode(out, BLANK) == []
        np.testing.assert_allclose(np.exp(out.log_probs[:, BLANK]), 1.0)

    def test_k_out_of_range(self):
        pg = make_pg([[0.5, 0.5, 0.0 + 1e-12]])
        for k in (0, 4):
            with pytest.raises(ValueError):
                topk_prune(pg, k, BLANK)

    def test_renormalized_rows(self):
        rng = np.random.default_rng(8)
        pg = random_pg(rng, 5, 6)
        out = topk_prune(pg, 3, BLANK)
        for row in out.log_probs:
            assert logsumexp(row) == pytest.approx(0.0, abs=1e-12)
        assert len(kept_labels(out)) == 3

    def test_greedy_unchanged_when_argmaxes_kept(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pg = random_pg(rng, 5, 5)
            out = topk_prune(pg, 4, BLANK)
            argmaxes = set(np.argmax(pg.log_probs, axis=1).tolist())
            if argmaxes <= set(kept_labels(out).tolist()):
                assert greedy_decode(out, BLANK) == greedy_decode(pg, BLANK)

    def test_tie_prefers_lower_id(self):
        # labels 1 and 2 tie; 1 takes the slot that blank does not
        pg = make_pg([[0.2, 0.4, 0.4]])
        out = topk_prune(pg, 2, BLANK)
        assert kept_labels(out).tolist() == [0, 1]

    def test_fully_pruned_frame_becomes_blank(self):
        # one-hot rows: frame 1's label is dropped at k=2, its mass moves to blank
        lp = np.full((3, 4), NEG_INF)
        lp[0, 1] = 0.0
        lp[1, 2] = 0.0
        lp[2, 1] = 0.0
        pg = Posteriorgram(lp)
        out = topk_prune(pg, 2, BLANK)
        assert kept_labels(out).tolist() == [0, 1]
        np.testing.assert_array_equal(out.log_probs[1, BLANK], 0.0)
        assert greedy_decode(out, BLANK) == [1, 1]


@st.composite
def pruned_posteriorgrams(draw):
    """A random posteriorgram whose runs of repeated rows may merge, with
    pruned (-inf) entries; every row and every label keeps a finite one."""
    t, v = draw(st.integers(1, 9)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(size=(t, v)) * draw(st.sampled_from([0.5, 3.0, 12.0]))
    for i in range(1, t):
        if rng.random() < draw(st.sampled_from([0.0, 0.5, 0.9])):
            logits[i] = logits[i - 1] + rng.normal(size=v) * 0.1
    dropped = rng.random((t, v)) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    dropped[np.arange(t), rng.integers(0, v, t)] = False
    dropped[rng.integers(0, t, v), np.arange(v)] = False
    logits[dropped] = NEG_INF
    return Posteriorgram(logits - logsumexp_rows(logits)[:, None])


class TestPreparationProperties:
    """Compression and top-k pruning on random posteriorgrams with pruned
    entries, warnings as errors."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        pg=pruned_posteriorgrams(),
        above=st.floats(1.0, math.inf, exclude_min=True),
        blank=st.integers(0, 5),
    )
    def test_no_op_returns_input(self, pg, above, blank):
        assert compress_posteriors(pg, above) is pg
        assert topk_prune(pg, pg.num_labels, blank % pg.num_labels) is pg

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(pg=pruned_posteriorgrams(), threshold=st.floats(0.05, 1.0))
    def test_compression_equals_frame_by_frame_reference(self, pg, threshold):
        out = compress_posteriors(pg, threshold)
        np.testing.assert_array_equal(out.log_probs, compressed_log_probs(pg, threshold))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(pg=pruned_posteriorgrams(), k=st.integers(1, 6), blank=st.integers(0, 5))
    def test_topk_keeps_k_labels_with_blank(self, pg, k, blank):
        k, blank = min(k, pg.num_labels), blank % pg.num_labels
        out = topk_prune(pg, k, blank)
        kept = kept_labels(out).tolist()
        assert len(kept) == k and blank in kept
        np.testing.assert_allclose(logsumexp_rows(out.log_probs), 0.0, atol=1e-12)
