import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import char2subword as c2s
import reference
from char2subword import evaluation, model as M, training
from char2subword.noise import NoiseConfig, default_layouts, sample_noisy
from char2subword.objectives import LossWeights, build_neighbor_index
from char2subword.training import (
    MaskedToken,
    MaskingPlan,
    TrainConfig,
    TrainingError,
    apply_masking,
    corpus_samples,
    make_masking_plan,
    mlm_step,
    pretrain_mlm,
    simulation_sample_loss,
    train_simulation,
)
from char2subword.vocab import MASK_CHAR_INDEX, UNK, char_sequence


@pytest.fixture
def alphabet(toy_vocab):
    return c2s.build_alphabet(toy_vocab)


@pytest.fixture
def params(tiny_config, alphabet):
    return M.init_params(tiny_config, len(alphabet), seed=0)


class TestTrainConfig:
    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, seed=0, batch_size=0)

    def test_bad_lr(self):
        for lr in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
                TrainConfig(epochs=1, seed=0, lr=lr)

    def test_bad_nbr_k(self):
        with pytest.raises(ValueError, match="nbr_k must be >= 1"):
            TrainConfig(epochs=1, seed=0, nbr_k=0)

    def test_negative_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1, seed=0)


class TestSimulationSampleLoss:
    def test_loss_and_grads_finite(self, params, toy_table, alphabet):
        idx = build_neighbor_index(toy_table, 5)
        seq = char_sequence("apple", False, alphabet)
        total, parts, grads = simulation_sample_loss(
            params, seq, 0, toy_table, idx, LossWeights())
        assert np.isfinite(total)
        assert set(parts) == {"cos", "ce", "l2", "nbr"}
        assert set(grads) == set(params.tensors)


class TestTrainSimulation:
    def test_zero_epochs_is_identity(self, params, toy_vocab, toy_table, alphabet):
        cfg = TrainConfig(epochs=0, seed=0)
        out, metrics = train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        assert metrics == []
        for name in params.tensors:
            assert np.array_equal(out.tensors[name], params.tensors[name])

    def test_input_params_untouched(self, params, toy_vocab, toy_table, alphabet):
        before = {k: v.copy() for k, v in params.tensors.items()}
        cfg = TrainConfig(epochs=1, seed=0)
        train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        for name, tensor in before.items():
            assert np.array_equal(params.tensors[name], tensor)

    def test_deterministic_per_seed(self, params, toy_vocab, toy_table, alphabet):
        cfg = TrainConfig(epochs=2, seed=5)
        out1, m1 = train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        out2, m2 = train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        for name in out1.tensors:
            assert np.array_equal(out1.tensors[name], out2.tensors[name])
        for a, b in zip(m1, m2):
            assert a["total"] == b["total"]

    def test_loss_decreases(self, params, toy_vocab, toy_table, alphabet):
        cfg = TrainConfig(epochs=8, seed=1)
        _, metrics = train_simulation(params, toy_vocab, toy_table, alphabet, cfg,
                                      eval_every=0)
        assert metrics[-1]["total"] < metrics[0]["total"]

    def test_table_left_frozen(self, params, toy_vocab, toy_table, alphabet):
        before = toy_table.matrix.copy()
        cfg = TrainConfig(epochs=1, seed=0)
        train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        np.testing.assert_array_equal(toy_table.matrix, before)

    def test_one_ranking_serves_both_indexes(self, params, toy_vocab, toy_table, alphabet,
                                             monkeypatch):
        cfg = TrainConfig(epochs=2, seed=4)
        given = train_simulation(params, toy_vocab, toy_table, alphabet, cfg,
                                 index=build_neighbor_index(toy_table, cfg.nbr_k))
        depths, real = [], training.build_neighbor_index
        monkeypatch.setattr(training, "build_neighbor_index",
                            lambda t, k: depths.append(k) or real(t, k))
        built = train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        assert depths == [evaluation.EVAL_K]
        np.testing.assert_array_equal(built[0].flat, given[0].flat)
        assert built[1] == given[1]

    def test_metrics_fields(self, params, toy_vocab, toy_table, alphabet):
        cfg = TrainConfig(epochs=2, seed=3)
        _, metrics = train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        assert len(metrics) == 2
        for rec in metrics:
            for key in ("epoch", "total", "cos", "ce", "l2", "nbr",
                        "accuracy", "prec1", "prec15"):
                assert key in rec

    def test_width_mismatch_rejected(self, params, toy_vocab, alphabet):
        rng = np.random.default_rng(0)
        narrow = c2s.EmbeddingTable(matrix=rng.normal(size=(len(toy_vocab), 8)))
        with pytest.raises(ValueError, match="width"):
            train_simulation(params, toy_vocab, narrow, alphabet,
                             TrainConfig(epochs=1, seed=0))

    def test_noise_changes_trajectory(self, params, toy_vocab, toy_table, alphabet):
        noise = NoiseConfig(layouts=tuple(default_layouts()), p_noise=1.0)
        clean_cfg = TrainConfig(epochs=1, seed=0)
        noisy_cfg = TrainConfig(epochs=1, seed=0, noise=noise)
        out_c, _ = train_simulation(params, toy_vocab, toy_table, alphabet, clean_cfg)
        out_n, _ = train_simulation(params, toy_vocab, toy_table, alphabet, noisy_cfg)
        assert not np.array_equal(out_c.tensors["We"], out_n.tensors["We"])


class TestSharedLoop:
    def test_non_finite_loss_names_epoch_and_step(self, params, toy_vocab, toy_table,
                                                  alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        params.tensors["We"][0, 0] = np.nan
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch 0, step \d+"):
            train_simulation(params, toy_vocab, toy_table, alphabet,
                             TrainConfig(epochs=1, seed=0), eval_every=0)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch 0, step \d+"):
            pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet,
                         TrainConfig(epochs=1, seed=0))

    def test_non_finite_loss_names_the_adam_step(self, params, toy_vocab, toy_table,
                                                 alphabet, monkeypatch):
        # the epoch's third batch is Adam step 2, not a sample's or a line's position
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        real_batch_loss, calls = training.batch_loss, []

        def nan_on_third_call(*args):
            calls.append(None)
            totals, parts, grads = real_batch_loss(*args)
            if len(calls) == 3:
                totals = np.full_like(totals, np.nan)
            return totals, parts, grads

        monkeypatch.setattr(training, "batch_loss", nan_on_third_call)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"] * 6)
        cfg = TrainConfig(epochs=1, seed=0, batch_size=2)
        for run in (lambda: train_simulation(params, toy_vocab, toy_table, alphabet, cfg,
                                             eval_every=0),
                    lambda: pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet,
                                         cfg)):
            calls.clear()
            with pytest.raises(TrainingError, match=r"non-finite loss at epoch 0, step 2, "):
                run()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_parameters_name_the_epoch(self, params, toy_vocab, toy_table,
                                                  alphabet, monkeypatch):
        # one Adam step per epoch, so no loss is computed after it; rows of norm 10
        # give gradient entries above 1.8, so lr * m overflows in that step
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        table = c2s.EmbeddingTable(matrix=10.0 * toy_table.matrix)
        cfg = TrainConfig(epochs=2, seed=0, lr=1e308, batch_size=64)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        for run in (lambda: train_simulation(params, toy_vocab, table, alphabet, cfg),
                    lambda: pretrain_mlm(params, sequences, toy_vocab, table, alphabet, cfg)):
            with pytest.raises(TrainingError,
                               match="non-finite parameters after the last step of epoch 0"):
                run()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_but_huge_parameters_fail_after_training(self, params, toy_vocab,
                                                            toy_table, alphabet, monkeypatch):
        # unit rows keep every gradient entry below 1.8, so Adam's steps of about
        # lr leave the parameters finite; MLM's epoch records run no forward pass
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        with pytest.raises(TrainingError, match="non-finite output after the last step"):
            pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet,
                         TrainConfig(epochs=1, seed=0, lr=1e308))

    @pytest.mark.parametrize("epochs, select_p, passes", [
        (0, 1.0, []), (1, 0.0, []), (2, 1.0, [3, 3, 1])])
    def test_output_check_runs_once_after_the_last_step(self, params, toy_vocab, toy_table,
                                                        alphabet, monkeypatch, epochs,
                                                        select_p, passes):
        # each epoch's one Adam step runs one 3-sequence pass; then the check runs
        # one pass on one sequence, unless no step ran
        monkeypatch.setattr(training, "SELECT_P", select_p)
        seen, real = [], M.forward_batch
        monkeypatch.setattr(M, "forward_batch",
                            lambda p, seqs: seen.append(len(seqs)) or real(p, seqs))
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet,
                     TrainConfig(epochs=epochs, seed=0))
        assert seen == passes

    def test_table_vocab_size_mismatch_rejected(self, params, toy_vocab, toy_table,
                                                alphabet):
        short = c2s.EmbeddingTable(matrix=toy_table.matrix[:-1])
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        cfg = TrainConfig(epochs=1, seed=0)
        for run in (lambda: train_simulation(params, toy_vocab, short, alphabet, cfg),
                    lambda: pretrain_mlm(params, sequences, toy_vocab, short, alphabet, cfg)):
            with pytest.raises(ValueError, match="table has 49 rows but vocabulary has 50"):
                run()

    def test_a_table_write_raises_where_it_happens(self, params, toy_vocab, toy_table,
                                                   alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        real = training.loss_and_grad

        def writing(ids, e_hat, e_table, *rest):
            e_table.matrix[ids[0]] += 1.0
            return real(ids, e_hat, e_table, *rest)

        monkeypatch.setattr(training, "loss_and_grad", writing)
        before = toy_table.matrix.copy()
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        with pytest.raises(ValueError, match="read-only"):
            pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)
        np.testing.assert_array_equal(toy_table.matrix, before)

    def test_training_never_hashes_the_table(self, params, toy_vocab, toy_table, alphabet,
                                             monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)

        def no_hash(self):
            raise AssertionError("training hashed the table")

        monkeypatch.setattr(c2s.EmbeddingTable, "checksum", no_hash)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        cfg = TrainConfig(epochs=2, seed=0)
        _, sim = train_simulation(params, toy_vocab, toy_table, alphabet, cfg)
        _, mlm = pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)
        assert len(sim) == len(mlm) == 2

    def test_trained_tensors_are_views_of_flat(self, params, toy_vocab, toy_table,
                                               alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        cfg = TrainConfig(epochs=1, seed=0)
        trained = [train_simulation(params, toy_vocab, toy_table, alphabet, cfg,
                                    eval_every=0)[0],
                   pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)[0]]
        for out in trained:
            assert not np.shares_memory(out.flat, params.flat)
            for name, tensor in out.tensors.items():
                assert np.shares_memory(tensor, out.flat), name


class TestMaskingPlan:
    def _seqs(self, alphabet, tokens):
        return [char_sequence(t, False, alphabet) for t in tokens]

    def test_selection_rate(self, alphabet):
        rng = random.Random(0)
        seqs = self._seqs(alphabet, ["apple"]) * 1
        n_sel = 0
        for _ in range(20000):
            plan = make_masking_plan([3], seqs, rng)
            n_sel += len(plan)
        assert abs(n_sel / 20000 - 0.15) < 0.01

    def test_action_rates(self, alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        rng = random.Random(1)
        seqs = self._seqs(alphabet, ["apple", "badge", "alarm"])
        counts = {"mask": 0, "randomize": 0, "keep": 0}
        for _ in range(20000):
            plan = make_masking_plan([0, 1, 2], seqs, rng)
            for entry in plan.entries:
                for a in entry.actions:
                    counts[a] += 1
        total = sum(counts.values())
        assert abs(counts["mask"] / total - 0.8) < 0.01
        assert abs(counts["randomize"] / total - 0.1) < 0.01
        assert abs(counts["keep"] / total - 0.1) < 0.01

    def test_actions_cover_all_chars(self, alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        seqs = self._seqs(alphabet, ["apple"])
        plan = make_masking_plan([0], seqs, random.Random(2))
        assert len(plan.entries[0].actions) == len(seqs[0])

    def test_misaligned_inputs_rejected(self, alphabet):
        with pytest.raises(ValueError):
            make_masking_plan([0, 1], self._seqs(alphabet, ["apple"]), random.Random(0))


class TestApplyMasking:
    def test_mask_action_writes_mask_char(self, alphabet):
        seq = char_sequence("apple", False, alphabet)
        plan = MaskingPlan(entries=(
            MaskedToken(position=0, target_id=0,
                            actions=("mask",) * len(seq)),))
        (masked,) = apply_masking(plan, [seq], alphabet, random.Random(0))
        assert masked == (MASK_CHAR_INDEX,) * len(seq)

    def test_randomize_never_keeps_original(self, alphabet):
        seq = char_sequence("apple", False, alphabet)
        plan = MaskingPlan(entries=(
            MaskedToken(position=0, target_id=0,
                            actions=("randomize",) * len(seq)),))
        rng = random.Random(3)
        for _ in range(100):
            (masked,) = apply_masking(plan, [seq], alphabet, rng)
            for orig, new in zip(seq, masked, strict=True):
                assert new != orig
                assert new in alphabet.ordinary_indices()

    def test_keep_is_identity(self, alphabet):
        seq = char_sequence("apple", False, alphabet)
        plan = MaskingPlan(entries=(
            MaskedToken(position=0, target_id=0,
                            actions=("keep",) * len(seq)),))
        (masked,) = apply_masking(plan, [seq], alphabet, random.Random(0))
        assert masked == seq


class TestMlmStep:
    def test_empty_selection_zero_grads(self, params, toy_table):
        loss, grads = mlm_step(params, [], [], toy_table)
        assert loss == 0.0
        assert list(grads) == list(params.tensors)
        for name, g in grads.items():
            assert g.shape == params.tensors[name].shape
            assert np.all(g == 0.0)

    def test_loss_is_mean_ce(self, params, toy_table, alphabet):
        seqs = [char_sequence("apple", False, alphabet),
                char_sequence("badge", False, alphabet)]
        loss2, _ = mlm_step(params, seqs, [0, 1], toy_table)
        la, _ = mlm_step(params, seqs[:1], [0], toy_table)
        lb, _ = mlm_step(params, seqs[1:], [1], toy_table)
        assert loss2 == pytest.approx((la + lb) / 2)

    def test_target_out_of_range(self, params, toy_table, alphabet):
        seq = char_sequence("apple", False, alphabet)
        with pytest.raises(IndexError):
            mlm_step(params, [seq], [toy_table.size], toy_table)


class TestCorpusSamples:
    def test_single_piece_full_word(self, toy_vocab, alphabet):
        ((ids, seqs),) = corpus_samples(toy_vocab, alphabet, ["apple badge"])
        assert ids == [toy_vocab.id_of["apple"], toy_vocab.id_of["badge"]]
        # full words carry the prepended marker characters
        assert seqs == [char_sequence("apple", True, alphabet),
                        char_sequence("badge", True, alphabet)]
        assert alphabet.char(seqs[0][0]) == "#"

    def test_oov_keeps_surface_with_unk_target(self, toy_vocab, alphabet):
        ((ids, seqs),) = corpus_samples(toy_vocab, alphabet, ["zzzzz"])
        assert ids == [toy_vocab.id_of[UNK]]
        assert seqs == [char_sequence("zzzzz", True, alphabet)]

    def test_blank_lines_skipped(self, toy_vocab, alphabet):
        assert corpus_samples(toy_vocab, alphabet, ["", "   "]) == []

    def test_each_distinct_word_tokenized_once(self, toy_vocab, alphabet, monkeypatch):
        words = []
        tokenize = training.tokenize_word
        monkeypatch.setattr(training, "tokenize_word",
                            lambda vocab, word: words.append(word) or tokenize(vocab, word))
        lines = ["apple badge apple", "zzzzz apple\tzzzzz"]
        first, second = corpus_samples(toy_vocab, alphabet, lines)
        assert words == ["apple", "badge", "zzzzz"]
        assert [first, second] == reference.corpus_samples(toy_vocab, alphabet, lines)
        # each line has lists of its own
        assert first[0] is not second[0] and first[1] is not second[1]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_occurrence_reference(self, data):
        pieces = data.draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                                    min_size=1, max_size=6, unique=True))
        vocab = c2s.load_vocabulary(dict.fromkeys([UNK, *pieces, *("##" + p for p in pieces)]))
        alphabet = c2s.build_alphabet(vocab)
        # "x" and "é" are out of the alphabet, so words holding them are OOV
        words = data.draw(st.lists(st.text(alphabet="abcxé#", min_size=1, max_size=12),
                                   min_size=1, max_size=5))
        line = st.tuples(st.lists(st.sampled_from(words), max_size=8),
                         st.sampled_from([" ", "  ", "\t", "\u3000"]))
        lines = [sep.join(ws) for ws, sep in data.draw(st.lists(line, max_size=6))]
        max_chars = data.draw(st.integers(1, 8))
        assert (corpus_samples(vocab, alphabet, lines, max_chars=max_chars)
                == reference.corpus_samples(vocab, alphabet, lines, max_chars=max_chars))


class TestPretrainMlm:
    def test_empty_corpus_rejected(self, params, toy_vocab, toy_table, alphabet):
        with pytest.raises(TrainingError):
            pretrain_mlm(params, [], toy_vocab, toy_table, alphabet,
                         TrainConfig(epochs=1, seed=0))

    def test_runs_and_reports(self, params, toy_vocab, toy_table, alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 0.9)
        sequences = corpus_samples(toy_vocab, alphabet,
                                   ["apple badge alarm", "black blade blank berry"])
        cfg = TrainConfig(epochs=3, seed=0)
        out, metrics = pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)
        assert len(metrics) == 3
        assert all(m["selected"] > 0 for m in metrics)
        assert not np.array_equal(out.tensors["We"], params.tensors["We"])

    def test_deterministic(self, params, toy_vocab, toy_table, alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 0.9)
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge alarm"])
        cfg = TrainConfig(epochs=2, seed=9)
        o1, m1 = pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)
        o2, m2 = pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)
        for name in o1.tensors:
            assert np.array_equal(o1.tensors[name], o2.tensors[name])
        assert [m["mlm_loss"] for m in m1] == [m["mlm_loss"] for m in m2]

    def test_table_left_frozen(self, params, toy_vocab, toy_table, alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        before = toy_table.matrix.copy()
        sequences = corpus_samples(toy_vocab, alphabet, ["apple badge"])
        pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet,
                     TrainConfig(epochs=1, seed=0))
        np.testing.assert_array_equal(toy_table.matrix, before)


def spy_adam_steps(monkeypatch):
    """Record a copy of the gradients handed to every Adam step."""
    seen = []
    step = training._Adam.step

    def spy(self, params, grads):
        seen.append({k: g.copy() for k, g in grads.tensors.items()})
        return step(self, params, grads)

    monkeypatch.setattr(training._Adam, "step", spy)
    return seen


class TestBatchedSteps:
    def test_simulation_step_is_mean_of_sample_losses(self, params, toy_vocab, toy_table,
                                                       alphabet, monkeypatch):
        noise = NoiseConfig(layouts=tuple(default_layouts()), p_noise=1.0)
        cfg = TrainConfig(epochs=1, seed=6, batch_size=8, noise=noise)
        seen = spy_adam_steps(monkeypatch)
        train_simulation(params, toy_vocab, toy_table, alphabet, cfg, eval_every=0)
        # replay the noise draws in sample order through the batch-of-one path
        idx = build_neighbor_index(toy_table, 5)
        rng = random.Random(cfg.seed)
        order = list(toy_vocab.non_special_ids())
        rng.shuffle(order)
        ref, changed = None, 0
        for i in order[:cfg.batch_size]:
            noised = sample_noisy(toy_vocab.token(i), rng, noise)
            changed += noised != toy_vocab.token(i)
            seq = char_sequence(noised, False, alphabet)
            _, _, g = simulation_sample_loss(params, seq, i, toy_table, idx, cfg.weights)
            ref = g if ref is None else {k: ref[k] + g[k] for k in ref}
        assert changed > 0
        for name, g in seen[0].items():
            np.testing.assert_allclose(g, ref[name] / cfg.batch_size, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_pretrain_step_is_mean_of_per_line_mlm_steps(self, params, toy_vocab, toy_table,
                                                         alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 0.5)
        lines = ["apple badge alarm", "black blade blank berry", "zzzzz apple",
                 "about above actor", "beach beard begin"]
        sequences = corpus_samples(toy_vocab, alphabet, lines)
        cfg = TrainConfig(epochs=1, seed=4)  # batch_size 32 > 5 lines: one Adam step
        seen = spy_adam_steps(monkeypatch)
        pretrain_mlm(params, sequences, toy_vocab, toy_table, alphabet, cfg)
        assert len(seen) == 1
        rng = random.Random(cfg.seed)
        order = list(range(len(sequences)))
        rng.shuffle(order)
        line_grads = []
        for si in order:
            ids, seqs = sequences[si]
            plan = make_masking_plan(ids, seqs, rng)
            masked = apply_masking(plan, seqs, alphabet, rng)
            if plan.entries:
                targets = [entry.target_id for entry in plan.entries]
                line_grads.append(mlm_step(params, masked, targets, toy_table)[1])
        assert len(line_grads) >= 2
        for name, g in seen[0].items():
            ref = sum(lg[name] for lg in line_grads) / len(line_grads)
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=name)

    def test_multi_pass_mlm_batch_makes_one_loss_call(self, params, toy_vocab, toy_table,
                                                       alphabet, monkeypatch):
        monkeypatch.setattr(training, "SELECT_P", 1.0)
        lines = ["apple badge alarm", "black blade blank berry", "about above actor"]
        rng = random.Random(5)
        seqs, targets = [], []
        for ids, line_seqs in corpus_samples(toy_vocab, alphabet, lines):
            plan = make_masking_plan(ids, line_seqs, rng)
            seqs += apply_masking(plan, line_seqs, alphabet, rng)
            targets += [entry.target_id for entry in plan.entries]
        weights = np.linspace(0.5, 1.5, len(seqs)) / len(seqs)
        monkeypatch.setattr(M, "PASS_POSITIONS", 14)  # a few short tokens a pass
        passes = M.split_passes(seqs)
        assert len(passes) >= 3
        calls, real = [], training.loss_and_grad
        monkeypatch.setattr(training, "loss_and_grad",
                            lambda ids, *rest: calls.append(len(ids)) or real(ids, *rest))
        totals, _, grads = training.batch_loss(params, seqs, targets, toy_table, None,
                                               training._CE_ONLY, weights)
        assert calls == [len(seqs)]
        ref = np.zeros_like(params.flat)
        for rows in passes:  # forward, loss_and_grad and backward per pass
            e_hat, cache = M.forward_batch(params, [seqs[i] for i in rows])
            t, _, d = real(np.asarray(targets)[rows], e_hat, toy_table, None,
                           training._CE_ONLY)
            np.testing.assert_allclose(totals[rows], t, rtol=0, atol=1e-12)
            ref += M.backward_batch(params, cache, d * weights[rows, None]).flat
        np.testing.assert_allclose(grads.flat, ref, rtol=0, atol=1e-12)

    def test_passes_bound_padded_positions(self, alphabet):
        seqs = [char_sequence("x" * n, False, alphabet) for n in (30, 1, 12, 5, 30, 2)] * 8
        passes = M.split_passes(seqs)
        assert sorted(i for rows in passes for i in rows) == list(range(len(seqs)))
        for rows in passes:
            assert len(rows) * max(len(seqs[i]) for i in rows) <= M.PASS_POSITIONS
        assert M.split_passes([]) == []

