import concurrent.futures
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import char2subword
from char2subword import objectives
from char2subword.evaluation import precision_at_k
from char2subword.numerics import cosine_similarity
from char2subword.objectives import (
    EmbeddingTable,
    LossWeights,
    build_neighbor_index,
    combined_loss,
    combined_loss_gradient,
    load_table,
    loss_and_grad,
    loss_ce,
    loss_cos,
    loss_l2,
    loss_nbr,
    rank_neighbors,
    save_table_binary,
    save_table_text,
)
import reference
from conftest import grid, products
from reference import finite_diff_gradient


def brute_force_neighbors(matrix, i, k):
    """Independent oracle: sort all pairs by (-cosine, id)."""
    sims = []
    for j in range(matrix.shape[0]):
        a, b = matrix[i], matrix[j]
        sims.append((-np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), j))
    sims.sort()
    return [j for _, j in sims[:k]]


class TestEmbeddingTable:
    def test_zero_norm_row_rejected(self):
        m = np.ones((3, 2))
        m[1] = 0.0
        with pytest.raises(ValueError, match=r"\[1\]"):
            EmbeddingTable(matrix=m)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            EmbeddingTable(matrix=np.zeros((0, 4)))

    def test_non_finite_rows_rejected(self):
        m = np.ones((4, 2))
        m[2, 0] = np.nan
        m[3, 1] = np.inf
        with pytest.raises(ValueError, match=r"non-finite row\(s\): \[2, 3\]"):
            EmbeddingTable(matrix=m)

    def test_frozen(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.matrix[0, 0] = 5.0

    def test_norms_cached_read_only(self, toy_table):
        np.testing.assert_array_equal(toy_table.norms, np.linalg.norm(toy_table.matrix, axis=1))
        with pytest.raises(ValueError):
            toy_table.norms[0] = 5.0

    def test_no_write_can_reach_the_table(self, toy_table, tmp_path):
        save_table_text(tmp_path / "table.txt", toy_table)
        loaded = load_table(tmp_path / "table.txt")  # owns a fresh array
        for t in (toy_table, loaded):
            before = t.matrix.copy()
            writes = (lambda: t.matrix.__setitem__((0, 0), 5.0),
                      lambda: t.matrix[:2].__setitem__(Ellipsis, 5.0),
                      lambda: t.norms.__setitem__(0, 5.0),
                      lambda: t.matrix.setflags(write=True),
                      lambda: t.matrix[:2].setflags(write=True),
                      lambda: t.norms.setflags(write=True))
            for write in writes:
                with pytest.raises(ValueError):
                    write()
            np.testing.assert_array_equal(t.matrix, before)

    def test_text_round_trip(self, toy_table, tmp_path):
        path = tmp_path / "table.txt"
        save_table_text(path, toy_table)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.matrix, toy_table.matrix)

    def test_text_rows_after_v_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        save_table_text(path, EmbeddingTable(matrix=np.arange(1.0, 10.0).reshape(3, 3)))
        with open(path, "a") as fh:
            fh.write("\n\n")  # blank lines after the rows are allowed
        assert load_table(path).size == 3
        with open(path, "a") as fh:
            fh.write("1 2 3\n")
        with pytest.raises(ValueError, match="text table has data after its 3 rows"):
            load_table(path)

    def test_text_rows_stop_at_end_of_file(self, tmp_path):
        # the loader reads no further than the file, whatever row count its header claims
        path = tmp_path / "table.txt"
        path.write_text("1000000000 3\n1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="header says 1000000000 rows but the file has 2"):
            load_table(path)

    @pytest.mark.parametrize("rows, line", [("1 2 3\n4 5\n", 3), ("1 2 3\n\n4 5 6\n", 3),
                                            ("1 2 3 4\n4 5 6\n", 2)])
    def test_text_row_of_wrong_width_names_its_line(self, tmp_path, rows, line):
        path = tmp_path / "table.txt"
        path.write_text("2 3\n" + rows)
        with pytest.raises(ValueError, match=f"text table line {line} has .* values, expected 3"):
            load_table(path)

    @pytest.mark.parametrize("text, message", [
        ("3\n1 2 3\n", r"""line 1 must be two integers "v d", got '3'"""),
        ("2 x\n1 2\n", r"""line 1 must be two integers "v d", got '2 x'"""),
        ("2 3\n1 2 3\n4 x 6\n", r"text table line 3: .*'x'"),
    ], ids=["one-number-header", "word-in-header", "word-in-row"])
    def test_text_line_that_is_not_numbers_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_table(path)

    @pytest.mark.parametrize("name, data", [
        ("table.txt", b"0 3\n"),
        ("table.embt", b"EMBT" + (0).to_bytes(4, "little") + (3).to_bytes(4, "little")),
    ], ids=["text", "binary"])
    def test_table_of_no_rows_rejected(self, tmp_path, name, data):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ValueError, match=r"at least one row, got \(0, 3\)"):
            load_table(tmp_path / name)

    def test_binary_round_trip(self, toy_table, tmp_path):
        path = tmp_path / "table.embt"
        save_table_binary(path, toy_table)
        loaded = load_table(path)
        # binary format stores 32-bit floats, promoted on load
        np.testing.assert_allclose(loaded.matrix, toy_table.matrix, atol=1e-6)
        assert path.read_bytes()[:4] == b"EMBT"

    def test_binary_length_checked(self, toy_table, tmp_path):
        path = tmp_path / "table.embt"
        save_table_binary(path, toy_table)
        data = path.read_bytes()
        expected = 4 * toy_table.size * toy_table.dim
        for bad, got in ((data + b"junkjunk", expected + 8), (data[:-8], expected - 8)):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match=rf"payload is {got} bytes, expected {expected}"):
                load_table(path)
        for cut in (5, 11):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=rf"truncated after {cut} bytes"):
                load_table(path)

    @pytest.mark.parametrize("ce_block", [600, 100])
    def test_binary_chunks_match_one_shot_load(self, tmp_path, monkeypatch, ce_block):
        rng = np.random.default_rng(13)
        path = tmp_path / "table.embt"
        save_table_binary(path, EmbeddingTable(matrix=rng.normal(size=(10, 200))))
        # 600: chunks of 3 rows, the last one short; 100: one row per chunk, each wider
        monkeypatch.setattr(objectives, "CE_BLOCK", ce_block)
        assert len(objectives._row_chunks(10, 200)) == (4 if ce_block == 600 else 10)
        loaded = load_table(path)
        whole = np.frombuffer(path.read_bytes()[12:], dtype="<f4").astype(np.float64)
        whole = whole.reshape(10, 200)
        assert loaded.matrix.tobytes() == whole.tobytes()
        assert loaded.norms.tobytes() == np.linalg.norm(whole, axis=1).tobytes()

    @pytest.mark.parametrize("pool", ["default", "one worker", "inline"])
    def test_binary_chunks_give_the_same_bits_on_any_pool(self, tmp_path, monkeypatch, pool):
        rng = np.random.default_rng(19)
        path = tmp_path / "table.embt"
        save_table_binary(path, EmbeddingTable(matrix=rng.normal(size=(23, 200))))
        payload = path.read_bytes()[12:]
        # chunks of 5, 5, 5, 5 and 3 rows, each read at its own offset
        monkeypatch.setattr(objectives, "CE_BLOCK", 1000)
        assert [len(range(23)[rows]) for rows in objectives._row_chunks(23, 200)] == \
            [5, 5, 5, 5, 3]
        with concurrent.futures.ThreadPoolExecutor(1) as one:
            executor = {"default": objectives._POOL, "one worker": one,
                        "inline": InlineExecutor()}[pool]
            monkeypatch.setattr(objectives, "_POOL", executor)
            loaded = load_table(path)
        whole = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(23, 200)
        assert loaded.matrix.tobytes() == whole.tobytes()
        assert loaded.norms.tobytes() == np.linalg.norm(whole, axis=1).tobytes()
        if pool == "inline":
            assert executor.submitted == 5 + 5  # the reads, then the norms

    def test_chunk_error_reaches_caller_after_running_chunks(self, monkeypatch):
        monkeypatch.setattr(objectives, "CE_BLOCK", 1000)
        pool = SpyPool()
        monkeypatch.setattr(objectives, "_POOL", pool)
        done = []

        def fail_at_second(rows):  # chunks start at rows 0, 5, 10, 15 and 20
            if rows.start == 5:
                raise ArithmeticError("chunk 5.. failed")
            time.sleep(0.05)  # later chunks are still queued at the error
            done.append(rows.start)

        with pytest.raises(ArithmeticError, match=r"chunk 5\.\. failed"):
            objectives._over_row_chunks(23, 200, fail_at_second)
        assert all(f.done() for f in pool.futures)
        assert any(f.cancelled() for f in pool.futures)
        assert done[0] == 0 and len(done) < 4
        pool.shutdown()

    def test_chunks_in_flight_bounded(self, monkeypatch):
        monkeypatch.setattr(objectives, "CE_BLOCK", 200)  # 23 one-row chunks
        pool = SpyPool()
        monkeypatch.setattr(objectives, "_POOL", pool)
        unfinished = []

        def chunk(rows):
            time.sleep(0.01)  # time for the caller to submit every chunk if unbounded
            unfinished.append(sum(not f.done() for f in pool.futures))

        objectives._over_row_chunks(23, 200, chunk)
        assert len(pool.futures) == len(unfinished) == 23
        assert max(unfinished) <= objectives._IN_FLIGHT < 23
        pool.shutdown()


class TestNeighborIndex:
    def test_hand_case(self):
        t = EmbeddingTable(matrix=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        idx = build_neighbor_index(t, 2)
        assert list(idx.neighbors(0)) == [0, 1]

    def test_k1_is_self(self, toy_table):
        idx = build_neighbor_index(toy_table, 1)
        for i in range(toy_table.size):
            assert idx.neighbors(i)[0] == i

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(50, 8))
        t = EmbeddingTable(matrix=m)
        idx = build_neighbor_index(t, 6)
        for i in range(50):
            assert list(idx.neighbors(i)) == brute_force_neighbors(m, i, 6)

    def test_tie_break_ascending_id(self):
        # duplicated rows force cosine ties
        m = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        t = EmbeddingTable(matrix=m)
        idx = build_neighbor_index(t, 3)
        assert list(idx.neighbors(2)) == [0, 1, 2]

    def test_twin_rows_tie_by_ascending_id(self):
        # rows 50-99 are exactly twice rows 0-49, so every row ties with its twin
        half = np.random.default_rng(5).normal(size=(50, 16))
        m = np.concatenate([half, 2.0 * half])
        t = EmbeddingTable(matrix=m)
        idx = build_neighbor_index(t, 4)
        assert list(idx.neighbors(46)) == [46, 96, 13, 63]
        for i in range(100):
            assert list(idx.neighbors(i)) == brute_force_neighbors(m, i, 4), i
            assert list(rank_neighbors(t, m[i], 4)[0]) == list(idx.neighbors(i)), i

    def test_k_exceeds_size_rejected(self, toy_table):
        with pytest.raises(ValueError):
            build_neighbor_index(toy_table, toy_table.size + 1)

    def test_k_zero_rejected(self, toy_table):
        with pytest.raises(ValueError, match="need n >= 1"):
            build_neighbor_index(toy_table, 0)

    def test_depth_above_size_rejected_at_every_entry(self, toy_table):
        v = toy_table.size
        for rank in (lambda n: build_neighbor_index(toy_table, n),
                     lambda n: rank_neighbors(toy_table, toy_table.matrix[0], n),
                     lambda n: rank_neighbors(toy_table, toy_table.matrix, n)):
            with pytest.raises(ValueError, match=f"need n >= 1 and n <= {v}"):
                rank(v + 1)

    def test_depth_equal_to_size_ranks_every_row(self, toy_table):
        v = toy_table.size
        idx = build_neighbor_index(toy_table, v)
        assert idx.ids.shape == (v, v)
        assert all(sorted(row) == list(range(v)) for row in idx.ids.tolist())
        ids, sims = rank_neighbors(toy_table, toy_table.matrix[3], v)
        assert sorted(ids.tolist()) == list(range(v)) and ids[0] == 3
        assert list(sims) == sorted(sims, reverse=True)

    @pytest.mark.parametrize("ce_block", [None, 64, 7])
    def test_prefix_equals_direct_build(self, monkeypatch, ce_block):
        # rounded rows and their exact x2 and x0.5 twins: every cosine ties
        # three ways, so the cuts at k = 4 and 5 split tie groups
        half = np.round(np.random.default_rng(3).normal(size=(30, 6)), 1)
        half[:, 0] = np.abs(half[:, 0]) + 0.5  # no zero rows
        t = EmbeddingTable(matrix=np.concatenate([half, 2.0 * half, 0.5 * half]))
        if ce_block:  # 64: 8 x 8 tiles; 7: 2 x 3 tiles, narrower than k
            monkeypatch.setattr(objectives, "CE_BLOCK", ce_block)
        assert (len(list(products(t.matrix, t))) == 1) == (ce_block is None)
        deep = build_neighbor_index(t, 15)
        sims = rank_neighbors(t, t.matrix, 15)[1]
        assert (sims[:, 3] == sims[:, 4]).all() and (sims[:, 4] == sims[:, 5]).all()
        for k in (1, 4, 5, 14, 15):
            np.testing.assert_array_equal(deep.prefix(k).ids, build_neighbor_index(t, k).ids)
            assert deep.prefix(k).k == k

    def test_prefix_deeper_than_index_rejected(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        for k in (0, 6):
            with pytest.raises(ValueError, match=f"top-{k} prefix of a top-5"):
                idx.prefix(k)


class TestLossWeights:
    def test_negative_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            for i in range(4):
                weights = [1.0] * 4
                weights[i] = bad
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    LossWeights(*weights)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0, 0.0)


class TestLossCos:
    def test_identical(self):
        v = np.array([1.0, 2.0])
        assert loss_cos(v, v) == pytest.approx(0.0)

    def test_opposite(self):
        v = np.array([1.0, 2.0])
        assert loss_cos(v, -v) == pytest.approx(2.0)

    def test_orthogonal(self):
        assert loss_cos(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        e, ehat = rng.normal(size=8), rng.normal(size=8)
        for c in (0.1, 3.0, 1e6):
            assert abs(loss_cos(e, c * ehat) - loss_cos(e, ehat)) < 1e-12


class TestLossCE:
    def test_orthogonal_gives_uniform(self):
        # all logits zero -> uniform softmax -> ln |V|
        t = EmbeddingTable(matrix=np.eye(4))
        assert loss_ce(2, np.zeros(4), t) == pytest.approx(np.log(4), abs=1e-12)

    def test_uniform_value(self):
        t = EmbeddingTable(matrix=np.eye(4))
        assert loss_ce(0, np.zeros(4), t) == pytest.approx(1.386294, abs=1e-6)

    def test_large_margin_near_zero(self):
        t = EmbeddingTable(matrix=np.eye(4))
        ehat = np.full(4, 0.0)
        ehat[1] = 20.0
        assert loss_ce(1, ehat, t) < 1e-8

    def test_out_of_range(self, toy_table):
        with pytest.raises(IndexError):
            loss_ce(toy_table.size, np.ones(toy_table.dim), toy_table)


class TestLossL2:
    def test_identical(self):
        v = np.array([1.0, 2.0])
        assert loss_l2(v, v) == 0.0

    def test_three_four_five(self):
        assert loss_l2(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_homogeneous(self):
        rng = np.random.default_rng(1)
        e, ehat = rng.normal(size=5), rng.normal(size=5)
        assert loss_l2(2.5 * e, 2.5 * ehat) == pytest.approx(2.5 * loss_l2(e, ehat))


class TestLossNbr:
    def test_exact_prediction_zero(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        assert loss_nbr(3, toy_table.row(3), toy_table, idx) == pytest.approx(0.0, abs=1e-15)

    def test_k1_reduction(self, toy_table):
        idx = build_neighbor_index(toy_table, 1)
        ehat = np.random.default_rng(2).normal(size=toy_table.dim)
        expected = (1.0 - cosine_similarity(ehat, toy_table.row(7))) ** 2
        assert loss_nbr(7, ehat, toy_table, idx) == pytest.approx(expected)

    def test_matches_loop_oracle(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        rng = np.random.default_rng(3)
        for tid in (0, 10, 49):
            ehat = rng.normal(size=toy_table.dim)
            e = toy_table.row(tid)
            acc = 0.0
            for j in idx.neighbors(tid):
                nj = toy_table.row(j)
                acc += ((1 - cosine_similarity(e, nj)) - (1 - cosine_similarity(ehat, nj))) ** 2
            assert loss_nbr(tid, ehat, toy_table, idx) == pytest.approx(acc / 5)


class TestCombinedLoss:
    def test_selector(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        ehat = np.random.default_rng(4).normal(size=toy_table.dim)
        e = toy_table.row(1)
        total, _ = combined_loss(1, e, ehat, toy_table, idx, LossWeights(1, 0, 0, 0))
        assert total == pytest.approx(loss_cos(e, ehat))

    def test_identity_with_ce_off(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        e = toy_table.row(9)
        total, _ = combined_loss(9, e, e, toy_table, idx, LossWeights(1, 0, 1, 1))
        assert total < 1e-12

    def test_components_reported(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        ehat = np.random.default_rng(5).normal(size=toy_table.dim)
        total, parts = combined_loss(0, toy_table.row(0), ehat, toy_table, idx, LossWeights())
        assert set(parts) == {"cos", "ce", "l2", "nbr"}
        assert total == pytest.approx(sum(parts.values()))


    def test_other_target_vector_rejected(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        ehat = np.random.default_rng(13).normal(size=toy_table.dim)
        for e in (toy_table.row(4), 2.0 * toy_table.row(3), toy_table.row(3)[:-1]):
            for fn in (combined_loss, combined_loss_gradient):
                with pytest.raises(ValueError, match="not the table row of target id 3"):
                    fn(3, e, ehat, toy_table, idx, LossWeights())

    def test_views_of_loss_and_grad(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        rng = np.random.default_rng(14)
        ids = rng.integers(toy_table.size, size=4)
        ehat = rng.normal(size=(4, toy_table.dim))
        w = LossWeights(0.5, 2.0, 1.0, 1.5)
        for tid, v in zip(ids, ehat):
            totals, parts, grad = loss_and_grad([tid], v[None], toy_table, idx, w)
            total, one_parts = combined_loss(tid, toy_table.row(tid), v, toy_table, idx, w)
            assert total == totals[0]
            assert one_parts == {name: p[0] for name, p in parts.items()}
            assert loss_ce(tid, v, toy_table) == parts["ce"][0]
            assert loss_nbr(tid, v, toy_table, idx) == parts["nbr"][0]
            np.testing.assert_array_equal(
                combined_loss_gradient(tid, toy_table.row(tid), v, toy_table, idx, w), grad[0])


class TestCombinedLossGradient:
    def test_matches_finite_differences(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        w = LossWeights()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            tid = int(rng.integers(toy_table.size))
            ehat = rng.normal(size=toy_table.dim)
            e = toy_table.row(tid)
            g = combined_loss_gradient(tid, e, ehat, toy_table, idx, w)
            fd = finite_diff_gradient(
                lambda v: combined_loss(tid, e, v, toy_table, idx, w)[0], ehat, h=1e-6)
            rel = np.abs(g - fd) / np.maximum(1, np.maximum(np.abs(g), np.abs(fd)))
            assert rel.max() < 1e-4

    def test_l2_minimum_zero_gradient(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        e = toy_table.row(2)
        g = combined_loss_gradient(2, e, e.copy(), toy_table, idx, LossWeights(0, 0, 1, 0))
        np.testing.assert_array_equal(g, 0.0)

    def test_cos_gradient_orthogonal_to_ehat(self, toy_table):
        idx = build_neighbor_index(toy_table, 5)
        ehat = np.random.default_rng(6).normal(size=toy_table.dim)
        g = combined_loss_gradient(0, toy_table.row(0), ehat, toy_table, idx,
                                   LossWeights(1, 0, 0, 0))
        assert abs(float(g @ ehat)) < 1e-10


def assert_matches_per_sample_reference(table, weights):
    idx = build_neighbor_index(table, 5)
    rng = np.random.default_rng(7)
    ids = rng.integers(table.size, size=9)
    ehat = rng.normal(size=(9, table.dim))
    ehat[0] = table.row(ids[0])  # e_hat == e, where the L2 gradient is 0
    totals, parts, grad = loss_and_grad(ids, ehat, table, idx, weights)
    assert set(parts) == {"cos", "ce", "l2", "nbr"}
    for b, tid in enumerate(ids):
        e = table.row(tid)
        total, ref_parts = reference.combined_loss(tid, e, ehat[b], table, idx, weights)
        assert abs(totals[b] - total) < 1e-12
        for k, v in ref_parts.items():
            assert abs(parts[k][b] - v) < 1e-12, k
        ref_grad = reference.combined_loss_gradient(tid, e, ehat[b], table, idx, weights)
        np.testing.assert_allclose(grad[b], ref_grad, rtol=0, atol=1e-12)


ALL_WEIGHTINGS = [
    LossWeights(), LossWeights(1, 0, 0, 0), LossWeights(0, 1, 0, 0),
    LossWeights(0, 0, 1, 0), LossWeights(0, 0, 0, 1), LossWeights(0.5, 2.0, 0.0, 1.5),
]


class TestLossAndGrad:
    @pytest.mark.parametrize("weights", ALL_WEIGHTINGS)
    def test_matches_per_sample_reference(self, toy_table, weights):
        assert_matches_per_sample_reference(toy_table, weights)

    @pytest.mark.parametrize("weights", ALL_WEIGHTINGS)
    def test_rows_of_unequal_norms_match_per_sample_reference(self, weights):
        # toy_table's rows are unit vectors, so there a target's norm and a
        # neighbor's are the same number; here row norms run from 0.1 to 10
        rng = np.random.default_rng(3)
        m = rng.normal(size=(30, 16))
        m *= (rng.permutation(np.geomspace(0.1, 10.0, 30)) / np.linalg.norm(m, axis=1))[:, None]
        assert_matches_per_sample_reference(EmbeddingTable(matrix=m), weights)

    def test_ce_blocks_match_one_block(self, toy_table, monkeypatch, tile_log):
        idx = build_neighbor_index(toy_table, 5)
        rng = np.random.default_rng(8)
        ids = rng.integers(toy_table.size, size=7)
        ehat = rng.normal(size=(7, toy_table.dim))
        whole = loss_and_grad(ids, ehat, toy_table, idx, LossWeights())
        assert grid(tile_log[-1]) == (1, 1)
        # 6 x 6 tiles: 7 rows and 50 columns make 2 row blocks by 9 column tiles
        monkeypatch.setattr(objectives, "CE_BLOCK", 36)
        blocked = loss_and_grad(ids, ehat, toy_table, idx, LossWeights())
        assert grid(tile_log[-1]) == (2, 9)
        np.testing.assert_allclose(blocked[0], whole[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocked[1]["ce"], whole[1]["ce"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocked[2], whole[2], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ce_block, n_tiles", [(16, 3 * 13), (1, 9 * 50)])
    def test_many_tiles_match_per_sample_reference(self, toy_table, monkeypatch, ce_block,
                                                   n_tiles):
        idx = build_neighbor_index(toy_table, 5)
        rng = np.random.default_rng(11)
        ids = rng.integers(toy_table.size, size=9)
        ehat = 3.0 * rng.normal(size=(9, toy_table.dim))
        monkeypatch.setattr(objectives, "CE_BLOCK", ce_block)
        # 16: three row blocks of at most 4 rows by 13 column tiles; 1: 1 x 1 tiles
        assert len(list(products(ehat, toy_table))) == n_tiles
        totals, parts, grad = loss_and_grad(ids, ehat, toy_table, idx, LossWeights())
        for b, tid in enumerate(ids):
            e = toy_table.row(tid)
            total, ref_parts = reference.combined_loss(tid, e, ehat[b], toy_table, idx,
                                                       LossWeights())
            assert abs(totals[b] - total) < 1e-12
            assert abs(parts["ce"][b] - ref_parts["ce"]) < 1e-12
            ref_grad = reference.combined_loss_gradient(tid, e, ehat[b], toy_table, idx,
                                                        LossWeights())
            np.testing.assert_allclose(grad[b], ref_grad, rtol=0, atol=1e-12)

    def test_target_out_of_range(self, toy_table):
        with pytest.raises(IndexError):
            loss_and_grad([toy_table.size], np.ones((1, toy_table.dim)), toy_table, None,
                          LossWeights(0, 1, 0, 0))


class InlineExecutor(concurrent.futures.Executor):
    """Runs each submitted tile at once on the calling thread, and counts them."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class SpyPool(concurrent.futures.ThreadPoolExecutor):
    """A one-worker pool that keeps every future it hands out."""

    def __init__(self):
        super().__init__(1)
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


def same_bits(a, b):
    """Two outputs of TestTilePool.table_pass_outputs, compared bit for bit."""
    (ids_a, loss_a, report_a, ranked_a), (ids_b, loss_b, report_b, ranked_b) = a, b
    arrays = [(ids_a, ids_b), (loss_a[0], loss_b[0]), (loss_a[2], loss_b[2]),
              *zip(ranked_a, ranked_b), *((loss_a[1][k], loss_b[1][k]) for k in loss_a[1])]
    return report_a == report_b and all(x.tobytes() == y.tobytes() for x, y in arrays)


# a one-row toy product is 1 x 50 x 16 = 800 multiply-adds: at CE_BLOCK 400 it reaches
# 2 * CE_BLOCK and is cut into two column tiles; at 401 it stays one inline tile
SPLIT_BLOCK = 400


class TestTilePool:
    def table_pass_outputs(self, toy_table, toy_vocab):
        """Every table pass: CE loss and gradient, precision@k with accuracy, the index."""
        rng = np.random.default_rng(14)
        idx = build_neighbor_index(toy_table, 15)
        ids = rng.integers(toy_table.size, size=7)
        loss = loss_and_grad(ids, 3.0 * rng.normal(size=(7, toy_table.dim)), toy_table, idx,
                             LossWeights())
        vecs = rng.normal(size=(toy_table.size, toy_table.dim))
        report = precision_at_k(None, toy_vocab, toy_table, idx, None,
                                embedded=(list(range(toy_table.size)), vecs))
        return idx.ids, loss, report, rank_neighbors(toy_table, vecs, 15)

    def test_pool_one_worker_and_inline_give_identical_bits(self, toy_table, toy_vocab,
                                                           monkeypatch, tile_log):
        # 6 x 6 tiles: 7 and 50 rows by 50 columns make 2 and 9 row blocks by 9 column tiles
        monkeypatch.setattr(objectives, "CE_BLOCK", 36)
        pooled = self.table_pass_outputs(toy_table, toy_vocab)
        assert {grid(tiles) for tiles in tile_log} == {(9, 9), (2, 9)}
        with concurrent.futures.ThreadPoolExecutor(1) as one:
            monkeypatch.setattr(objectives, "_POOL", one)
            assert same_bits(pooled, self.table_pass_outputs(toy_table, toy_vocab))
        interval = sys.getswitchinterval()
        try:  # more workers than cores, switching threads as often as it can
            sys.setswitchinterval(1e-6)
            with concurrent.futures.ThreadPoolExecutor(8) as many:
                monkeypatch.setattr(objectives, "_POOL", many)
                assert same_bits(pooled, self.table_pass_outputs(toy_table, toy_vocab))
        finally:
            sys.setswitchinterval(interval)
        inline = InlineExecutor()
        monkeypatch.setattr(objectives, "_POOL", inline)
        assert same_bits(pooled, self.table_pass_outputs(toy_table, toy_vocab))
        # the tiles of the index, CE, eval and ranking passes, then the query-norm chunks
        # of the three scans over 50 x 16 rows
        chunks = len(objectives._row_chunks(50, 16))
        assert chunks == 25
        assert inline.submitted == 9 * 9 + 2 * 9 + 9 * 9 + 9 * 9 + 3 * chunks

    def test_two_column_tiles_give_identical_bits_on_any_pool(self, toy_table, monkeypatch,
                                                              tile_log):
        monkeypatch.setattr(objectives, "CE_BLOCK", SPLIT_BLOCK)
        q = 3.0 * np.random.default_rng(18).normal(size=toy_table.dim)

        def outputs():
            ids, sims, argmax = objectives.scan_table(toy_table, q, 15)
            totals, parts, grad = loss_and_grad([3], [q], toy_table, None,
                                                LossWeights(0, 1, 0, 0))
            return [a.tobytes() for a in (ids, sims, argmax, totals, parts["ce"], grad)]

        pooled = outputs()
        assert [grid(tiles) for tiles in tile_log] == [(1, 2), (1, 2)]
        inline = InlineExecutor()
        monkeypatch.setattr(objectives, "_POOL", inline)
        assert outputs() == pooled
        assert inline.submitted == 2 + 2
        for workers in (1, 8):
            with concurrent.futures.ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(objectives, "_POOL", pool)
                assert outputs() == pooled

    def test_one_tile_submits_nothing(self, toy_table, toy_vocab, monkeypatch):
        inline = InlineExecutor()
        monkeypatch.setattr(objectives, "_POOL", inline)
        self.table_pass_outputs(toy_table, toy_vocab)
        assert inline.submitted == 0

    def test_tiles_in_flight_bounded(self, toy_table, monkeypatch):
        monkeypatch.setattr(objectives, "CE_BLOCK", 1)  # 50 x 50 one-entry tiles
        pool = SpyPool()
        monkeypatch.setattr(objectives, "_POOL", pool)
        yielded = 0
        for blk, cols, product in objectives.tiles(toy_table.matrix, toy_table,
                                                   lambda blk, cols, p: p):
            assert 0 < len(pool.futures) - yielded <= objectives._IN_FLIGHT
            want = toy_table.matrix[blk.start] @ toy_table.matrix[cols.start]
            assert product[0, 0] == pytest.approx(want, rel=0, abs=1e-12)
            yielded += 1
        assert yielded == len(pool.futures) == 50 * 50
        pool.shutdown()

    def test_tile_error_reaches_caller_and_no_future_stays_pending(self, toy_table,
                                                                    monkeypatch):
        monkeypatch.setattr(objectives, "CE_BLOCK", 36)  # 9 x 9 tiles
        pool = SpyPool()
        monkeypatch.setattr(objectives, "_POOL", pool)

        def fail_at_sixth(blk, cols, product):
            if (blk.start, cols.start) == (0, 30):
                raise ArithmeticError("tile (0, 30) failed")
            if (blk.start, cols.start) > (0, 30):
                time.sleep(0.1)  # later tiles are still queued or running at the error
            return product

        got = []
        with pytest.raises(ArithmeticError, match=r"tile \(0, 30\) failed"):
            for blk, cols, _ in objectives.tiles(toy_table.matrix, toy_table, fail_at_sixth):
                got.append(cols.start)
        assert got == [0, 6, 12, 18, 24]
        assert len(pool.futures) <= len(got) + 1 + objectives._IN_FLIGHT < 9 * 9
        assert all(f.done() for f in pool.futures)
        assert any(f.cancelled() for f in pool.futures)
        # a caller that stops early leaves nothing pending either
        pool.futures.clear()
        passes = objectives.tiles(toy_table.matrix, toy_table, lambda blk, cols, p: p)
        next(passes)
        passes.close()
        assert all(f.done() for f in pool.futures)
        pool.shutdown()


class TestTwoColumnTiles:
    """A product that fits in one tile and holds at least 2 * CE_BLOCK multiply-adds
    runs as two column tiles of ceil(|V| / 2) columns on the pool."""

    def test_threshold(self, toy_table, monkeypatch):
        q = np.ones((1, toy_table.dim))
        monkeypatch.setattr(objectives, "CE_BLOCK", SPLIT_BLOCK + 1)
        assert [p.shape for _, _, p in products(q, toy_table)] == [(1, 50)]
        monkeypatch.setattr(objectives, "CE_BLOCK", SPLIT_BLOCK)
        assert [p.shape for _, _, p in products(q, toy_table)] == [(1, 25), (1, 25)]
        odd = EmbeddingTable(matrix=toy_table.matrix[:7])  # 8 x 7 x 16 = 896: 4 + 3 columns
        assert [p.shape for _, _, p in products(np.ones((8, 16)), odd)] == [(8, 4), (8, 3)]

    @pytest.mark.parametrize("n", [1, 15, 50])
    def test_scan_table_matches_lexsort_oracle(self, toy_table, monkeypatch, tile_log, n):
        monkeypatch.setattr(objectives, "CE_BLOCK", SPLIT_BLOCK)
        m = toy_table.matrix
        for seed in range(5):
            q = np.random.default_rng(seed).normal(size=toy_table.dim)
            ids, sims, argmax = objectives.scan_table(toy_table, q, n)
            assert grid(tile_log[-1]) == (1, 2)
            prod = m @ q
            s = prod / (np.linalg.norm(m, axis=1) * np.linalg.norm(q))
            order = np.lexsort((np.arange(len(s)), -s))
            assert list(ids[0]) == list(order[:n])
            np.testing.assert_allclose(sims[0], s[order[:n]], rtol=0, atol=1e-12)
            assert argmax[0] == np.lexsort((np.arange(len(prod)), -prod))[0]

    def test_loss_and_grad_matches_per_sample_reference(self, toy_table, monkeypatch,
                                                        tile_log):
        idx = build_neighbor_index(toy_table, 5)
        monkeypatch.setattr(objectives, "CE_BLOCK", SPLIT_BLOCK)
        rng = np.random.default_rng(16)
        for tid in rng.integers(toy_table.size, size=4):
            e, ehat = toy_table.row(tid), 3.0 * rng.normal(size=toy_table.dim)
            totals, parts, grad = loss_and_grad([tid], [ehat], toy_table, idx, LossWeights())
            assert grid(tile_log[-1]) == (1, 2)
            total, ref_parts = reference.combined_loss(tid, e, ehat, toy_table, idx,
                                                       LossWeights())
            assert abs(totals[0] - total) < 1e-12
            assert abs(parts["ce"][0] - ref_parts["ce"]) < 1e-12
            ref_grad = reference.combined_loss_gradient(tid, e, ehat, toy_table, idx,
                                                        LossWeights())
            np.testing.assert_allclose(grad[0], ref_grad, rtol=0, atol=1e-12)

    def test_geometry_ignores_core_count_and_pool_size(self, toy_table, monkeypatch):
        monkeypatch.setattr(objectives, "CE_BLOCK", SPLIT_BLOCK)
        batches = [np.ones((1, 16)), np.ones((7, 16)), toy_table.matrix]

        def geometry():
            return [[(blk, cols) for blk, cols, _ in products(rows, toy_table)]
                    for rows in batches]

        want = geometry()
        assert want[0] == [(slice(0, 1), slice(0, 25)), (slice(0, 1), slice(25, 50))]
        assert [grid(tiles) for tiles in want] == [(1, 2), (1, 2), (3, 3)]
        for cores in (1, 16):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            with concurrent.futures.ThreadPoolExecutor(cores) as pool:
                monkeypatch.setattr(objectives, "_POOL", pool)
                monkeypatch.setattr(objectives, "_IN_FLIGHT", 2 * cores)
                assert geometry() == want

    @pytest.mark.parametrize("v, n_cols", [(3000, 2), (1024, 1)])
    def test_one_row_at_mbert_width(self, v, n_cols):
        # 1 x 3,000 x 768 multiply-adds reach 2 * CE_BLOCK; 1 x 1,024 x 768 do not
        m = np.random.default_rng(17).normal(size=(v, 768))
        table = EmbeddingTable(matrix=m)
        assert [p.shape[1] for _, _, p in products(m[:1], table)] == [v // n_cols] * n_cols


class TestChecksum:
    def test_sha256_of_matrix_bytes(self):
        m = np.arange(1.0, 13.0).reshape(4, 3)
        assert EmbeddingTable(matrix=m).checksum() == hashlib.sha256(m.tobytes()).hexdigest()
        assert EmbeddingTable(matrix=m + 1.0).checksum() != EmbeddingTable(matrix=m).checksum()

    def test_same_digest_under_different_hash_seeds(self):
        src = str(Path(char2subword.__file__).resolve().parent.parent)
        code = ("import numpy as np; from char2subword.objectives import EmbeddingTable; "
                "print(EmbeddingTable(matrix=np.arange(1.0, 13.0).reshape(4, 3)).checksum())")
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True, timeout=60)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64


class TestRankNeighbors:
    def test_matches_index(self, toy_table):
        idx = build_neighbor_index(toy_table, 10)
        for i in (0, 25, 49):
            order, _ = rank_neighbors(toy_table, toy_table.row(i), 10)
            assert list(order) == list(idx.neighbors(i))

    def test_blocks_match_one_block(self, toy_table, monkeypatch, tile_log):
        queries = np.random.default_rng(9).normal(size=(7, toy_table.dim))
        whole_index = build_neighbor_index(toy_table, 10)
        whole = rank_neighbors(toy_table, queries, 10)
        assert [grid(tiles) for tiles in tile_log] == [(1, 1), (1, 1)]
        # 6 x 6 tiles: 50 and 7 rows by 50 columns make 9 and 2 row blocks by 9 column tiles
        monkeypatch.setattr(objectives, "CE_BLOCK", 36)
        np.testing.assert_array_equal(build_neighbor_index(toy_table, 10).ids, whole_index.ids)
        blocked = rank_neighbors(toy_table, queries, 10)
        assert [grid(tiles) for tiles in tile_log[2:]] == [(9, 9), (2, 9)]
        np.testing.assert_array_equal(blocked[0], whole[0])
        # BLAS may round a product of 6 rows differently from one of 7
        np.testing.assert_allclose(blocked[1], whole[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ce_block", [None, 100, 36, 12])
    def test_ties_at_the_cut_match_lexsort_oracle(self, monkeypatch, tile_log, ce_block):
        # rows are 4 integer directions scaled by powers of two, so cosines tie
        # exactly and every tie group straddles the 7th place. The one sort per
        # row block keys on (row, -cosine) alone: ties keep ascending ids only
        # because each row's candidates arrive in column order across the tiles
        rng = np.random.default_rng(12)
        base = rng.integers(-3, 4, size=(4, 6)).astype(float)
        base[:, 0] = 5.0  # no zero rows
        m = base[rng.integers(4, size=40)] * 2.0 ** rng.integers(0, 3, size=(40, 1))
        t = EmbeddingTable(matrix=m)
        queries = np.concatenate([base, rng.integers(-3, 4, size=(4, 6)).astype(float) + 0.5])
        if ce_block:  # 100: 12-column tiles; 36: 6-column and 12: 4-column, fewer than n
            monkeypatch.setattr(objectives, "CE_BLOCK", ce_block)
        ids, sims = rank_neighbors(t, queries, 7)
        assert grid(tile_log[0])[0] == {None: 1, 100: 1, 36: 2, 12: 3}[ce_block]  # row blocks
        width = next(products(queries, t))[1].stop
        most_tiles = 0  # the most column tiles one tie group at the cut spans
        for q, row_ids, row_sims in zip(queries, ids, sims):
            s = (m @ q) / (np.linalg.norm(m, axis=1) * np.linalg.norm(q))
            order = np.lexsort((np.arange(len(s)), -s))
            assert list(row_ids) == list(order[:7])
            np.testing.assert_allclose(row_sims, s[order[:7]], rtol=0, atol=1e-12)
            assert s[order[6]] == s[order[7]]  # a tie straddles the cut
            tied = np.flatnonzero(s == s[order[6]])
            most_tiles = max(most_tiles, len(set(tied // width)))
        assert (most_tiles > 1) == (ce_block is not None)
        if width < 7:  # n wider than a tile: some tie group spans at least 3 tiles
            assert most_tiles >= 3

    @pytest.mark.parametrize("n", [1, 7, 10, 12])
    def test_floor_keeps_ties_from_earlier_column_tiles(self, monkeypatch, tile_log, n):
        # three directions whose cosines to q[0] tie exactly at any power-of-two scale:
        # A (6 rows, in tile 1) > B (17 rows, in every tile) > C. Tile 1's 7th is B's
        # cosine, so the row's floor is the 7th place itself, and B's lowest id, 3,
        # is the 7th neighbor: the floor keeps the ties that tile 0 found
        a, b, c = [4.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 2.0, 0.0]
        dirs = [c, c, c, b, c, c, c, c, c, c] + [a] * 6 + [b] * 16 + [c] * 8
        scale = 2.0 ** np.random.default_rng(20).integers(0, 3, size=(40, 1))
        t = EmbeddingTable(matrix=np.array(dirs) * scale)
        queries = np.array([[1.0, 0.0, 0.0, 0.0], c])
        monkeypatch.setattr(objectives, "CE_BLOCK", 20)  # 2 rows by 10-column tiles
        ids, sims, argmax = objectives.scan_table(t, queries, n)
        assert grid(tile_log[-1]) == (1, 4)
        for q, row_ids, row_sims, row_argmax in zip(queries, ids, sims, argmax):
            prod = t.matrix @ q  # small integers: exact, as in any tile
            s = prod / (np.linalg.norm(q) * np.linalg.norm(t.matrix, axis=1))
            order = np.lexsort((np.arange(40), -s))
            assert list(row_ids) == list(order[:n])
            assert row_sims.tobytes() == s[order[:n]].tobytes()
            assert row_argmax == np.lexsort((np.arange(40), -prod))[0]
        if n == 7:
            assert list(ids[0]) == [10, 11, 12, 13, 14, 15, 3]
        skipped = objectives.scan_table(t, queries, n, argmax=False)
        assert skipped[2] is None
        assert skipped[0].tobytes() == ids.tobytes() and skipped[1].tobytes() == sims.tobytes()

    def test_one_tile_ranks_ties_as_lexsort_oracle_over_its_tile(self, monkeypatch, tile_log):
        # the exact-tie tables of the two tests above, each scanned as one inline tile:
        # ids, sim bytes and argmax are the lexsort oracle's over that tile's product,
        # and the tiled path gives the same ids and argmax, and sims within 1e-12
        rng = np.random.default_rng(12)
        base = rng.integers(-3, 4, size=(4, 6)).astype(float)
        base[:, 0] = 5.0
        m = base[rng.integers(4, size=40)] * 2.0 ** rng.integers(0, 3, size=(40, 1))
        a, b, c = [4.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 2.0, 0.0]
        dirs = [c, c, c, b, c, c, c, c, c, c] + [a] * 6 + [b] * 16 + [c] * 8
        cases = [(EmbeddingTable(matrix=m), np.concatenate([base, base + 0.5])),
                 (EmbeddingTable(matrix=np.array(dirs) * 2.0 ** rng.integers(0, 3, size=(40, 1))),
                  np.array([[1.0, 0.0, 0.0, 0.0], c]))]
        for t, queries in cases:
            (_, _, prod), = products(queries, t)
            s = prod / (np.linalg.norm(queries, axis=1)[:, None] * t.norms)
            for n in (1, 7, 40):
                ids, sims, argmax = objectives.scan_table(t, queries, n)
                assert grid(tile_log[-1]) == (1, 1)
                for row in range(len(queries)):
                    order = np.lexsort((np.arange(40), -s[row]))[:n]
                    assert list(ids[row]) == list(order)
                    assert sims[row].tobytes() == s[row, order].tobytes()
                    assert argmax[row] == np.lexsort((np.arange(40), -prod[row]))[0]
                with monkeypatch.context() as patch:
                    patch.setattr(objectives, "CE_BLOCK", 12)  # 4 or 6 columns: < 7
                    tiled = objectives.scan_table(t, queries, n)
                assert grid(tile_log[-1])[1] >= 7
                np.testing.assert_array_equal(tiled[0], ids)
                np.testing.assert_allclose(tiled[1], sims, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(tiled[2], argmax)

    @pytest.mark.parametrize("ce_block", [None, 36])  # one inline tile; 36-column tiles
    def test_zero_rows_one_vector_and_full_depth(self, toy_table, monkeypatch, tile_log,
                                                 ce_block):
        v, d = toy_table.size, toy_table.dim
        if ce_block:
            monkeypatch.setattr(objectives, "CE_BLOCK", ce_block)
        assert objectives._tile_geometry(0, toy_table)[2] == (ce_block is None)
        for n in (1, v):
            ids, sims, argmax = objectives.scan_table(toy_table, np.empty((0, d)), n)
            assert ids.shape == sims.shape == (0, n) and argmax.shape == (0,)
            assert ids.dtype == argmax.dtype == np.int64 and sims.dtype == np.float64
            assert [a.shape for a in rank_neighbors(toy_table, np.empty((0, d)), n)] == [(0, n)] * 2
        assert tile_log[-1] == []
        rng = np.random.default_rng(21)
        for q in (rng.normal(size=d), toy_table.matrix[7]):
            s = (toy_table.matrix @ q) / (toy_table.norms * np.linalg.norm(q))
            order = np.lexsort((np.arange(v), -s))
            for n in (1, v):
                ids, sims = rank_neighbors(toy_table, q, n)
                assert grid(tile_log[-1]) == (1, 1 if ce_block is None else 2)
                assert ids.shape == sims.shape == (n,)
                assert list(ids) == list(order[:n])
                np.testing.assert_allclose(sims, s[order[:n]], rtol=0, atol=1e-12)
        idx = build_neighbor_index(toy_table, v)
        assert grid(tile_log[-1]) == ((1, 1) if ce_block is None else (9, 9))
        for i, row in enumerate(idx.ids):
            s = (toy_table.matrix @ toy_table.matrix[i]) / (toy_table.norms * toy_table.norms[i])
            assert list(row) == list(np.lexsort((np.arange(v), -s))), i

    def test_non_finite_query_rejected(self, toy_table):
        with pytest.raises(ValueError, match="non-finite"):
            rank_neighbors(toy_table, np.full(toy_table.dim, np.nan), 3)

    def test_batch_rows_match_single_queries(self, toy_table):
        queries = np.random.default_rng(10).normal(size=(5, toy_table.dim))
        ids, sims = rank_neighbors(toy_table, queries, 4)
        assert ids.shape == sims.shape == (5, 4)
        for q, row_ids, row_sims in zip(queries, ids, sims):
            one_ids, one_sims = rank_neighbors(toy_table, q, 4)
            assert one_ids.shape == one_sims.shape == (4,)
            np.testing.assert_array_equal(one_ids, row_ids)
            np.testing.assert_allclose(one_sims, row_sims, rtol=0, atol=1e-12)

    def test_zero_query_in_batch_rejected(self, toy_table):
        queries = np.ones((3, toy_table.dim))
        queries[1] = 0.0
        with pytest.raises(ValueError, match="zero vector"):
            rank_neighbors(toy_table, queries, 4)
