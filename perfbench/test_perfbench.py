"""Self-tests of the benchmark itself (not of the package under test).

    python3 -m pytest perfbench -q

Run from the repository root; they import the package from ./src.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import char2subword  # noqa: E402
from char2subword import objectives  # noqa: E402

import gen  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402

SMALL = dict(words=60, dim=8, table_format="binary", piece_frac=0.2, lines=5,
             oov_frac=0.3, queries=10, checkpoint=True)


@pytest.mark.parametrize("spec", [session.SPECS["toy"], SMALL], ids=["toy", "binary"])
def test_generator_same_bytes_for_same_seed(tmp_path, spec):
    digests = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        out = tmp_path / sub
        out.mkdir()
        paths = gen.generate(spec, seed, out)
        digests.append({k: gen.sha256_file(p) for k, p in paths.items()})
    assert digests[0] == digests[1]
    assert all(digests[0][k] != digests[2][k] for k in digests[0])


def test_generated_inputs_load_and_agree(tmp_path):
    paths = gen.generate(SMALL, 3, tmp_path)
    vocab = char2subword.load_vocabulary(str(paths["vocab.txt"]))
    table = char2subword.load_table(str(paths["table"]))
    params, chars, _ = char2subword.load_checkpoint(str(paths["model.c2sw"]))
    assert table.size == len(vocab) == SMALL["words"] + 1
    assert list(chars) == list(char2subword.build_alphabet(vocab).chars)
    assert params.config.d_out == table.dim


def test_install_and_restore_leave_every_binding_identical():
    from char2subword import evaluation, model, numerics, training
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = tracing.changed_bindings(before, tracing.snapshot())
        for mod, attr in (("training", "combined_loss"), ("training", "sample_noisy"),
                          ("training", "char_sequence"), ("model", "layer_norm"),
                          ("model", "softmax_rows"), ("evaluation", "rank_neighbors"),
                          ("numerics", "gelu"), ("", "forward")):
            assert (f"char2subword.{mod}".rstrip("."), attr) in rebound
        assert model.layer_norm is numerics.layer_norm
        assert training.char_sequence.__wrapped__ is before[("char2subword.vocab",
                                                              "char_sequence")]
        assert evaluation.rank_neighbors is objectives.rank_neighbors
    finally:
        tracer.restore()
    assert tracing.changed_bindings(before, tracing.snapshot()) == []


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0),
             ("b", 0, 5.0, 9.0), ("a", -1, 20.0, 21.5)]
    got = tracing.self_times(spans)
    assert got["root"] == [1, 3.0, 10.0]
    assert got["a"] == [2, 2.0 + 1.5, 3.0 + 1.5]
    assert got["c"] == [1, 1.0, 1.0]
    assert got["b"] == [1, 4.0, 4.0]


def test_wrapper_records_nested_spans_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (name0, parent0, _, _), (name1, parent1, _, _) = tracer.spans
    assert (name0, parent0, name1, parent1) == ("outer", -1, "inner", 0)


class _NoReference:
    def run(self):
        pass


def test_refclock_rescales_each_span_by_the_marks_around_it():
    clock = refclock.RefClock(_NoReference())
    span, result = clock.timed(lambda x: x * 2, 21)
    assert result == 42 and span[1] == 0
    clock.mark()
    ref = refclock.REF_S
    # the host slows down, then slows again; a median over a mark's runs
    clock.refs = [[ref], [2 * ref, 2 * ref, 9 * ref], [4 * ref]]
    clock.gaps = [[0.0, 1.0], [2.0, 5.0], [6.0, 6.0]]
    assert clock.seconds((3.0, 0)) == pytest.approx(3.0 / 2.0)   # median of 1, 2, 2, 9
    assert clock.seconds((3.0, 1)) == pytest.approx(3.0 / 3.0)   # median of 2, 2, 9, 4
    assert clock.elapsed() == pytest.approx(1.0 / 2.0 + 3.0 / 3.0)


def _tied_table():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 4))
    m[5] = m[2]  # rows 2 and 5 tie for every query
    return m


def test_oracle_breaks_ties_by_ascending_id():
    m = _tied_table()
    ids, _ = session.oracle_top(m, np.linalg.norm(m, axis=1), m[2], 3)
    assert list(ids[:2]) == [2, 5]


def test_oracle_catches_misordered_tie():
    m = _tied_table()
    good = objectives.build_neighbor_index(objectives.EmbeddingTable(matrix=m), 3)
    assert session.index_mismatches(good, m, range(len(m))) == []
    ids = good.ids.copy()
    ids[2, :2] = ids[2, [1, 0]]
    bad = objectives.NeighborIndex(k=3, ids=ids)
    assert session.index_mismatches(bad, m, range(len(m))) == [2]


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == session.END_TO_END_UNITS
    layer = tracing.summarize(tracing.Tracer())
    layer["trace_overhead_frac"] = (0.0, "fraction")
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: u for k, (_, u) in
                                                                layer.items()}
    assert [w["name"] for w in doc["workloads"]] == list(session.SPECS)


def test_toy_traced_run_is_correct(capsys):
    assert run.main(["--workload", "toy", "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["model.forward.calls"]["value"] > 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "toy",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
