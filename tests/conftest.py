import numpy as np
import pytest

import char2subword as c2s
from char2subword import objectives
from char2subword.noise import DEFAULT_PUNCTUATION, NoiseConfig, default_layouts

TOY_WORDS = """apple about above actor admit after again agent
alarm alert alike alive allow alone among anger angle
ankle apart arena argue arise armor array aside asset
avoid awake award aware badge baker basic batch beach
beard begin being below bench berry birth black blade
blame blank blast blend bless""".split()


# filled by tests/test_acceptance.py; echoed after the run so the
# per-criterion verdicts survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_vocab():
    return c2s.load_vocabulary(TOY_WORDS[:49] + ["[UNK]"])


@pytest.fixture(scope="session")
def toy_alphabet(toy_vocab):
    # uppercase and punctuation only ever appear via noise, so they must be
    # representable even though no vocabulary entry contains them
    extra = "".join(sorted(set("".join(TOY_WORDS).upper())))
    extra += "".join(DEFAULT_PUNCTUATION)
    # one more entry holding them puts them after the vocabulary's own characters
    return c2s.build_alphabet(c2s.load_vocabulary([*toy_vocab.entries, extra]))


@pytest.fixture(scope="session")
def toy_table():
    rng = np.random.default_rng(42)
    e = rng.normal(size=(50, 16))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return c2s.EmbeddingTable(matrix=e)


@pytest.fixture(scope="session")
def tiny_config():
    return c2s.ModelConfig(d_char=8, d_out=16, n_layers=2, n_heads=2)


@pytest.fixture(scope="session")
def noise_config():
    return NoiseConfig(layouts=tuple(default_layouts()))


@pytest.fixture
def tile_log(monkeypatch):
    """The (row slice, column slice) of every tile objectives.tiles yields during
    the test: one list per pass over the table."""
    passes = []
    tiles = objectives.tiles

    def logged(rows, e_table, fn):
        passes.append([])
        for blk, cols, result in tiles(rows, e_table, fn):
            passes[-1].append((blk, cols))
            yield blk, cols, result

    monkeypatch.setattr(objectives, "tiles", logged)
    return passes


def products(rows, e_table):
    """objectives.tiles with each tile's product as its result."""
    return objectives.tiles(rows, e_table, lambda blk, cols, product: product)


def grid(tiles):
    """(row blocks, column tiles) of one logged pass."""
    return len({blk.start for blk, _ in tiles}), len({cols.start for _, cols in tiles})
