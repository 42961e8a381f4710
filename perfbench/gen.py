"""Seeded synthetic inputs for the benchmark workloads.

Everything a workload reads (vocabulary, embedding table, corpus, noisy
queries and, for `serve`, a model checkpoint) is written here from the
workload seed alone, with the file formats the package documents. Nothing is
downloaded, and nothing here calls the package, so the inputs stay
byte-identical across versions of the program under test.
"""

import hashlib
import json
import struct

import numpy as np

UNK = "[UNK]"
MARKER = "##"
LETTERS = "abcdefghijklmnopqrstuvwxyz"
KEYBOARD_ROWS = ("qwertyuiop", "asdfghjkl", "zxcvbnm")
TABLE_MAGIC = b"EMBT"
CHECKPOINT_MAGIC = b"C2SW"
CHUNK_ROWS = 2048


def _letters(rng, n):
    return "".join(LETTERS[i] for i in rng.integers(0, 26, size=n))


def fixed_mix(rng, n, values):
    """`n` items cycling through `values`, shuffled: every seed gets the same
    multiset (so the same amount of work), in a different order."""
    items = [values[i % len(values)] for i in range(n)]
    rng.shuffle(items)
    return items


def make_vocab(rng, n_words, piece_frac):
    """[UNK] first, then `n_words` distinct entries; a fixed share are "##"
    pieces of 2-5 letters, the rest words of 4-10 letters."""
    n_pieces = round(n_words * piece_frac)
    shapes = ([(MARKER, 2 + i % 4) for i in range(n_pieces)]
              + [("", 4 + i % 7) for i in range(n_words - n_pieces)])
    rng.shuffle(shapes)
    entries, seen = [UNK], {UNK}
    for prefix, n in shapes:
        tok = prefix + _letters(rng, n)
        while tok in seen:  # short pieces run out of fresh strings: lengthen
            n += 1
            tok = prefix + _letters(rng, n)
        seen.add(tok)
        entries.append(tok)
    return entries


def _keyboard_neighbors():
    nbrs = {}
    for r, row in enumerate(KEYBOARD_ROWS):
        for c, ch in enumerate(row):
            adj = [row[i] for i in (c - 1, c + 1) if 0 <= i < len(row)]
            for rr in (r - 1, r + 1):
                if 0 <= rr < len(KEYBOARD_ROWS):
                    adj += [KEYBOARD_ROWS[rr][i] for i in (c - 1, c)
                            if 0 <= i < len(KEYBOARD_ROWS[rr])]
            nbrs[ch] = adj
    return nbrs


_NEIGHBORS = _keyboard_neighbors()


def noisy(word, rng, op=None):
    """One typo-style edit: 0 mistype, 1 repeat, 2 swap, 3 drop, else case toggle."""
    pos = int(rng.integers(0, len(word)))
    op = int(rng.integers(0, 5)) if op is None else op
    ch = word[pos]
    if op == 0 and ch in _NEIGHBORS:
        adj = _NEIGHBORS[ch]
        return word[:pos] + adj[int(rng.integers(0, len(adj)))] + word[pos + 1:]
    if op == 1:
        return word[:pos] + ch + word[pos:]
    if op == 2 and pos + 1 < len(word):
        return word[:pos] + word[pos + 1] + ch + word[pos + 2:]
    if op == 3 and len(word) > 1:
        return word[:pos] + word[pos + 1:]
    return word[:pos] + ch.upper() + word[pos + 1:]


def pick_words(rng, words, n, min_len=1):
    """`n` random words whose lengths form a fixed mix over the lengths
    present, so every seed asks the model for the same number of characters.
    The middle length is drawn twice as often, so a median of per-word
    timings falls inside one length's cluster rather than between two."""
    by_len = {}
    for w in words:
        if len(w) >= min_len:
            by_len.setdefault(len(w), []).append(w)
    lengths = sorted(by_len)
    out = []
    for length in fixed_mix(rng, n, lengths + [lengths[len(lengths) // 2]]):
        group = by_len[length]
        out.append(group[int(rng.integers(0, len(group)))])
    return out


def make_corpus(rng, words, n_lines, oov_frac):
    """Lines of 6-14 words. A fixed share of the words are out of vocabulary:
    half are one-edit typos of vocabulary words, half random letter strings
    of 5-30 characters, most of them short."""
    lengths = fixed_mix(rng, n_lines, list(range(6, 15)))
    total = sum(lengths)
    n_oov = round(total * oov_frac)
    oov_at = rng.permutation(total)[:n_oov]
    n_rand = n_oov // 2
    rand_lengths = fixed_mix(rng, n_rand, [5 + int(25 * ((j + 0.5) / n_rand) ** 2)
                                           for j in range(n_rand)])
    flat = pick_words(rng, words, total)
    ops = fixed_mix(rng, n_oov - n_rand, list(range(5)))
    for j, pos in enumerate(oov_at):
        flat[pos] = (_letters(rng, rand_lengths[j]) if j < n_rand
                     else noisy(flat[pos], rng, ops[j - n_rand]))
    lines, start = [], 0
    for n in lengths:
        lines.append(" ".join(flat[start:start + n]))
        start += n
    return lines


def make_queries(rng, words, n):
    """One-edit typos of vocabulary words of at least 5 letters."""
    ops = fixed_mix(rng, n, list(range(5)))
    return [noisy(w, rng, op) for w, op in zip(pick_words(rng, words, n, min_len=5), ops)]


def write_table(path, rng, rows, dim, fmt):
    """Gaussian rows scaled by 1/sqrt(dim), written in chunks to bound memory."""
    scale = 1.0 / np.sqrt(dim)
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{rows} {dim}\n")
            for row in rng.standard_normal((rows, dim)) * scale:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        return
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC + struct.pack("<II", rows, dim))
        for start in range(0, rows, CHUNK_ROWS):
            n = min(CHUNK_ROWS, rows - start)
            fh.write((rng.standard_normal((n, dim)) * scale).astype("<f4").tobytes())


def alphabet_of(entries):
    """The package's alphabet rule: marker characters, then entry characters
    in order of first appearance, special tokens skipped."""
    seen = list(dict.fromkeys(MARKER))
    for tok in entries:
        if tok != UNK:
            seen.extend(ch for ch in tok if ch not in seen)
    return seen


def write_checkpoint_v1(path, rng, entries, d_char, d_out, n_layers, n_heads):
    """A version-1 C2SW checkpoint with Xavier-uniform weights."""
    alphabet = alphabet_of(entries)
    d, dh = d_char, d_char // n_heads
    shapes = [("char_emb", (len(alphabet) + 2, d))]
    for j in range(n_layers):
        shapes += [(f"L{j}.ln1.g", (d,)), (f"L{j}.ln1.b", (d,))]
        for i in range(n_heads):
            shapes += [(f"L{j}.Wq.{i}", (d, dh)), (f"L{j}.Wk.{i}", (d, dh)),
                       (f"L{j}.Wv.{i}", (d, dh))]
        shapes += [(f"L{j}.Wo", (d, d)), (f"L{j}.ln2.g", (d,)), (f"L{j}.ln2.b", (d,)),
                   (f"L{j}.W1", (d, 4 * d)), (f"L{j}.b1", (4 * d,)),
                   (f"L{j}.W2", (4 * d, d)), (f"L{j}.b2", (d,))]
    shapes += [("We", (d, d_out)), ("be", (d_out,)),
               ("ln_out.g", (d_out,)), ("ln_out.b", (d_out,))]
    header = {
        "config": {"d_char": d_char, "d_out": d_out, "n_layers": n_layers,
                   "n_heads": n_heads, "max_chars": 32, "ln_eps": 1e-5,
                   "standard_preln": False},
        "alphabet": alphabet,
        "marker_on_full_words": True,
        "manifest": [[name, shape[0], shape[1] if len(shape) == 2 else 0]
                     for name, shape in shapes],
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob)
        for name, shape in shapes:
            if len(shape) == 2:
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                arr = rng.uniform(-bound, bound, size=shape)
            elif name.endswith(".g"):
                arr = np.ones(shape)
            else:
                arr = np.zeros(shape)
            fh.write(arr.astype("<f8").tobytes())


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(spec, seed, out_dir):
    """Write every input of one workload into `out_dir`; returns {name: path}.

    Each file draws from its own child stream of the seed. The checkpoint
    is the CLI's default model: d_char 16, 2 layers, 2 heads.
    """
    streams = np.random.SeedSequence([seed, spec["words"], spec["dim"]]).spawn(5)
    rng_vocab, rng_table, rng_corpus, rng_query, rng_ckpt = (
        np.random.default_rng(s) for s in streams)
    entries = make_vocab(rng_vocab, spec["words"], spec["piece_frac"])
    words = [t for t in entries if t != UNK and not t.startswith(MARKER)]
    paths = {name: out_dir / name for name in ("vocab.txt", "table", "corpus.txt",
                                               "queries.txt")}
    paths["vocab.txt"].write_text("\n".join(entries) + "\n", encoding="utf-8")
    write_table(paths["table"], rng_table, len(entries), spec["dim"], spec["table_format"])
    corpus = make_corpus(rng_corpus, words, spec["lines"], spec["oov_frac"])
    paths["corpus.txt"].write_text("\n".join(corpus) + "\n", encoding="utf-8")
    queries = make_queries(rng_query, words, spec["queries"])
    paths["queries.txt"].write_text("\n".join(queries) + "\n", encoding="utf-8")
    if spec["checkpoint"]:
        paths["model.c2sw"] = out_dir / "model.c2sw"
        write_checkpoint_v1(paths["model.c2sw"], rng_ckpt, entries, d_char=16,
                            d_out=spec["dim"], n_layers=2, n_heads=2)
    return paths
