"""char2subword: a character-level transformer that mimics a frozen subword
embedding table, with noise-robust training, character-level MLM
pre-training, full/hybrid embedding modes, and a neighbor-precision
evaluation suite."""

from .embedder import EmbedMode, embed_sequence
from .evaluation import (
    PrecisionReport,
    accuracy,
    dump_attention,
    neighbor_query,
    precision_at_k,
    seq_length_stats,
)
from .model import (
    Char2SubwordParams,
    ModelConfig,
    backward,
    backward_batch,
    encode,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    table_param_count,
)
from .noise import KeyboardLayout, NoiseConfig, apply_op, load_layouts, sample_noisy
from .objectives import (
    EmbeddingTable,
    LossWeights,
    NeighborIndex,
    build_neighbor_index,
    combined_loss,
    combined_loss_gradient,
    load_table,
    loss_and_grad,
    loss_ce,
    loss_cos,
    loss_l2,
    loss_nbr,
)
from .training import (
    MaskingPlan,
    TrainConfig,
    make_masking_plan,
    mlm_step,
    pretrain_mlm,
    train_simulation,
)
from .vocab import (
    CharAlphabet,
    Vocabulary,
    build_alphabet,
    char_sequence,
    load_vocabulary,
    tokenize_word,
    whitespace_split,
)

__version__ = "0.1.0"
