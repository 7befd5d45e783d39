"""hashbound: learning-to-hash with sphere-packing-derived loss margins.

The package derives provably extremal inner-product margins for a pairwise
hinge loss from exact packing-bound arithmetic, trains a small MLP encoder
with hand-rolled backprop to emit binary codes, and evaluates retrieval with
an exact Hamming-distance ranking engine.
"""

from .bounds import (
    BoundProblem,
    MarginSet,
    bound_holds,
    derive_margins,
    margins_from_negative,
    solve_target_distance,
    sphere_volume,
)
from .codes import (
    BinaryCode,
    Codebook,
    codebook_min_distance,
    correction_radius,
    flip_bits,
    from_bits,
    from_signs,
    hamming_distance,
    inner_product,
    nearest_codeword,
)
from .data import (
    DatasetSplits,
    FeatureDataset,
    SplitSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_dataset,
)
from .encoder import (
    EncoderParams,
    EpochRecord,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    encode,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .evaluation import (
    EvalReport,
    average_precision,
    class_center_codes,
    mean_average_precision,
)
from .losses import (
    ClassCenters,
    LossReport,
    total_loss,
)

__version__ = "0.1.0"
