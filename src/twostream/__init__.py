"""twostream: a from-scratch sequence/video action classification toolkit.

Two streams — recurrent networks over skeleton joint tracks and a 3D convnet
over video clips — trained with exact hand-written backpropagation, then
combined by confidence voting or by feature concatenation into a linear SVM.
"""

import os
import sys

from .parallel import BLAS_THREAD_VARIABLES

# One BLAS thread per process unless the caller set a count: independent
# chunks and trainings then fork onto every usable core (twostream.parallel),
# which beats BLAS threads on these small matrices. OpenBLAS reads the
# variable only when numpy loads, so a caller that loaded numpy first keeps
# its threads, and `parallel.blas_threads` counts them.
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in BLAS_THREAD_VARIABLES):
    os.environ[BLAS_THREAD_VARIABLES[0]] = "1"

from .tensor import (
    Rng,
    concat_last,
    l2_normalize,
    softmax,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    DivergenceError,
)
from .fileio import read_checkpoint, read_tensor, write_checkpoint, write_tensor
from .recurrent import (
    BidirectionalLayer,
    GruCell,
    LstmCell,
    RnnCell,
    SequenceBatch,
    init_gru_cell,
    init_lstm_cell,
    init_rnn_cell,
    param_count,
    stack,
    unroll,
)
from .normreg import (
    BatchNormParams,
    DropoutConfig,
    batchnorm_backward,
    batchnorm_forward,
    dropout,
    init_batchnorm,
)
from .conv3d import (
    C3dSpec,
    Conv3dParams,
    build_c3d,
    clip_average,
    clip_split,
    conv3d_backward,
    conv3d_forward,
    desk_scale_c3d_spec,
    full_scale_c3d_spec,
    maxpool3d,
    maxpool3d_backward,
)
from .heads import (
    DenseParams,
    SvmModel,
    dense_backward,
    dense_forward,
    init_dense,
    softmax_xent,
    svm_predict,
    svm_train,
)
from .optim import RmspropState, SgdHalvingState, rmsprop_step, sgd_halving_step
from .fusion import Prediction, TrustWeights, decision_fuse, feature_fuse, search_trust_weights
from .data import (
    Dataset,
    Sample,
    SkeletonSequence,
    SplitSpec,
    SynthConfig,
    VideoVolume,
    generate_synthetic,
    make_splits,
    pad_sequences,
)
from .models import LADDER_VARIANTS, ModelSpec, build_model, load_model, save_model
from .harness import (
    GradcheckReport,
    RunResult,
    TrainConfig,
    evaluate,
    extract_features,
    gradcheck_all,
    infer_dataset,
    run_fusion,
    run_ladder,
    steps_to_threshold,
    train,
)

__version__ = "0.1.0"
