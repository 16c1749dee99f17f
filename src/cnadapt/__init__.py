"""Topic-mixture language model adaptation from ASR confusion networks."""

import os

__version__ = "0.1.0"

# One BLAS/OpenMP thread unless the user has set a count in any of these,
# set before numpy first loads: a fit's matrix products are small, and a
# BLAS thread waiting for a busy core stalls them.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _THREAD_VARS):
    for var in _THREAD_VARS:
        os.environ[var] = "1"

from .adapt import (  # noqa: F401
    EstimatorConfig,
    FitResult,
    adapted_unigram,
    fit,
)
from .channel import ChannelModel, estimate_channel  # noqa: F401
from .corpus import (  # noqa: F401
    Bin,
    ConfusionNetwork,
    Conversation,
    Vocabulary,
    parse_conversation,
    prune_bin,
    serialize_conversation,
)
from .metrics import ReferenceCorpus, constrained_perplexity, perplexity  # noqa: F401
from .synth import SynthSpec, sample_conversation  # noqa: F401
from .topics import (  # noqa: F401
    MixtureWeights,
    TopicModel,
    mu_to_lambda,
    train_topic_model,
)
