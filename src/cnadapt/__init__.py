"""Topic-mixture language model adaptation from ASR confusion networks."""

__version__ = "0.1.0"

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
