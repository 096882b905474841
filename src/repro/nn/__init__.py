"""NumPy neural-network substrate.

The paper trains its skip-gram in TensorFlow; this package is the
from-scratch replacement: named parameter sets, initializers, numerically
stable primitives, the three candidate-sampling losses (sampled softmax,
NCE, sigmoid negative sampling) with exact analytic gradients, and the
DP-Adam server optimizer.
"""

from repro.nn.parameters import ParameterSet
from repro.nn.initializers import uniform_embedding_init, zeros_init
from repro.nn.functional import (
    log_softmax,
    logsumexp,
    one_hot,
    sigmoid,
    softmax,
)
from repro.nn.losses import (
    NegativeSamplingLoss,
    NoiseContrastiveEstimationLoss,
    SampledSoftmaxLoss,
    make_loss,
)
from repro.nn.optimizers import DPAdam

__all__ = [
    "ParameterSet",
    "uniform_embedding_init",
    "zeros_init",
    "softmax",
    "log_softmax",
    "sigmoid",
    "logsumexp",
    "one_hot",
    "SampledSoftmaxLoss",
    "NegativeSamplingLoss",
    "NoiseContrastiveEstimationLoss",
    "make_loss",
    "DPAdam",
]
