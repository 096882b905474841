"""NumPy neural-network substrate.

The paper trains its skip-gram in TensorFlow; this package is the
from-scratch replacement: named parameter sets, initializers, numerically
stable primitives, the three candidate-sampling losses (sampled softmax,
NCE, sigmoid negative sampling) with exact analytic gradients, and the
DP-Adam server optimizer.
"""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it, in ``__all__`` order.
_EXPORTS = {
    "ParameterSet": "repro.nn.parameters",
    "uniform_embedding_init": "repro.nn.initializers",
    "zeros_init": "repro.nn.initializers",
    "softmax": "repro.nn.functional",
    "log_softmax": "repro.nn.functional",
    "sigmoid": "repro.nn.functional",
    "logsumexp": "repro.nn.functional",
    "one_hot": "repro.nn.functional",
    "SampledSoftmaxLoss": "repro.nn.losses",
    "NegativeSamplingLoss": "repro.nn.losses",
    "NoiseContrastiveEstimationLoss": "repro.nn.losses",
    "make_loss": "repro.nn.losses",
    "DPAdam": "repro.nn.optimizers",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
