"""Differential-privacy substrate.

This package implements everything the paper's Algorithm 1 needs from the
DP literature, from scratch:

- the Gaussian mechanism (:mod:`repro.privacy.mechanisms`),
- gradient/update clipping (:mod:`repro.privacy.clipping`),
- the sensitivity model of the Gaussian sum query over buckets, including
  the split factor ``omega`` of Section 4.2 (:mod:`repro.privacy.sensitivity`),
- the moments accountant / subsampled-RDP machinery used to track the
  cumulative privacy loss of iterative training
  (:mod:`repro.privacy.accountant`).
"""

from repro.privacy.clipping import (
    clip_by_global_norm,
    clip_tensor,
    per_layer_clip_bound,
)
from repro.privacy.mechanisms import GaussianMechanism
from repro.privacy.sensitivity import GaussianSumQuerySensitivity
from repro.privacy.accountant import (
    MomentsAccountant,
    PrivacyLedger,
    calibrate_noise_multiplier,
    compute_epsilon,
    compute_rdp_sampled_gaussian,
    max_steps_for_budget,
)

__all__ = [
    "GaussianMechanism",
    "clip_tensor",
    "clip_by_global_norm",
    "per_layer_clip_bound",
    "GaussianSumQuerySensitivity",
    "MomentsAccountant",
    "PrivacyLedger",
    "compute_rdp_sampled_gaussian",
    "compute_epsilon",
    "calibrate_noise_multiplier",
    "max_steps_for_budget",
]
