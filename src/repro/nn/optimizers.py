"""The DP-Adam server optimizer.

The *outer* (server) update of Algorithm 1 can be the plain additive rule
of line 10 (``theta += g_hat``) or the differentially private Adam variant
the paper describes in Section 5.1: "we implement the optimizer in a
differentially private manner by tracking an exponential moving average of
the noisy gradient and the squared noisy gradient" (Gylberth et al. 2017).
Because the DP noise is injected *before* the optimizer sees the update,
DP-Adam is mathematically Adam applied to the noisy pseudo-gradient —
which is exactly what :class:`DPAdam` is.

The optimizer uses the *minimize* convention: ``step(params, grads)``
performs ``params -= f(grads)``. Callers holding an ascent-style update
``u`` (e.g. the averaged noisy delta) pass ``grads = {k: -u[k]}``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.nn.parameters import ParameterSet

Grads = dict[str, np.ndarray]


class DPAdam:
    """Adam (Kingma & Ba 2015) driven by already-noised gradients.

    Differential privacy is guaranteed by the Gaussian perturbation applied
    *before* this optimizer runs (post-processing preserves DP), so the
    moment updates themselves are plain Adam with bias-corrected moment
    estimates; the exponential moving averages it tracks are of the
    *noisy* gradient and its square, exactly as the paper describes in
    Section 5.1.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0:
            raise ConfigError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"beta2 must be in [0, 1), got {beta2}")
        if epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first_moment: Grads = {}
        self._second_moment: Grads = {}
        self._step_count = 0

    def step(self, params: ParameterSet, grads: Grads) -> None:
        """Apply one update in place: ``params -= update(grads)``."""
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for name, grad in grads.items():
            m = self._first_moment.get(name)
            v = self._second_moment.get(name)
            if m is None:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * np.square(grad)
            self._first_moment[name] = m
            self._second_moment[name] = v
            m_hat = m / bias1
            v_hat = v / bias2
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        """Clear the moment estimates and the step counter."""
        self._first_moment.clear()
        self._second_moment.clear()
        self._step_count = 0
