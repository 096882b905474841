"""Related-work baseline recommenders (Section 6).

Non-neural next-location predictors the paper positions itself against:
global popularity ranking, order-m Markov chains (Zhang et al.), and
implicit-feedback matrix factorization (Lian et al.). They share the
scoring interface of :class:`repro.models.recommender.NextLocationRecommender`
(``score_all`` / ``recommend``) so the leave-one-out evaluator runs on all
of them unchanged.
"""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it, in ``__all__`` order.
_EXPORTS = {
    "PopularityRecommender": "repro.baselines.popularity",
    "MarkovChainRecommender": "repro.baselines.markov",
    "MatrixFactorizationRecommender": "repro.baselines.matrix_factorization",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
