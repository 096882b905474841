"""The skip-gram location model (Figure 2 of the paper).

Locations are tokenized like words (:mod:`repro.models.vocabulary`), user
check-in histories are treated as sentences from which symmetric context
windows produce (target, context) training pairs
(:mod:`repro.models.windowing`), and the SGNS network with parameters
``theta = {W, W', B'}`` is trained with a candidate-sampling loss
(:mod:`repro.models.skipgram`). Trained embeddings are unit-normalized
(:mod:`repro.models.embeddings`) and ranked by cosine similarity for
next-location recommendation (:mod:`repro.models.recommender`).
"""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it, in ``__all__`` order.
_EXPORTS = {
    "LocationVocabulary": "repro.models.vocabulary",
    "pairs_from_sequence": "repro.models.windowing",
    "pairs_from_sequences": "repro.models.windowing",
    "BatchIterator": "repro.models.windowing",
    "SkipGramModel": "repro.models.skipgram",
    "EmbeddingMatrix": "repro.models.embeddings",
    "NextLocationRecommender": "repro.models.recommender",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
