"""Entity-centric document-level IE toolkit.

Corpus model and validation, entity-centric decoding of span predictions,
mention/hard/soft evaluation metrics, coreference scoring, relation
consistency rules, inter-annotator agreement, corpus statistics, and the
numeric kernels behind span-graph propagation models.
"""

import importlib

from .corpus import (Document, EntityCluster, Finding, Mention, RelationTriple,
                     UNANNOTATED, ValidationReport, parse_corpus,
                     relation_positions, serialize_corpus, validate_document)
from .decoder import DecodeInput, DecodeOutput, decode_entity_centric
from .metrics import (EvalView, PRFReport, build_eval_view, hard_entity_prf,
                      mention_prf, per_label_prf, soft_entity_counts,
                      soft_entity_prf)
from .coref import (avg_coref_f1, b_cubed, ceaf_e, corpus_partition,
                    make_partition, muc)
from .rules import (Atom, FactBase, Rule, builtin_ruleset, check_violations,
                    closure, facts_from_document, ground, load_ruleset)
from .agreement import (AnnotationPair, cohen_kappa, expected_agreement,
                        multilabel_kappa, observed_agreement)
from .stats import (CorpusSummary, DistanceProfile, corpus_summary,
                    entity_type_histogram, multilabel_relation_histogram,
                    prior_link_baseline, relation_distance_profile,
                    relation_type_histogram)

# The numeric kernels are the only part that needs numpy. Their names, and
# `entkit.kernels` itself, load on first use (PEP 562), so the corpus
# commands start without numpy.
_KERNEL_NAMES = frozenset({
    "GateTransform", "ScoreSet", "SpanVectors", "attention_propagation",
    "augment_with_pruner", "coref_confidence", "coref_marginal_loss",
    "gated_span_update", "joint_loss", "multilabel_bce_loss", "span_count"})


def __getattr__(name: str):
    if name == "kernels" or name in _KERNEL_NAMES:
        kernels = importlib.import_module(".kernels", __name__)
        return kernels if name == "kernels" else getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
