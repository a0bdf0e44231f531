"""Entity-centric document-level IE toolkit.

Corpus model and validation, entity-centric decoding of span predictions,
mention/hard/soft evaluation metrics, coreference scoring, relation
consistency rules, inter-annotator agreement, corpus statistics, and the
numeric kernels behind span-graph propagation models.
"""

from .corpus import (Document, EntityCluster, Finding, Mention, RelationTriple,
                     UNANNOTATED, ValidationReport, parse_corpus,
                     relation_positions, serialize_corpus, validate_document)
from .decoder import DecodeInput, DecodeOutput, decode_entity_centric
from .metrics import (EvalView, PRFReport, build_eval_view, hard_entity_prf,
                      mention_prf, per_label_prf, soft_entity_counts,
                      soft_entity_prf)
from .coref import (avg_coref_f1, b_cubed, ceaf_e, corpus_partition,
                    make_partition, muc, partition_from_document)
from .rules import (Atom, FactBase, Rule, builtin_ruleset, check_violations,
                    closure, facts_from_document, ground, load_ruleset)
from .agreement import (AnnotationPair, cohen_kappa, expected_agreement,
                        multilabel_kappa, observed_agreement)
from .stats import (CorpusSummary, DistanceProfile, corpus_summary,
                    entity_type_histogram, multilabel_relation_histogram,
                    prior_link_baseline, relation_distance_profile,
                    relation_type_histogram)
from .kernels import (GateTransform, ScoreSet, SpanVectors,
                      attention_propagation, augment_with_pruner,
                      coref_confidence, coref_marginal_loss, gated_span_update,
                      joint_loss, multilabel_bce_loss, span_count)

__version__ = "0.1.0"
