"""Agreement and distance coverage against the brute-force oracles.

The library computes kappa from contingency counts and coverage from sorted
columns; the oracles in `oracles.py` write every item out and count every
threshold. Both must give the same floats exactly, not approximately.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entkit.agreement import (AnnotationPair, cohen_kappa, coref_agreement,
                              entity_agreement, expected_agreement,
                              linking_agreement, observed_agreement,
                              relation_agreement)
from entkit.corpus import UNANNOTATED
from entkit.stats import (DistanceProfile, DistanceRecord,
                          relation_distance_profile)
from conftest import make_doc
from oracles import (brute_force_coref_agreement, brute_force_kappa,
                     brute_force_labelled_agreement,
                     brute_force_linking_agreement, naive_coverage_table,
                     span_pair_types, span_tags)

SPAN_POOL = [(b, b + w) for b in range(9) for w in (1, 2)]
SENTENCES = ((0, 4), (4, 7), (7, 10))


@st.composite
def documents(draw, doc_id):
    """A 10-token, 3-sentence document whose spans come from a small shared
    pool, so two independent draws overlap, split and merge clusters."""
    spans = draw(st.lists(st.sampled_from(SPAN_POOL), unique=True, max_size=8))
    owners = [draw(st.integers(0, 3)) for _ in spans]
    clusters = []
    for k in sorted(set(owners)):
        clusters.append((
            f"c{k}", [s for s, o in zip(spans, owners) if o == k],
            draw(st.sets(st.sampled_from(["L1", "L2", "L3"]))),
            draw(st.sampled_from([UNANNOTATED, None, "K1", "K2"]))))
    relations = []
    if len(clusters) >= 2:
        ids = [c[0] for c in clusters]
        for head, tail, rel_type in draw(st.lists(st.tuples(
                st.sampled_from(ids), st.sampled_from(ids),
                st.sampled_from(["R1", "R2"])), max_size=5)):
            if head != tail and (head, rel_type, tail) not in relations:
                relations.append((head, rel_type, tail))
    return make_doc(doc_id, n_tokens=10, sentences=SENTENCES,
                    clusters=clusters, relations=relations)


@st.composite
def corpus_pairs(draw):
    ids = [f"d{i}" for i in range(draw(st.integers(1, 3)))]
    return ([draw(documents(i)) for i in ids],
            [draw(documents(i)) for i in ids])


def _check(adapter, expected, *args, **kwargs):
    if expected is None:
        with pytest.raises(ValueError):
            adapter(*args, **kwargs)
    else:
        assert adapter(*args, **kwargs) == expected


@settings(max_examples=150, deadline=None)
@given(corpus_pairs(), st.booleans())
def test_adapters_equal_item_list_oracles(pair, conditioned):
    a, b = pair
    _check(entity_agreement,
           brute_force_labelled_agreement(a, b, span_tags, conditioned),
           a, b, conditioned=conditioned)
    _check(relation_agreement,
           brute_force_labelled_agreement(a, b, span_pair_types, conditioned),
           a, b, conditioned=conditioned)
    _check(coref_agreement, brute_force_coref_agreement(a, b), a, b)
    _check(linking_agreement, brute_force_linking_agreement(a, b), a, b)
    records = relation_distance_profile(a).records
    assert DistanceProfile(records).coverage_table() \
        == naive_coverage_table(records)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
                min_size=1, max_size=20))
def test_pair_from_items_or_counts_equals_oracle(items):
    expected = brute_force_kappa(items)
    for p in (AnnotationPair(tuple(items)), AnnotationPair(Counter(items))):
        assert {"n_items": len(p), "p_o": observed_agreement(p),
                "p_e": expected_agreement(p), "kappa": cohen_kappa(p)} \
            == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(DistanceRecord, *[st.integers(0, 6)] * 4),
                max_size=12))
@example([])
@example([DistanceRecord(0, 0, 0, 0)] * 3)
def test_coverage_table_equals_per_threshold_counts(records):
    assert DistanceProfile(records).coverage_table() \
        == naive_coverage_table(records)
