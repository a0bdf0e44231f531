"""Every fold a paired command merges gives one fold's report.

`score` and `kappa` may fold runs of document pairs in worker processes and
merge the folds in the parent (`corpus.fold_files`). Each fold keeps exact
state: ints, and floats as a multiset of terms summed by `math.fsum`. So
cutting the pairs anywhere, folding each part in its own (pickled) fold and
merging the parts in any order must give the report of one fold over all
the pairs, byte for byte, errors included.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import agreement, coref, metrics
from entkit.corpus import cluster_overlaps
from test_oracle_properties import documents


def _score(task):
    return (lambda: metrics.ScoreFold(metrics.LEVELS),
            lambda fold, g, p: fold.add(metrics.build_eval_view(g, p, task)),
            lambda fold: fold.report(per_label=True))


FOLDS = {
    "score-ner": _score("ner"),
    "score-re": _score("re"),
    "score-coref": (coref.CorefFold, lambda fold, g, p: fold.add(cluster_overlaps(g, p)),
                    coref.CorefFold.report),
    **{f"kappa-{task}{'-conditioned' * conditioned}": (
        lambda task=task, conditioned=conditioned: agreement.agreement_fold(task, conditioned),
        lambda fold, g, p: fold.add(g, p),
        lambda fold: fold.result())
       for task, conditioned in [("entity", False), ("entity", True), ("relation", False),
                                 ("relation", True), ("coref", False), ("linking", False)]},
}


def _report(report, fold) -> str:
    try:
        return json.dumps(report(fold), indent=2, sort_keys=True)
    except ValueError as e:
        return f"error: {e}"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(documents("d"), documents("d")), min_size=1, max_size=8),
       st.data())
def test_merged_folds_report_as_one_fold(pairs, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
    parts = [pairs[i:j] for i, j in zip([0, *cuts], [*cuts, len(pairs)])]
    order = data.draw(st.permutations(range(len(parts))))
    for name, (make, add, report) in FOLDS.items():
        whole = make()
        for g, p in pairs:
            add(whole, g, p)
        folds = []
        for part in parts:
            fold = make()
            for g, p in part:
                add(fold, g, p)
            folds.append(pickle.loads(pickle.dumps(fold)))  # as a worker sends it
        merged = folds[order[0]]
        for k in order[1:]:
            merged.merge(folds[k])
        assert _report(report, merged) == _report(report, whole), name


def test_score_fold_refuses_to_merge_another_task():
    ner, re = metrics.ScoreFold(["hard"]), metrics.ScoreFold(["hard"])
    ner.task, re.task = "ner", "re"
    empty = metrics.ScoreFold(["hard"])
    ner.merge(empty)
    empty.merge(ner)
    assert (ner.task, empty.task) == ("ner", "ner")
    with pytest.raises(ValueError, match=r"cannot mix tasks \['ner', 're'\]"):
        ner.merge(re)
