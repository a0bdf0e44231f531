"""Frozen kernel fixtures: named tensors in JSON with expected outputs."""

import json
from pathlib import Path

import numpy as np
import pytest

from entkit import kernels

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "kernel_golden.json").read_text())


def _evaluate(case):
    op = case["op"]
    if op == "span_count":
        return kernels.span_count(case["num_tokens"], case["max_width"])
    if op == "multilabel_bce_loss":
        return kernels.multilabel_bce_loss(case["scores"], case["indicators"])
    if op == "coref_marginal_loss":
        return kernels.coref_marginal_loss(
            np.array(case["scores"]),
            [set(g) for g in case["gold_antecedents"]])
    if op == "coref_confidence":
        return kernels.coref_confidence(np.array(case["scores"]))[:, case["j"]]
    if op == "coref_update_vector":
        # the confidences enter as column j's log-scores, whose softmax they are
        conf, j = np.array(case["confidences"]), case["j"]
        scores = np.zeros((len(conf), len(conf)))
        scores[: j + 1, j] = np.log(conf[: j + 1])
        return kernels.coref_update_vectors(scores, np.array(case["vectors"]))[j]
    if op == "relation_update_vector":
        return kernels.relation_update_vectors(
            np.array(case["relation_scores"]), np.array(case["projection"]),
            np.array(case["vectors"]))[case["j"]]
    if op == "attention_update_vectors":
        return kernels.attention_update_vectors(
            np.array(case["scores"]), np.array(case["vectors"]))
    if op == "gated_span_update":
        gate = kernels.GateTransform(np.array(case["weight"]),
                                     np.array(case["bias"]))
        return kernels.gated_span_update(
            np.array(case["g"]), np.array(case["u"]), gate)
    if op == "joint_loss":
        return kernels.joint_loss(*case["losses"], *case["weights"])
    raise ValueError(f"unknown op {op!r}")


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{c['op']}-{i}"
                              for i, c in enumerate(GOLDEN["cases"])])
def test_golden_case(case):
    got = np.asarray(_evaluate(case), dtype=float)
    expected = np.asarray(case["expected"], dtype=float)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, atol=1e-9, rtol=0)
