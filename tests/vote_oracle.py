"""Independent voting oracle used by test_voting and the acceptance suite.

Groups candidate answers by pairwise equality with union-find and recomputes
combined group weights from scratch in exact Fraction arithmetic. Random
instances use dyadic weights (k/64) so float arithmetic in the production
path is exact and winners must match the oracle bit-for-bit, ties included.
``ensemble_vote`` puts one such instance through ``run_ensemble``, the
library's one vote.
"""
from __future__ import annotations

from fractions import Fraction

from qavote.corpus import Dataset, Paragraph, PredictionSet, QaItem
from qavote.metrics import normalize_answer
from qavote.voting import Combine, Equality, VoteConfig, VoteTrace, run_ensemble
from qavote.weighting import MetricBasis, WeightTable


def table_for(class_weights_by_model, global_weights, label="what", models=None):
    """WeightTable with one populated class; weights must already be valid."""
    models = tuple(models or global_weights)
    best = models[0]
    for m in models[1:]:
        if global_weights[m] > global_weights[best]:
            best = m
    table = WeightTable(
        models=models,
        metric_basis=MetricBasis.MEAN_F1,
        class_weights={label: dict(class_weights_by_model)},
        global_weights=dict(global_weights),
    )
    assert table.best_overall == best
    return table


_ONE_QUESTION = Dataset((
    Paragraph("p", "", "context", (QaItem("q", "Which answer wins?", ("gold",), (0,)),)),
))


def ensemble_vote(answers, label, table, config=VoteConfig()) -> VoteTrace:
    """The trace of ``run_ensemble`` on one question that every table model
    answers as in ``answers`` (model -> answer) and that is classed ``label``."""
    predictions = {m: PredictionSet(m, {"q": answers[m]}) for m in table.models}
    _, (trace,) = run_ensemble(_ONE_QUESTION, predictions, table, lambda _: label, config)
    return trace


def _answers_equal(a, b, equality):
    if equality is Equality.RAW:
        return a == b
    return normalize_answer(a) == normalize_answer(b)


def oracle_vote(cands, question_class, model_order, best_overall, config):
    """cands: list of (model, answer, Fraction weight). Returns (model, answer)."""
    if config.undefined_special_case and question_class == "undefined":
        for model, answer, _ in cands:
            if model == best_overall:
                return model, answer
        raise AssertionError("no candidate for best_overall")

    pos = {m: i for i, m in enumerate(model_order)}
    n = len(cands)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if _answers_equal(cands[i][1], cands[j][1], config.duplicate_equality):
                parent[find(i)] = find(j)

    groups = {}
    for idx in range(n):
        groups.setdefault(find(idx), []).append(idx)

    scored = []
    for members in groups.values():
        weights = [cands[i][2] for i in members]
        combined = sum(weights) if config.combine is Combine.SUM else max(weights)
        rank = min(pos[cands[i][0]] for i in members)
        first = min(members, key=lambda i: pos[cands[i][0]])
        scored.append((combined, rank, first, len(members)))

    if any(size >= 2 for _, _, _, size in scored):
        combined, _, first, _ = max(scored, key=lambda g: (g[0], -g[1]))
        return cands[first][0], cands[first][1]
    best_idx = min(range(n), key=lambda i: (-cands[i][2], pos[cands[i][0]]))
    return cands[best_idx][0], cands[best_idx][1]


def random_instance(rng):
    """(models, answers, class_fracs, global_fracs, question_class)."""
    models = [f"m{i}" for i in range(1, rng.randint(2, 4) + 1)]
    # alphabet includes raw-distinct / normalized-equal collisions and ""
    alphabet = rng.sample(
        ["alpha", "the alpha", "beta one", "Beta One!", "gamma delta", ""],
        k=rng.randint(1, 4),
    )
    answers = {m: rng.choice(alphabet) for m in models}
    class_fracs = {m: Fraction(rng.randint(0, 64), 64) for m in models}
    global_fracs = {m: Fraction(rng.randint(0, 64), 64) for m in models}
    question_class = rng.choice(["what", "when", "undefined"])
    return models, answers, class_fracs, global_fracs, question_class


def build_table(models, class_fracs, global_fracs, label):
    return table_for(
        {m: float(class_fracs[m]) for m in models},
        {m: float(global_fracs[m]) for m in models},
        label=label,
        models=models,
    )


ALL_CONFIGS = [
    VoteConfig(combine=combine, undefined_special_case=special, duplicate_equality=equality)
    for combine in (Combine.SUM, Combine.MAX)
    for special in (True, False)
    for equality in (Equality.NORMALIZED, Equality.RAW)
]
