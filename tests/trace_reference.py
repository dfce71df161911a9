"""Reference trace encoding for test_voting: a trace as a plain JSON dict.

The straightforward encoding that ``voting.save_traces`` replaced: build each
trace's dict from its derived ``candidates`` and ``winner`` and the groups
named by its ``index_groups``, and hand it to ``json.dumps``. Every line
``save_traces`` writes must equal
``json.dumps(trace_json_dict(trace), ensure_ascii=False)`` plus a newline.
"""
from __future__ import annotations

from qavote.voting import VoteTrace


def trace_json_dict(trace: VoteTrace) -> dict:
    return {
        "question_id": trace.question_id,
        "question_class": trace.question_class,
        "candidates": [
            {"model": c.model, "answer": c.answer, "weight": c.weight}
            for c in trace.candidates
        ],
        "groups": [
            {
                "answer": trace.answers[members[0]],
                "models": [trace.models[i] for i in members],
                "combined_weight": combined,
            }
            for members, combined in trace.index_groups
        ],
        "winner": {"model": trace.winner.model, "answer": trace.winner.answer},
        "reason": trace.reason.value,
    }
