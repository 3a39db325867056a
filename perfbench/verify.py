"""Bit-exact verification of recorded serving responses, after the timed phase.

Every ``ok`` response is checked with the load tester's own comparison
(:func:`repro.serve.loadtest._verify`) against one single-process
:class:`~repro.serve.InferenceEngine` in the same retrieval mode.
"""

from __future__ import annotations

import json
import threading

from repro.serve.loadtest import _verify


def verify(records, reference) -> list[str]:
    """One mismatch description per ``ok`` record that is not bit-exact."""
    lock = threading.Lock()
    verdicts: dict[str, str | None] = {}
    mismatches = []
    for record in records:
        if record.status != "ok":
            continue
        # Hot users repeat: a request answered with the same payload is
        # checked once (an exact scan of the grown catalog costs ~18 ms).
        key = json.dumps(
            [
                {k: v for k, v in record.request.items() if k != "id"},
                {k: v for k, v in record.response.items() if k != "id"},
            ],
            sort_keys=True,
        )
        if key not in verdicts:
            verdicts[key] = _verify(record.response, record.request, reference, lock)
        if verdicts[key] is not None:
            mismatches.append(f"{record.phase} #{record.request.get('id')}: {verdicts[key]}")
    return mismatches
