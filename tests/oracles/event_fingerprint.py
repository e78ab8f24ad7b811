"""The event-log fingerprint as bulk JSON, frozen as the tap's oracle.

Before :class:`repro.load.clients.FingerprintTap` wrote each event's
bytes with one format string, the fingerprint was sha256 of
``json.dumps`` over the whole log.  This module keeps that serialization
verbatim so ``tests/load/test_engine.py`` can demand equal digests on
random logs.  It is a test oracle only: nothing under ``src/`` imports
it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro.load.clients import ClientEvent


def event_log_fingerprint(events: Sequence[ClientEvent]) -> str:
    blob = json.dumps(
        [event.as_dict() for event in events],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()
