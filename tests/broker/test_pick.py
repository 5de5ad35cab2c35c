"""The fleet round's pick in array passes against the greedy loop it replaced.

Small caps and windows make every cap bind and every window carry a
request's room over, far more often than a real round does.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import broker as broker_module


def greedy(src, key, seg, per_cap: int, fleet_cap: int) -> list[int]:
    """Row by row: the request's room at its turn, the source cap, the keys taken."""
    picked, sent, seen = [], {}, set()
    for turn in dict.fromkeys(seg):
        room = min(per_cap, fleet_cap - len(picked))
        if room <= 0:
            break
        launched = 0
        for row in (at for at, each in enumerate(seg) if each == turn):
            if sent.get(src[row], 0) >= per_cap or key[row] in seen:
                continue
            seen.add(key[row])
            sent[src[row]] = sent.get(src[row], 0) + 1
            picked.append(row)
            launched += 1
            if launched >= room:
                break
    return picked


_PAIRS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=1, max_size=10, unique=True
)


@settings(max_examples=300, deadline=None)
@given(
    requests=st.lists(_PAIRS, max_size=10),
    per_cap=st.integers(1, 6),
    fleet_cap=st.integers(1, 40),
    window=st.integers(1, 9),
)
def test_array_pick_is_the_greedy_loop(requests, per_cap, fleet_cap, window):
    rows = [(s, d, turn) for turn, pairs in enumerate(requests) for s, d in pairs]
    src = np.array([s for s, _d, _t in rows], dtype=np.int64)
    key = np.array([(s * 6 + d) * 2 + t % 2 for s, d, t in rows], dtype=np.int64)
    seg = np.array([t for _s, _d, t in rows], dtype=np.int64)
    with mock.patch.multiple(
        broker_module,
        MAX_INJECTED_PER_AGENT_ROUND=per_cap,
        MAX_INJECTED_PER_FLEET_ROUND=fleet_cap,
        _PICK_WINDOW=window,
    ):
        picked = np.flatnonzero(broker_module._pick_rows(src, key, seg)).tolist()
    assert picked == greedy(src.tolist(), key.tolist(), seg.tolist(), per_cap, fleet_cap)
