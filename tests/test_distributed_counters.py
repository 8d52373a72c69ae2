"""Golden per-rank counters of the distributed COnfLUX/COnfCHOX runs.

The distributed view may batch its host-side selection and indexing,
but it must not merge, split or reorder a ship, nor reorder a store
put or discard (ARCHITECTURE.md, "Host-side batching").  Any such
change moves at least one per-rank counter or memory peak below, so
these small runs pin every one of them exactly.  The values were
recorded from the per-(source, destination) loop implementation the
batched fan-out replaced; v=8, c=2 has four reduction planes per layer,
so its Schur products go through BLAS rather than an outer product.
"""

import numpy as np
import pytest

from repro.engine import DistributedBackend
from repro.factorizations import ConfchoxSchedule, ConfluxSchedule
from repro.machine import Machine

N, P = 32, 16

GOLDEN = {
    ("lu", 2, 2): {
        "recv_words": [422, 381, 435, 392, 445, 361, 440, 375,
                       333, 419, 357, 412, 317, 415, 336, 391],
        "sent_words": [684, 597, 608, 498, 439, 425, 403, 349,
                       281, 394, 261, 362, 241, 256, 224, 209],
        "recv_msgs": [235, 236, 259, 254, 239, 221, 247, 233,
                      211, 246, 234, 255, 198, 231, 219, 225],
        "flops": [1412, 1320, 1636, 1548, 1428, 1368, 1645, 1588,
                  1104, 1484, 1368, 1667, 1168, 1477, 1416, 1662],
        "peak": [174, 156, 166, 160, 174, 152, 172, 152,
                 156, 170, 159, 160, 146, 170, 150, 170],
    },
    ("lu", 8, 2): {
        "recv_words": [544, 486, 600, 597, 616, 492, 646, 595,
                       412, 520, 500, 516, 412, 608, 512, 600],
        "sent_words": [1256, 934, 1072, 741, 624, 596, 614, 451,
                       220, 544, 220, 502, 220, 240, 216, 206],
        "recv_msgs": [40, 43, 55, 67, 43, 48, 56, 68,
                      37, 40, 51, 60, 38, 43, 51, 61],
        "flops": [2800, 1216, 3504, 2048, 2168, 1344, 3000, 2048,
                  256, 2928, 1472, 2890, 256, 2552, 1600, 2169],
        "peak": [360, 278, 280, 275, 400, 256, 336, 258,
                 224, 304, 240, 242, 224, 376, 256, 256],
    },
    ("cholesky", 4, 4): {
        "recv_words": [512, 270, 554, 288, 250, 448, 264, 522,
                       398, 258, 450, 278, 240, 348, 252, 420],
        "sent_words": [696, 534, 562, 472, 410, 336, 408, 394,
                       342, 186, 250, 254, 224, 156, 220, 308],
        "recv_msgs": [97, 96, 113, 113, 82, 107, 96, 124,
                      88, 96, 108, 115, 84, 102, 96, 117],
        "flops": [860, 608, 800, 1120, 768, 576, 768, 1148,
                  796, 544, 736, 1056, 704, 512, 704, 1084],
        "peak": [256, 122, 256, 186, 186, 172, 186, 252,
                 232, 122, 232, 186, 182, 149, 182, 229],
    },
}


def _run(op: str, v: int, c: int):
    rng = np.random.default_rng(7)
    if op == "lu":
        a = rng.standard_normal((N, N))
        schedule = ConfluxSchedule(N, P, v=v, c=c)
    else:
        g = rng.standard_normal((N, N))
        a = g @ g.T + N * np.eye(N)
        schedule = ConfchoxSchedule(N, P, v=v, c=c)
    machine = Machine(P)
    res = DistributedBackend(machine).run(schedule, a=a)
    if op == "lu":
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
    else:
        err = np.linalg.norm(a - res.lower @ res.lower.T)
    return machine, err / np.linalg.norm(a)


@pytest.mark.parametrize("op,v,c", sorted(GOLDEN))
def test_counters_match_golden(op, v, c):
    machine, resid = _run(op, v, c)
    stats = machine.stats
    got = {"recv_words": stats.recv_words, "sent_words": stats.sent_words,
           "recv_msgs": stats.recv_msgs, "flops": stats.flops,
           "peak": machine.peak_words_per_rank()}
    for name, want in GOLDEN[(op, v, c)].items():
        np.testing.assert_array_equal(got[name], want, err_msg=name)
    assert resid < 1e-10
