"""Golden per-rank counters and factors of the distributed
COnfLUX/COnfCHOX runs.

The distributed view may batch its host-side selection and indexing,
but it must not merge, split or reorder a ship, nor reorder a store
put or discard (ARCHITECTURE.md, "Host-side batching").  Any such
change moves at least one per-rank counter or memory peak below, so
these small runs pin every one of them exactly.  The counters were
recorded from the per-(source, destination) loop implementation the
batched fan-out replaced; v=8, c=2 has four reduction planes per layer,
so its Schur products go through BLAS rather than an outer product.
The factor digests (SHA-256 of the ``lower``/``upper``/``perm`` bytes)
were recorded from the per-tile Schur update the stacked one replaced:
a batched product that takes another BLAS kernel moves them.
"""

import hashlib

import numpy as np
import pytest

from repro.api import pdgetrf, pdpotrf
from repro.engine import DistributedBackend
from repro.factorizations import ConfchoxSchedule, ConfluxSchedule
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D

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


FACTORS = {
    ("lu", 2, 2):
        "d991b6cf1c065f189832e3d5c122fd2f85383633e57b9d878dc961285b610362",
    ("lu", 8, 2):
        "3b8c5553cc76e85dbe5ce8847c05dd5951e5b789d139bc1b6ebda43eec6153a1",
    ("cholesky", 4, 4):
        "37401fb1c0bcc11e4f139e9ab99f926402acccc751f9b74b8e4075f817e9aac1",
}


def _digest(lower, upper, perm) -> str:
    """SHA-256 over the factor bytes (absent factors hash as empty)."""
    h = hashlib.sha256(np.ascontiguousarray(lower).tobytes())
    for part in (upper, perm):
        if part is not None:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _counters(machine: Machine) -> dict[str, np.ndarray]:
    stats = machine.stats
    return {"recv_words": stats.recv_words, "sent_words": stats.sent_words,
            "recv_msgs": stats.recv_msgs, "flops": stats.flops,
            "peak": machine.peak_words_per_rank()}


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
    return machine, res, err / np.linalg.norm(a)


@pytest.mark.parametrize("op,v,c", sorted(GOLDEN))
def test_counters_match_golden(op, v, c):
    machine, res, resid = _run(op, v, c)
    got = _counters(machine)
    for name, want in GOLDEN[(op, v, c)].items():
        np.testing.assert_array_equal(got[name], want, err_msg=name)
    assert _digest(res.lower, res.upper, res.perm) == FACTORS[(op, v, c)]
    assert resid < 1e-10


# The api path: a COSTA reshuffle from a 2x2-block descriptor layout
# into the schedule's native layout, which ``dist_init`` adopts through
# its ``in_name`` branch instead of scattering a dense matrix.
API_GOLDEN = {
    "lu": {
        "recv_words": [792, 727, 628, 591, 820, 718, 641, 578,
                       366, 464, 404, 467, 342, 470, 386, 459],
        "sent_words": [1202, 1021, 898, 713, 810, 784, 619, 520,
                       264, 446, 254, 431, 220, 240, 216, 215],
        "recv_msgs": [116, 119, 128, 135, 123, 122, 133, 139,
                      97, 110, 110, 126, 95, 112, 113, 121],
        "flops": [1792, 1424, 2272, 1888, 1416, 1200, 1832, 1632,
                  960, 1936, 1568, 2206, 768, 1528, 1312, 1787],
        "peak": [896, 896, 384, 384, 896, 896, 384, 384,
                 168, 216, 173, 200, 164, 220, 172, 204],
        "factors":
            "c116bbd7ac832b8450cf7ff7ff957cffb51b75adb095f3fd22b277fa07598d05",
    },
    "cholesky": {
        "recv_words": [670, 618, 462, 454, 714, 642, 528, 484,
                       274, 346, 292, 344, 296, 372, 328, 364],
        "sent_words": [1030, 898, 694, 574, 714, 722, 496, 436,
                       234, 194, 188, 160, 184, 276, 152, 236],
        "recv_msgs": [71, 74, 76, 83, 86, 88, 94, 99,
                      56, 66, 67, 79, 70, 81, 86, 91],
        "flops": [732, 672, 988, 544, 640, 1024, 896, 1152,
                  608, 608, 864, 480, 576, 1020, 832, 1148],
        "peak": [864, 832, 320, 288, 864, 864, 320, 320,
                 124, 136, 92, 86, 120, 184, 88, 134],
        "factors":
            "42093a82a0453f1bf384bc084a93c3bc6334413cac79de90209bc289c431c27a",
    },
}


def _run_api(op: str):
    rng = np.random.default_rng(11)
    machine = Machine(P)
    desc = ScaLAPACKDescriptor(m=N, n=N, mb=16, nb=16, prows=4, pcols=4)
    layout = BlockCyclicLayout(N, N, 16, 16, ProcessorGrid2D(4, 4))
    if op == "lu":
        a = rng.standard_normal((N, N))
        layout.scatter_from(machine, "A", a)
        res = pdgetrf(machine, "A", desc, v=4, c=2)
    else:
        g = rng.standard_normal((N, N))
        layout.scatter_from(machine, "A", g @ g.T + N * np.eye(N))
        res = pdpotrf(machine, "A", desc, v=4, c=2)
    return machine, res


@pytest.mark.parametrize("op", sorted(API_GOLDEN))
def test_api_adoption_path_matches_golden(op):
    machine, res = _run_api(op)
    got = _counters(machine)
    got["factors"] = _digest(res.lower, res.upper, res.perm)
    assert {k: (v if k == "factors" else v.tolist())
            for k, v in got.items()} == API_GOLDEN[op]
