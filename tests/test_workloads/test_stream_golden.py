"""Golden digests of Step A: populations and synthesized traces.

Every export depends on the exact PCG64 stream Step A consumes: the
sharer masks, the class weights, the interleaving permutation, and the
Poisson counts drawn from the resulting rates. These sha256 constants
pin that stream byte for byte, so a faster draw that skips or reorders
one word fails here before it moves any figure.
"""

import dataclasses
import hashlib

import pytest

from repro.config import baseline_config
from repro.sim import SimulationSetup
from repro.workloads import get_workload

SEED = 3
N_PHASES = 3
POPULATION_ARRAYS = ("sharer_mask", "sharer_count", "weight",
                     "write_fraction", "class_id")


def step_a_digest(setup):
    """sha256 over every population array and every phase's dense counts."""
    digest = hashlib.sha256()
    for name in POPULATION_ARRAYS:
        array = getattr(setup.population, name)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    for trace in setup.traces:
        counts = trace.dense()
        digest.update(f"{trace.phase}:{trace.instructions_per_thread}:"
                      f"{counts.dtype.str}".encode())
        digest.update(counts.tobytes())
    return digest.hexdigest()


def setup_for(workload, n_sockets, layout):
    system = baseline_config()
    if n_sockets != system.n_sockets:
        system = dataclasses.replace(
            system, n_chassis=n_sockets // system.sockets_per_chassis)
    return SimulationSetup.create(get_workload(workload), system,
                                  n_phases=N_PHASES, seed=SEED,
                                  layout=layout)


#: (workload, sockets, layout) -> digest, computed before Step A's wide
#: classes were batched; the batch must reproduce them exactly.
GOLDEN = {
    ("bfs", 16, "clustered"):
        "934c77dcb1950890b4ec81dab2f01ffe9f017c4dd09165962cbc5447debb9ebe",
    ("bfs", 16, "interleaved"):
        "d3694f9043d245f49f37ba89f709a1b1dfddeabf855b53b3f184628938be5ac5",
    ("bfs", 32, "clustered"):
        "fd48cf5f15dd08a6583313422dfed510eee5480ef988a511a7f3c9ad1972e73c",
    ("cc", 16, "clustered"):
        "5e4db356445d006324ec86a38946c1cbcaae2ca1de801654dce0a24024b95648",
    ("cc", 16, "interleaved"):
        "bc54311b93f3f75002510974e5b2d4651ad96cc4f6a5c22d030d9ac1cf717ee5",
    ("fmi", 16, "clustered"):
        "e56815ec3f589834d421759b377ebe6a7ec69f10a5f457393cbd95589aaecca3",
    ("fmi", 16, "interleaved"):
        "622ae1542faf907c9f671b2c96310a6d20ed8038543a398c364dd40db3fdece5",
    ("masstree", 16, "clustered"):
        "d529f84f6dcdd8b2297e0e55632cb6940fc85a1b044cf57a927029ef31ef64ea",
    ("masstree", 16, "interleaved"):
        "a94cf11052a0744d7726b77df589acb9c52d01b3f26707d9dfa8422aae374533",
    ("masstree", 32, "clustered"):
        "7743846e7723ba890f04738d5bdd104a22231c163503a686b8efac44b9fe845e",
    ("poa", 16, "clustered"):
        "9ca7c2504fd0154bac9e075ce7812594e37c984849147833d61e490c58afa585",
    ("poa", 16, "interleaved"):
        "e1e56af610c4eecac0912daa88e153397474a9d65424db217943b8644d20eadc",
    ("sssp", 16, "clustered"):
        "466cf8c1663cdc32b8bf854552cad3b4f50fcf587a19965901bea79c628d1e07",
    ("sssp", 16, "interleaved"):
        "3e260aa5d4252278d58493850e67278376011185dfd659cb49a60afb994f6f82",
    ("tc", 16, "clustered"):
        "ed12562576941ee2e61acf45f30078e63e0a5ec23934fb62cc3fbd64d37b3902",
    ("tc", 16, "interleaved"):
        "a26c3f4b12b979f40c443ae39f1696bc97696e172c1b99a7ac815d54409405fe",
    ("tc", 32, "clustered"):
        "a5fc5d644e8ae39174d790459dd0fd738c30238832381896ef460bbb4a67b9f1",
    ("tpcc", 16, "clustered"):
        "17f1c85cd78d433cb9c50f7690b3409b5c693603823c1082a938732f6b8973bb",
    ("tpcc", 16, "interleaved"):
        "6bd48ebae61e40e885c61d032a0305deb457e76f6f63ce157a1ea80cc075ff1c",
}


@pytest.mark.parametrize("workload,n_sockets,layout", sorted(GOLDEN))
def test_step_a_stream_is_pinned(workload, n_sockets, layout):
    setup = setup_for(workload, n_sockets, layout)
    assert step_a_digest(setup) == GOLDEN[(workload, n_sockets, layout)]
