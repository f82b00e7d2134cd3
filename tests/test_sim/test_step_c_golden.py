"""Bit-exact Step C golden: ``Simulator.run`` pinned to the last bit.

The oracle suites (``test_kernel_equivalence``) bound Step C at 1e-9
relative; exports and checkpoints are byte-identical only if the solve
is bit-identical. This pins every float of a handful of runs as
``float.hex()``, with iteration counts, convergence flags, hottest
links, the access breakdown (kinds in dict order), the migration stall
and migration totals, so any change to the fixed point's
arithmetic (operation order, reductions, damping) shows here first.

The BLAS thread count is not an input: the golden also holds with
OpenBLAS capped at one thread, as in a supervised pool worker on a
host with no more CPUs than workers (see :mod:`repro.runner.blas`).

Regenerate the constants only for a deliberate numeric change:
``PYTHONPATH=src:. python -m tests.test_sim.test_step_c_golden`` prints
the source of ``GOLDEN``.
"""

import pytest

from repro.config import baseline_config, starnuma_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.runner.blas import blas_threads, set_blas_threads
from repro.sim import SimulationSetup, Simulator
from repro.workloads import WORKLOADS

SEED = 7
N_PHASES = 4
WARMUP = 1

FAULTS = (
    FaultEvent(FaultKind.LINK_FAIL, phase=1, link_id="upi:s0-s1"),
    FaultEvent(FaultKind.POOL_DEGRADE, phase=2,
               capacity_factor=0.5, latency_factor=2.0),
)


def fingerprint(result):
    """The pinned fields of one run, floats as ``float.hex()``."""
    phases = [
        (phase.ipc.hex(), phase.amat_ns.hex(),
         phase.unloaded_amat_ns.hex(), phase.duration_ns.hex(),
         phase.migration_stall_ns_per_access.hex(),
         phase.fixed_point_iterations, phase.converged,
         [(link, float(value).hex())
          for link, value in phase.hottest_links.items()],
         [(kind.value, float(count).hex())
          for kind, count in phase.breakdown.counts.items()])
        for phase in result.phases
    ]
    return {"phases": phases,
            "pages_migrated": result.pages_migrated,
            "pages_migrated_to_pool": result.pages_migrated_to_pool}


def run_case(case):
    """Run one named golden case through ``Simulator.run``."""
    workload, system_name = case.split("/")[:2]
    base = baseline_config()
    setup = SimulationSetup.create(WORKLOADS[workload], base,
                                   n_phases=N_PHASES, seed=SEED)
    if case.endswith("/open"):
        return Simulator(base, setup).run(
            fixed_ipc=setup.profile.ipc_16, warmup_phases=WARMUP)
    calibration = Simulator(base, setup).calibrate()
    system = base if system_name == "baseline" else starnuma_config()
    faults = FaultSchedule(list(FAULTS)) if case.endswith("/faulted") \
        else None
    return Simulator(system, setup, faults=faults).run(
        calibration=calibration, warmup_phases=WARMUP)


CASES = ("tc/baseline", "tc/starnuma", "masstree/baseline",
         "masstree/starnuma", "sssp/starnuma/faulted", "tc/baseline/open")

GOLDEN = {
    'tc/baseline': {
        'phases': [
            ('0x1.99223c54d5604p-2', '0x1.55d929f3da07ep+8',
             '0x1.153bfe544e3c4p+8', '0x1.55b8e6127c6d8p+21',
             '0x1.0318d9e9daa3dp-2',
             3, True,
             [('upi:s4-flex1', '0x1.725fa7ff7675dp-2'),
              ('upi:s13-flex3', '0x1.3ac5e36c95d63p-2'),
              ('upi:s15-flex3', '0x1.26e02fa9ae8e5p-2')],
             [('local', '0x1.1a665be08af2cp+16'),
              ('1-hop', '0x1.b16557d39971bp+16'),
              ('2-hop', '0x1.6426a9eea747ap+18'),
              ('bt-socket', '0x1.79749227d0295p+11')]),
            ('0x1.98258e5dc30c6p-2', '0x1.56dec214de1fdp+8',
             '0x1.15bc9d9da6f30p+8', '0x1.568c749fa6344p+21',
             '0x1.05ef579c3b491p-2',
             2, True,
             [('upi:s4-flex1', '0x1.7f71871c5327cp-2'),
              ('upi:s15-flex3', '0x1.3f106d2bc1371p-2'),
              ('upi:s13-flex3', '0x1.10fc265d8757ep-2')],
             [('local', '0x1.17a85899ed7f8p+16'),
              ('1-hop', '0x1.ae85f7d25edf7p+16'),
              ('2-hop', '0x1.6484a4e666664p+18'),
              ('bt-socket', '0x1.78037f43419ecp+11')]),
            ('0x1.983de4bdb9d2ep-2', '0x1.5652e41c65260p+8',
             '0x1.15b63d5251df4p+8', '0x1.567808d2ba98ap+21',
             '0x1.f471874b5ea4bp-3',
             1, True,
             [('upi:s4-flex1', '0x1.4af512faafe6dp-2'),
              ('upi:s15-flex3', '0x1.43fde6fdd28b8p-2'),
              ('upi:s13-flex3', '0x1.17dccd1ec1913p-2')],
             [('local', '0x1.18ee9489374efp+16'),
              ('1-hop', '0x1.ad937e79e5a21p+16'),
              ('2-hop', '0x1.64b0f74df7a59p+18'),
              ('bt-socket', '0x1.7861f8a0902f0p+11')]),
        ],
        'pages_migrated': 1787,
        'pages_migrated_to_pool': 0,
    },
    'tc/starnuma': {
        'phases': [
            ('0x1.d19f9e22ab94bp-2', '0x1.18c479a0f2d83p+8',
             '0x1.ee3270d232925p+7', '0x1.2c43a774d8a43p+21',
             '0x1.3cf5fbfb138b0p-2',
             7, True,
             [('upi:s12-flex3', '0x1.0d83df9f276a9p-2'),
              ('upi:s9-flex2', '0x1.d46194a141bacp-3'),
              ('upi:s2-flex0', '0x1.cba75cbd584acp-3')],
             [('local', '0x1.f062b38ec960fp+15'),
              ('1-hop', '0x1.4b63a127a6376p+16'),
              ('2-hop', '0x1.fd9753c2f8361p+17'),
              ('pool', '0x1.0ed15c7ce3144p+17'),
              ('bt-socket', '0x1.186bb160956d4p+11'),
              ('bt-pool', '0x1.8423831ceaf14p+9')]),
            ('0x1.0a0e35ae7fd1fp-1', '0x1.bcb0df2d98c8ep+7',
             '0x1.a1d27d8333b0ap+7', '0x1.06bf01b95b430p+21',
             '0x1.c04fee8c54e3ep-2',
             7, True,
             [('dram:pool', '0x1.d12e0c31917e9p-3'),
              ('upi:s3-flex0', '0x1.ff21e137c630dp-4'),
              ('cxl:s8', '0x1.f1741e4dedeacp-4')],
             [('local', '0x1.7170c914e3c22p+15'),
              ('1-hop', '0x1.8828468e8a75ap+15'),
              ('2-hop', '0x1.ec0c9f72085d6p+16'),
              ('pool', '0x1.3bd9ef3089a05p+18'),
              ('bt-socket', '0x1.30b62f102365ap+10'),
              ('bt-pool', '0x1.bf50cf765fd4dp+10')]),
            ('0x1.1733706b17d7cp-1', '0x1.9e7c94cb64794p+7',
             '0x1.89603eeb682adp+7', '0x1.f4c0377dbd597p+20',
             '0x1.09b03d10444c2p-3',
             6, True,
             [('dram:pool', '0x1.0f605f9a21d59p-2'),
              ('cxl:s8', '0x1.2f6579ebe5dc9p-3'),
              ('cxl:s12', '0x1.2dc44f8ab9c55p-3')],
             [('local', '0x1.468a5972c51d9p+15'),
              ('1-hop', '0x1.394540a3ad1aep+15'),
              ('2-hop', '0x1.4450d6c67dfcap+16'),
              ('pool', '0x1.7543531a511ccp+18'),
              ('bt-socket', '0x1.c32e172474551p+9'),
              ('bt-pool', '0x1.079672d77317fp+11')]),
        ],
        'pages_migrated': 5632,
        'pages_migrated_to_pool': 5376,
    },
    'masstree/baseline': {
        'phases': [
            ('0x1.6f96e9759f4dep-3', '0x1.88796c16ae82ep+9',
             '0x1.2ee98ef06b0a9p+8', '0x1.7c57d0d10252ap+21',
             '0x1.8ec9313d85f60p-2',
             4, True,
             [('upi:s0-flex0', '0x1.6fc4302b0d07fp-1'),
              ('upi:s3-flex0', '0x1.6ba8bbf508758p-1'),
              ('upi:s8-flex2', '0x1.6ba0f9110e164p-1')],
             [('local', '0x1.fec3d0d70a3d8p+16'),
              ('1-hop', '0x1.83cd42947ae15p+17'),
              ('2-hop', '0x1.8384421d70a3dp+19'),
              ('bt-socket', '0x1.426a4c8a3d70ap+17')]),
            ('0x1.6fe28acf4a002p-3', '0x1.88513f6f3df49p+9',
             '0x1.2ee2997f9fc49p+8', '0x1.7c099fcfa3a08p+21',
             '0x1.84e9ad21cf6b3p-2',
             2, True,
             [('upi:s7-flex1', '0x1.6cded3520c3afp-1'),
              ('upi:s3-flex0', '0x1.6d3c2a446a888p-1')],
             [('local', '0x1.fe9bf9c28f5c3p+16'),
              ('1-hop', '0x1.843dc875c28f7p+17'),
              ('2-hop', '0x1.83795dc7ae149p+19'),
              ('bt-socket', '0x1.426a438a3d70bp+17')]),
            ('0x1.6f690e5e5c964p-3', '0x1.88a516ee8374ep+9',
             '0x1.2ef634afac327p+8', '0x1.7c87491e01701p+21',
             '0x1.8ee2a6699f1bbp-2',
             2, True,
             [('upi:s7-flex1', '0x1.6c4e4e4d6444dp-1'),
              ('upi:s5-flex1', '0x1.6a4feacddaaf5p-1')],
             [('local', '0x1.fe6dc23d70a3ep+16'),
              ('1-hop', '0x1.83b6f8b333331p+17'),
              ('2-hop', '0x1.83c5dcd70a3d4p+19'),
              ('bt-socket', '0x1.428932d1eb852p+17')]),
        ],
        'pages_migrated': 3152,
        'pages_migrated_to_pool': 0,
    },
    'masstree/starnuma': {
        'phases': [
            ('0x1.2a43219a8d22cp-2', '0x1.7bed38d06cc1cp+8',
             '0x1.e9845cdb677fep+7', '0x1.d4bfba613ac96p+20',
             '0x1.204d2a040c6b8p-1',
             6, True,
             [('upi:s10-flex2', '0x1.4780e6d92a0dfp-1'),
              ('upi:s2-flex0', '0x1.40cacccb08136p-1'),
              ('upi:s6-flex1', '0x1.3c8b11ee988cfp-1')],
             [('local', '0x1.20be43147ae14p+16'),
              ('1-hop', '0x1.72650147ae148p+16'),
              ('2-hop', '0x1.71df2e6666667p+18'),
              ('pool', '0x1.18fc0d1eb8526p+19'),
              ('bt-socket', '0x1.3efc020a3d70bp+16'),
              ('bt-pool', '0x1.45d8970a3d70dp+16')]),
            ('0x1.4d2fbfbd40095p-2', '0x1.4fbe377f7d77ap+8',
             '0x1.d64a16c158fcbp+7', '0x1.a39d790f2e624p+20',
             '0x1.672aa60afc024p-4',
             5, True,
             [('dram:pool', '0x1.2ece437b5e4d9p-1'),
              ('upi:s15-flex3', '0x1.00036a9e89bffp-1'),
              ('upi:s0-flex0', '0x1.fed2fabbe7f7dp-2')],
             [('local', '0x1.0b5a680000000p+16'),
              ('1-hop', '0x1.309e440000000p+16'),
              ('2-hop', '0x1.30f46b0000000p+18'),
              ('pool', '0x1.4463041d70a42p+19'),
              ('bt-socket', '0x1.0a13a80000001p+16'),
              ('bt-pool', '0x1.7ac0df147ae1ap+16')]),
            ('0x1.459215a1b9c5ap-2', '0x1.524885dda874cp+8',
             '0x1.ce170e08d2052p+7', '0x1.ad6e517f7caabp+20',
             '0x1.3bd53b415f19ap-5',
             3, True,
             [('cxl:s0', '0x1.e0060f44b1790p-1'),
              ('dram:pool', '0x1.558d8b8648a95p-1'),
              ('cxl:s1', '0x1.18487050c4ec2p-1')],
             [('local', '0x1.0175600000000p+16'),
              ('1-hop', '0x1.15d62c0000000p+16'),
              ('2-hop', '0x1.158d570000000p+18'),
              ('pool', '0x1.56d1364b851f5p+19'),
              ('bt-socket', '0x1.e456300000002p+15'),
              ('bt-pool', '0x1.92e74da3d70abp+16')]),
        ],
        'pages_migrated': 6528,
        'pages_migrated_to_pool': 6528,
    },
    'sssp/starnuma/faulted': {
        'phases': [
            ('0x1.57a63ee0cc4ebp-4', '0x1.849c8e5f4f92ap+8',
             '0x1.9ec0c22ec08dap+7', '0x1.96d6e0f46f30cp+23',
             '0x1.26bb788048b96p-4',
             9, True,
             [('upi:s11-flex2', '0x1.e02f86a7fdf65p-1'),
              ('upi:s15-flex3', '0x1.ae4d03edbd7e8p-1'),
              ('upi:s14-flex3', '0x1.919fa3a83e6c0p-1')],
             [('local', '0x1.072eba3cb6f29p+21'),
              ('1-hop', '0x1.4dd143dc8b43ep+21'),
              ('2-hop', '0x1.6db39690624dep+21'),
              ('pool', '0x1.d0d0d314cccccp+21'),
              ('bt-socket', '0x1.fb691ab2dbd24p+18'),
              ('bt-pool', '0x1.470aa7599999ap+18')]),
            ('0x1.e42962b71339ep-5', '0x1.3a35bb151794ep+9',
             '0x1.262431b5c808ap+8', '0x1.20c474492a7abp+24',
             '0x1.12d74ea8fa8bfp-4',
             14, True,
             [('dram:pool', '0x1.0a72768363536p+0'),
              ('cxl:s10', '0x1.6488a147be1b4p-1'),
              ('cxl:s11', '0x1.6387d076701f5p-1')],
             [('local', '0x1.c4d254ce56005p+20'),
              ('1-hop', '0x1.e27ca90e56048p+20'),
              ('2-hop', '0x1.a51e9fbe76c97p+17'),
              ('pool', '0x1.d281750511114p+22'),
              ('bt-socket', '0x1.611bf15c28f70p+17'),
              ('bt-pool', '0x1.48b717d777778p+19')]),
            ('0x1.e7cc211307555p-5', '0x1.37ee057b148a7p+9',
             '0x1.260f33838a012p+8', '0x1.1e9d7875432dep+24',
             '0x1.357b297e24347p-10',
             7, True,
             [('dram:pool', '0x1.098b1a95cbc1dp+0'),
              ('cxl:s10', '0x1.676641803e4c5p-1'),
              ('cxl:s11', '0x1.670d292863fb8p-1')],
             [('local', '0x1.c4e767f020c0cp+20'),
              ('1-hop', '0x1.e2ec2eec0831ap+20'),
              ('2-hop', '0x1.a592449ba5e3fp+17'),
              ('pool', '0x1.d1f8cf591110fp+22'),
              ('bt-socket', '0x1.61a60483126fep+17'),
              ('bt-pool', '0x1.4865453777778p+19')]),
        ],
        'pages_migrated': 6784,
        'pages_migrated_to_pool': 3456,
    },
    'tc/baseline/open': {
        'phases': [
            ('0x1.999999999999ap-2', '0x1.55dec13b3faf7p+8',
             '0x1.153bfe544e3c4p+8', '0x1.555550aaaaaabp+21',
             '0x1.0318d9e9daa3dp-2',
             0, True,
             [('upi:s4-flex1', '0x1.72cbb65d530efp-2'),
              ('upi:s13-flex3', '0x1.3b21b91aad2e7p-2'),
              ('upi:s15-flex3', '0x1.27363742bbca8p-2')],
             [('local', '0x1.1a665be08af2cp+16'),
              ('1-hop', '0x1.b16557d39971bp+16'),
              ('2-hop', '0x1.6426a9eea747ap+18'),
              ('bt-socket', '0x1.79749227d0295p+11')]),
            ('0x1.999999999999ap-2', '0x1.571d842e6a910p+8',
             '0x1.15bc9d9da6f30p+8', '0x1.555550aaaaaabp+21',
             '0x1.05ef579c3b491p-2',
             0, True,
             [('upi:s4-flex1', '0x1.80cf0db60de1bp-2'),
              ('upi:s15-flex3', '0x1.40334483a256bp-2'),
              ('upi:s13-flex3', '0x1.11f4fce0ab583p-2')],
             [('local', '0x1.17a85899ed7f8p+16'),
              ('1-hop', '0x1.ae85f7d25edf7p+16'),
              ('2-hop', '0x1.6484a4e666664p+18'),
              ('bt-socket', '0x1.78037f43419ecp+11')]),
            ('0x1.999999999999ap-2', '0x1.56a03a3f0375dp+8',
             '0x1.15b63d5251df4p+8', '0x1.555550aaaaaabp+21',
             '0x1.f471874b5ea4bp-3',
             0, True,
             [('upi:s4-flex1', '0x1.4c0ef4c51edeep-2'),
              ('upi:s15-flex3', '0x1.4511da063e692p-2'),
              ('upi:s13-flex3', '0x1.18cb2a3828fabp-2')],
             [('local', '0x1.18ee9489374efp+16'),
              ('1-hop', '0x1.ad937e79e5a21p+16'),
              ('2-hop', '0x1.64b0f74df7a59p+18'),
              ('bt-socket', '0x1.7861f8a0902f0p+11')]),
        ],
        'pages_migrated': 1787,
        'pages_migrated_to_pool': 0,
    },
}


@pytest.mark.parametrize("case", CASES)
def test_step_c_is_bit_exact(case):
    assert fingerprint(run_case(case)) == GOLDEN[case]


@pytest.fixture
def one_blas_thread():
    """OpenBLAS capped at one thread for the test, then restored."""
    inherited = blas_threads()
    if inherited is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert set_blas_threads(1) == 1
    try:
        yield
    finally:
        set_blas_threads(inherited)
    assert blas_threads() == inherited


@pytest.mark.parametrize("case", CASES)
def test_step_c_is_bit_exact_on_one_blas_thread(case, one_blas_thread):
    assert fingerprint(run_case(case)) == GOLDEN[case]
    assert blas_threads() == 1


def format_golden(golden):
    """``golden`` as the source text of :data:`GOLDEN`."""
    lines = ["GOLDEN = {"]
    for case, pinned in golden.items():
        lines += [f"    {case!r}: {{", "        'phases': ["]
        for *fields, hottest, breakdown in pinned["phases"]:
            lines.append(f"            ({fields[0]!r}, {fields[1]!r},")
            lines.append(f"             {fields[2]!r}, {fields[3]!r},")
            lines.append(f"             {fields[4]!r},")
            lines.append(f"             {fields[5]!r}, {fields[6]!r},")
            links = ",\n              ".join(map(repr, hottest))
            lines.append(f"             [{links}],")
            kinds = ",\n              ".join(map(repr, breakdown))
            lines.append(f"             [{kinds}]),")
        lines.append("        ],")
        for key in ("pages_migrated", "pages_migrated_to_pool"):
            lines.append(f"        {key!r}: {pinned[key]!r},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_golden({case: fingerprint(run_case(case))
                         for case in CASES}))
