"""Bit-exact Step C golden: ``Simulator.run`` pinned to the last bit.

The oracle suites (``test_kernel_equivalence``) bound Step C at 1e-9
relative; exports and checkpoints are byte-identical only if the solve
is bit-identical. This pins every float of a handful of runs as
``float.hex()``, with iteration counts, convergence flags, hottest
links and migration totals, so any change to the fixed point's
arithmetic (operation order, reductions, damping) shows here first.

Regenerate the constants only for a deliberate numeric change:
``PYTHONPATH=src:. python -m tests.test_sim.test_step_c_golden`` prints
the source of ``GOLDEN``.
"""

import pytest

from repro.config import baseline_config, starnuma_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
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
         phase.fixed_point_iterations, phase.converged,
         [(link, float(value).hex())
          for link, value in phase.hottest_links.items()])
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
             3, True,
             [('upi:s4-flex1', '0x1.725fa7ff7675dp-2'),
              ('upi:s13-flex3', '0x1.3ac5e36c95d63p-2'),
              ('upi:s15-flex3', '0x1.26e02fa9ae8e5p-2')]),
            ('0x1.98258e5dc30c6p-2', '0x1.56dec214de1fdp+8',
             '0x1.15bc9d9da6f30p+8', '0x1.568c749fa6344p+21',
             2, True,
             [('upi:s4-flex1', '0x1.7f71871c5327cp-2'),
              ('upi:s15-flex3', '0x1.3f106d2bc1371p-2'),
              ('upi:s13-flex3', '0x1.10fc265d8757ep-2')]),
            ('0x1.983de4bdb9d2ep-2', '0x1.5652e41c65260p+8',
             '0x1.15b63d5251df4p+8', '0x1.567808d2ba98ap+21',
             1, True,
             [('upi:s4-flex1', '0x1.4af512faafe6dp-2'),
              ('upi:s15-flex3', '0x1.43fde6fdd28b8p-2'),
              ('upi:s13-flex3', '0x1.17dccd1ec1913p-2')]),
        ],
        'pages_migrated': 1787,
        'pages_migrated_to_pool': 0,
    },
    'tc/starnuma': {
        'phases': [
            ('0x1.d19f9e22ab94bp-2', '0x1.18c479a0f2d83p+8',
             '0x1.ee3270d232925p+7', '0x1.2c43a774d8a43p+21',
             7, True,
             [('upi:s12-flex3', '0x1.0d83df9f276a9p-2'),
              ('upi:s9-flex2', '0x1.d46194a141bacp-3'),
              ('upi:s2-flex0', '0x1.cba75cbd584acp-3')]),
            ('0x1.0a0e35ae7fd1fp-1', '0x1.bcb0df2d98c8ep+7',
             '0x1.a1d27d8333b0ap+7', '0x1.06bf01b95b430p+21',
             7, True,
             [('dram:pool', '0x1.d12e0c31917e9p-3'),
              ('upi:s3-flex0', '0x1.ff21e137c630dp-4'),
              ('cxl:s8', '0x1.f1741e4dedeacp-4')]),
            ('0x1.1733706b17d7cp-1', '0x1.9e7c94cb64794p+7',
             '0x1.89603eeb682adp+7', '0x1.f4c0377dbd597p+20',
             6, True,
             [('dram:pool', '0x1.0f605f9a21d59p-2'),
              ('cxl:s8', '0x1.2f6579ebe5dc9p-3'),
              ('cxl:s12', '0x1.2dc44f8ab9c55p-3')]),
        ],
        'pages_migrated': 5632,
        'pages_migrated_to_pool': 5376,
    },
    'masstree/baseline': {
        'phases': [
            ('0x1.6f96e9759f4dep-3', '0x1.88796c16ae82ep+9',
             '0x1.2ee98ef06b0a9p+8', '0x1.7c57d0d10252ap+21',
             4, True,
             [('upi:s0-flex0', '0x1.6fc4302b0d07fp-1'),
              ('upi:s3-flex0', '0x1.6ba8bbf508758p-1'),
              ('upi:s8-flex2', '0x1.6ba0f9110e164p-1')]),
            ('0x1.6fe28acf4a002p-3', '0x1.88513f6f3df49p+9',
             '0x1.2ee2997f9fc49p+8', '0x1.7c099fcfa3a08p+21',
             2, True,
             [('upi:s7-flex1', '0x1.6cded3520c3afp-1'),
              ('upi:s3-flex0', '0x1.6d3c2a446a888p-1')]),
            ('0x1.6f690e5e5c964p-3', '0x1.88a516ee8374ep+9',
             '0x1.2ef634afac327p+8', '0x1.7c87491e01701p+21',
             2, True,
             [('upi:s7-flex1', '0x1.6c4e4e4d6444dp-1'),
              ('upi:s5-flex1', '0x1.6a4feacddaaf5p-1')]),
        ],
        'pages_migrated': 3152,
        'pages_migrated_to_pool': 0,
    },
    'masstree/starnuma': {
        'phases': [
            ('0x1.2a43219a8d22cp-2', '0x1.7bed38d06cc1cp+8',
             '0x1.e9845cdb677fep+7', '0x1.d4bfba613ac96p+20',
             6, True,
             [('upi:s10-flex2', '0x1.4780e6d92a0dfp-1'),
              ('upi:s2-flex0', '0x1.40cacccb08136p-1'),
              ('upi:s6-flex1', '0x1.3c8b11ee988cfp-1')]),
            ('0x1.4d2fbfbd40095p-2', '0x1.4fbe377f7d77ap+8',
             '0x1.d64a16c158fcbp+7', '0x1.a39d790f2e624p+20',
             5, True,
             [('dram:pool', '0x1.2ece437b5e4d9p-1'),
              ('upi:s15-flex3', '0x1.00036a9e89bffp-1'),
              ('upi:s0-flex0', '0x1.fed2fabbe7f7dp-2')]),
            ('0x1.459215a1b9c5ap-2', '0x1.524885dda874cp+8',
             '0x1.ce170e08d2052p+7', '0x1.ad6e517f7caabp+20',
             3, True,
             [('cxl:s0', '0x1.e0060f44b1790p-1'),
              ('dram:pool', '0x1.558d8b8648a95p-1'),
              ('cxl:s1', '0x1.18487050c4ec2p-1')]),
        ],
        'pages_migrated': 6528,
        'pages_migrated_to_pool': 6528,
    },
    'sssp/starnuma/faulted': {
        'phases': [
            ('0x1.57a63ee0cc4ebp-4', '0x1.849c8e5f4f92ap+8',
             '0x1.9ec0c22ec08dap+7', '0x1.96d6e0f46f30cp+23',
             9, True,
             [('upi:s11-flex2', '0x1.e02f86a7fdf65p-1'),
              ('upi:s15-flex3', '0x1.ae4d03edbd7e8p-1'),
              ('upi:s14-flex3', '0x1.919fa3a83e6c0p-1')]),
            ('0x1.e42962b71339ep-5', '0x1.3a35bb151794ep+9',
             '0x1.262431b5c808ap+8', '0x1.20c474492a7abp+24',
             14, True,
             [('dram:pool', '0x1.0a72768363536p+0'),
              ('cxl:s10', '0x1.6488a147be1b4p-1'),
              ('cxl:s11', '0x1.6387d076701f5p-1')]),
            ('0x1.e7cc211307555p-5', '0x1.37ee057b148a7p+9',
             '0x1.260f33838a012p+8', '0x1.1e9d7875432dep+24',
             7, True,
             [('dram:pool', '0x1.098b1a95cbc1dp+0'),
              ('cxl:s10', '0x1.676641803e4c5p-1'),
              ('cxl:s11', '0x1.670d292863fb8p-1')]),
        ],
        'pages_migrated': 6784,
        'pages_migrated_to_pool': 3456,
    },
    'tc/baseline/open': {
        'phases': [
            ('0x1.999999999999ap-2', '0x1.55dec13b3faf7p+8',
             '0x1.153bfe544e3c4p+8', '0x1.555550aaaaaabp+21',
             0, True,
             [('upi:s4-flex1', '0x1.72cbb65d530efp-2'),
              ('upi:s13-flex3', '0x1.3b21b91aad2e7p-2'),
              ('upi:s15-flex3', '0x1.27363742bbca8p-2')]),
            ('0x1.999999999999ap-2', '0x1.571d842e6a910p+8',
             '0x1.15bc9d9da6f30p+8', '0x1.555550aaaaaabp+21',
             0, True,
             [('upi:s4-flex1', '0x1.80cf0db60de1bp-2'),
              ('upi:s15-flex3', '0x1.40334483a256bp-2'),
              ('upi:s13-flex3', '0x1.11f4fce0ab583p-2')]),
            ('0x1.999999999999ap-2', '0x1.56a03a3f0375dp+8',
             '0x1.15b63d5251df4p+8', '0x1.555550aaaaaabp+21',
             0, True,
             [('upi:s4-flex1', '0x1.4c0ef4c51edeep-2'),
              ('upi:s15-flex3', '0x1.4511da063e692p-2'),
              ('upi:s13-flex3', '0x1.18cb2a3828fabp-2')]),
        ],
        'pages_migrated': 1787,
        'pages_migrated_to_pool': 0,
    },
}


@pytest.mark.parametrize("case", CASES)
def test_step_c_is_bit_exact(case):
    assert fingerprint(run_case(case)) == GOLDEN[case]


def format_golden(golden):
    """``golden`` as the source text of :data:`GOLDEN`."""
    lines = ["GOLDEN = {"]
    for case, pinned in golden.items():
        lines += [f"    {case!r}: {{", "        'phases': ["]
        for *fields, hottest in pinned["phases"]:
            lines.append(f"            ({fields[0]!r}, {fields[1]!r},")
            lines.append(f"             {fields[2]!r}, {fields[3]!r},")
            lines.append(f"             {fields[4]!r}, {fields[5]!r},")
            links = ",\n              ".join(map(repr, hottest))
            lines.append(f"             [{links}]),")
        lines.append("        ],")
        for key in ("pages_migrated", "pages_migrated_to_pool"):
            lines.append(f"        {key!r}: {pinned[key]!r},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_golden({case: fingerprint(run_case(case))
                         for case in CASES}))
