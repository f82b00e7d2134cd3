"""Synthetic trace generation from a page population."""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.trace.records import PhaseTrace, TraceRecord, narrow_counts
from repro.workloads.population import PagePopulation


class TraceSynthesizer:
    """Draws per-phase access counts for one workload instance.

    Each socket issues ``instructions_per_thread x threads_per_socket x
    MPKI / 1000`` LLC-missing accesses per phase, distributed over its
    shared pages according to the population's stationary rates. Counts
    are sampled as independent Poissons around the expected rates (the
    standard high-count approximation of the multinomial), and a mild
    lognormal weight drift is applied between phases so hotness rankings
    wobble without the sharing structure changing -- matching the paper's
    observation that sharing patterns are stable over time (Section V-B).
    """

    def __init__(self, population: PagePopulation,
                 threads_per_socket: int,
                 instructions_per_thread: int = 1_000_000_000,
                 seed: int = 0,
                 accesses_cap_per_socket: int = 2_000_000_000):
        if threads_per_socket < 1:
            raise ValueError("need at least one thread per socket")
        if instructions_per_thread < 1:
            raise ValueError("phase length must be positive")
        self.population = population
        self.threads_per_socket = threads_per_socket
        self.instructions_per_thread = instructions_per_thread
        self.seed = seed
        self.base_rates = population.socket_access_rates()
        accesses = int(
            instructions_per_thread * threads_per_socket
            * population.profile.mpki / 1000.0
        )
        self.accesses_per_socket = min(accesses, accesses_cap_per_socket)

    def phase_rates(self, phase: int) -> np.ndarray:
        """Access rates of one phase, after weight drift."""
        sigma = self.population.profile.drift_sigma
        if sigma <= 0:
            return self.base_rates
        rng = np.random.default_rng((self.seed, phase, 0x5eed))
        jitter = rng.lognormal(mean=0.0, sigma=sigma,
                               size=self.base_rates.shape[1])
        rates = self.base_rates * jitter[None, :]
        return rates / rates.sum(axis=1, keepdims=True)

    def synthesize_phase(self, phase: int) -> PhaseTrace:
        """Sample the counts of one phase at the population's sharer cells.

        Rates are zero off the membership, and ``Generator.poisson``
        consumes no stream for a zero rate, so drawing only the member
        cells in row-major order yields exactly the values a draw over
        the dense rate matrix would. The values are drawn directly, not
        sliced from a dense count matrix: freeing such a matrix can
        leave heap memory that glibc does not hand back.
        """
        rng = np.random.default_rng((self.seed, phase, 0xacce55))
        index = self.population.index
        expected = (self.phase_rates(phase).ravel()[index.flat]
                    * self.accesses_per_socket)
        return PhaseTrace(
            phase=phase,
            index=index,
            values=narrow_counts(rng.poisson(expected)),
            instructions_per_thread=self.instructions_per_thread,
        )

    def synthesize(self, n_phases: int) -> List[PhaseTrace]:
        """Sample ``n_phases`` consecutive phases."""
        if n_phases < 1:
            raise ValueError("need at least one phase")
        return [self.synthesize_phase(phase) for phase in range(n_phases)]

    def record_stream(self, phase: int, n_records: int,
                      socket: Optional[int] = None) -> Iterator[TraceRecord]:
        """Yield individual trace records of one phase.

        Used by the functional substrates (TLB annex, cache, coherence
        replay); the phase pipeline consumes aggregated counts instead.
        When ``socket`` is None, records round-robin across sockets, as a
        merged multi-threaded trace would interleave.
        """
        if n_records < 1:
            raise ValueError("need at least one record")
        rng = np.random.default_rng((self.seed, phase, 0x7ec07d))
        rates = self.phase_rates(phase)
        n_sockets = rates.shape[0]
        sockets = ([socket] * n_records if socket is not None
                   else list(np.arange(n_records) % n_sockets))
        instructions_between = max(
            1, int(1000.0 / self.population.profile.mpki)
        )
        write_fraction = self.population.write_fraction
        instruction_index = 0
        for index, sock in enumerate(sockets):
            page = int(rng.choice(rates.shape[1], p=rates[sock]))
            is_write = bool(rng.random() < write_fraction[page])
            instruction_index += instructions_between
            yield TraceRecord(
                socket=int(sock),
                thread=int(sock) * self.threads_per_socket,
                instruction_index=instruction_index,
                page=page,
                is_write=is_write,
            )
