"""Synthetic trace generation from a page population."""

from __future__ import annotations

import os
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple)

import numpy as np

from repro.trace.records import PhaseTrace, TraceRecord, narrow_counts
from repro.workloads.population import PagePopulation

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Cells per Poisson call, and pages per lognormal call. ``Generator``
#: draws element by element, so consecutive slices consume its stream
#: exactly as one call over the whole array does; neither draw takes
#: ``out=``, and slicing keeps each call's own result small.
DRAW_SLICE = 8192


def _mapped(shape, dtype) -> np.ndarray:
    """An array in fresh anonymous memory, outside the malloc heap.

    glibc gives each thread its own malloc arena and keeps what the
    thread frees, so buffers a helper thread fills are mapped here
    instead; dropping the array unmaps them whole.
    """
    import mmap

    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buffer, dtype, count=count).reshape(shape)


class _Scratch:
    """The arrays one phase is drawn into; reused phase after phase."""

    def __init__(self, n_cells: int, n_pages: Optional[int]):
        self.expected = _mapped(n_cells, np.float64)
        self.draws = _mapped(n_cells, np.int64)
        #: The drift's per-page jitter and one drifted rate row; None
        #: without drift.
        self.jitter: Optional[np.ndarray] = None
        self.row: Optional[np.ndarray] = None
        if n_pages is not None:
            self.jitter = _mapped(n_pages, np.float64)
            self.row = _mapped(n_pages, np.float64)


def _fill(out: np.ndarray, draw: Callable[[int, int], np.ndarray],
          between_slices: Optional[Callable[[], None]] = None) -> None:
    """``out[start:stop] = draw(start, stop)``, one ``DRAW_SLICE`` at a time."""
    for start in range(0, out.size, DRAW_SLICE):
        stop = min(start + DRAW_SLICE, out.size)
        out[start:stop] = draw(start, stop)
        if between_slices is not None:
            between_slices()


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
        if self.population.profile.drift_sigma <= 0:
            return self.base_rates
        rates = self.base_rates * self._jitter(
            phase, np.empty(self.base_rates.shape[1]))
        rates /= rates.sum(axis=1, keepdims=True)
        return rates

    def _jitter(self, phase: int, jitter: np.ndarray) -> np.ndarray:
        """The phase's per-page lognormal drift weights, into ``jitter``."""
        sigma = self.population.profile.drift_sigma
        rng = np.random.default_rng((self.seed, phase, 0x5eed))
        _fill(jitter, lambda start, stop: rng.lognormal(
            mean=0.0, sigma=sigma, size=stop - start))
        return jitter

    def _expected(self, phase: int, scratch: _Scratch) -> np.ndarray:
        """Expected counts at the member cells, into ``scratch.expected``.

        Row by row, since cells are in row-major order and each row is
        one slice of the entries: a row's cells are gathered from its
        rates, with no dense matrix and no flat offsets. With drift the
        row is first drifted into ``scratch.row`` and its gathered cells
        are divided by the whole row's sum, summed as :meth:`phase_rates`
        sums it, so each cell holds the same product and quotient as the
        dense drifted matrix does.
        """
        jitter = (None if scratch.jitter is None
                  else self._jitter(phase, scratch.jitter))
        index = self.population.index
        bounds = index.row_bounds
        for socket, rates in enumerate(self.base_rates):
            if jitter is not None:
                rates = np.multiply(rates, jitter, out=scratch.row)
            cells = scratch.expected[bounds[socket]:bounds[socket + 1]]
            # mode="raise" would buffer a full-size copy of the result.
            np.take(rates, index.pages[bounds[socket]:bounds[socket + 1]],
                    out=cells, mode="clip")
            if jitter is not None:
                cells /= rates.sum()
        scratch.expected *= self.accesses_per_socket
        return scratch.expected

    def synthesize_phase(self, phase: int) -> PhaseTrace:
        """Sample the counts of one phase at the population's sharer cells.

        Rates are zero off the membership, and ``Generator.poisson``
        consumes no stream for a zero rate, so drawing only the member
        cells in row-major order yields exactly the values a draw over
        the dense rate matrix would. A phase reads only its own two
        generators, ``(seed, phase, 0x5eed)`` for the drift and
        ``(seed, phase, 0xacce55)`` for the counts, so phases can be
        drawn in any order, or at once (:meth:`synthesize`), with the
        same result. The values are drawn directly, not sliced from a
        dense count matrix: freeing such a matrix can leave heap memory
        that glibc does not hand back.
        """
        return self._trace(phase, self._draw(phase, self._scratch()))

    def synthesize(self, n_phases: int) -> List[PhaseTrace]:
        """Sample ``n_phases`` consecutive phases, on every usable CPU.

        The calling thread draws alongside ``min(n_phases, CPUs) - 1``
        helper threads, each phase from its own generators as in
        :meth:`synthesize_phase`, so the traces are the same on any
        number of CPUs. Inside a pool worker
        (``multiprocessing.parent_process()`` is set) the calling thread
        draws alone: the pool already gives each worker its share of the
        CPUs. No helper thread outlives the call, since sweeps fork
        right after set-up: an error in a phase, or an exception raised
        in the calling thread (a ``SIGALRM`` timeout), stops handing out
        phases, waits for the running ones and propagates.
        """
        if n_phases < 1:
            raise ValueError("need at least one phase")
        import multiprocessing

        n_threads = min(n_phases, len(os.sched_getaffinity(0)))
        if multiprocessing.parent_process() is not None:
            n_threads = 1
        slots = [self._scratch() for _ in range(n_threads)]
        if n_threads == 1:
            return [self._trace(phase, self._draw(phase, slots[0]))
                    for phase in range(n_phases)]
        return self._synthesize_threaded(n_phases, slots)

    def _synthesize_threaded(self, n_phases: int,
                             slots: List[_Scratch]) -> List[PhaseTrace]:
        """:meth:`synthesize` with one helper thread per slot but one.

        A helper only fills its slot. The calling thread draws phases
        into the last slot, and between its Poisson slices it narrows
        each phase a helper finished, builds its trace and hands that
        helper the next phase, so no helper waits on a whole phase.
        """
        from concurrent.futures import ThreadPoolExecutor, wait

        traces: List[Optional[PhaseTrace]] = [None] * n_phases
        pending: Dict[Future, Tuple[int, _Scratch]] = {}
        phases = iter(range(n_phases))
        own = slots.pop()

        def hand_out() -> None:
            for future in [future for future in pending if future.done()]:
                phase, scratch = pending.pop(future)
                traces[phase] = self._trace(phase, future.result())
                slots.append(scratch)
            while slots:
                phase = next(phases, None)
                if phase is None:
                    return
                scratch = slots.pop()
                future = helpers.submit(self._draw, phase, scratch)
                pending[future] = (phase, scratch)

        with ThreadPoolExecutor(max_workers=len(slots),
                                thread_name_prefix="step-a") as helpers:
            try:
                hand_out()
                for phase in phases:
                    traces[phase] = self._trace(phase, self._draw(
                        phase, own, between_slices=hand_out))
                wait(pending)
                hand_out()
            except BaseException:
                for future in pending:
                    future.cancel()
                raise
        return traces  # type: ignore[return-value]

    def _scratch(self) -> _Scratch:
        drift = self.population.profile.drift_sigma > 0
        return _Scratch(self.population.index.size,
                        self.population.n_pages if drift else None)

    def _draw(self, phase: int, scratch: _Scratch,
              between_slices: Optional[Callable[[], None]] = None,
              ) -> np.ndarray:
        """One phase's int64 counts at the member cells, in ``scratch``.

        Safe on a helper thread: every array it fills is in ``scratch``,
        and its only allocations are small (a ``DRAW_SLICE`` of draws).
        ``between_slices`` runs after each slice of Poisson draws.
        """
        rng = np.random.default_rng((self.seed, phase, 0xacce55))
        expected = self._expected(phase, scratch)
        _fill(scratch.draws,
              lambda start, stop: rng.poisson(expected[start:stop]),
              between_slices)
        return scratch.draws

    def _trace(self, phase: int, draws: np.ndarray) -> PhaseTrace:
        return PhaseTrace(
            phase=phase,
            index=self.population.index,
            values=narrow_counts(draws),
            instructions_per_thread=self.instructions_per_thread,
        )

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
