"""The DSM runtime: scheduling application programs over an MCS.

The runtime couples each application program (a generator, see
:mod:`repro.dsm.program`) with the MCS process of the same identifier and
drives everything through the discrete-event simulator: a program step is a
handle-free simulator call (one processed event); between two steps of the
same program, in-flight messages are delivered, which is what lets
spin-waiting programs (the Bellman-Ford barrier of Figure 7) observe remote
writes.

Blocking operations (command-style ``yield Read(...)`` on protocols that may
raise :class:`~repro.exceptions.RetryOperation`) are retried by the runtime
without resuming the program.  A per-program step budget guards against
livelock: exceeding it raises :class:`~repro.exceptions.LivelockError` instead
of spinning forever.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, Optional

from ..exceptions import LivelockError, RetryOperation, SimulationError
from ..mcs.system import MCSystem
from .program import Command, ProcessContext, ProgramFn, Read, Write


@dataclass
class ProgramState:
    """Book-keeping of one running program."""

    pid: int
    generator: Generator[Command, Any, Any]
    context: ProcessContext
    steps: int = 0
    retries: int = 0
    finished: bool = False
    result: Any = None
    pending_command: Optional[Command] = None
    send_value: Any = None


class DSMRuntime:
    """Runs application programs on top of a :class:`~repro.mcs.MCSystem`."""

    def __init__(
        self,
        system: MCSystem,
        step_delay: float = 0.1,
        retry_delay: float = 0.5,
        max_steps_per_process: int = 200_000,
        max_events: int = 5_000_000,
    ):
        self.system = system
        self.step_delay = step_delay
        self.retry_delay = retry_delay
        self.max_steps_per_process = max_steps_per_process
        self.max_events = max_events
        self._programs: Dict[int, ProgramState] = {}
        # A queued step is a handle-free call of one callback on a process
        # id.  The callback holds a weak proxy: the system's simulator owns
        # the queue, so a strong reference would be a cycle.
        self._step_call = partial(DSMRuntime._step_pid, weakref.proxy(self))

    # -- setup -------------------------------------------------------------------------
    def add_program(self, pid: int, program: ProgramFn) -> None:
        """Attach ``program`` to application process ``pid``."""
        if pid in self._programs:
            raise SimulationError(f"process {pid} already has a program")
        context = ProcessContext(pid, self.system.process(pid))
        self._programs[pid] = ProgramState(pid, program(context), context)

    def add_programs(self, programs: Dict[int, ProgramFn]) -> None:
        """Attach one program per process identifier."""
        for pid, program in sorted(programs.items()):
            self.add_program(pid, program)

    # -- execution ----------------------------------------------------------------------
    def run(self) -> Dict[int, Any]:
        """Run every program to completion; returns ``pid -> program result``."""
        simulator = self.system.simulator
        for offset, pid in enumerate(sorted(self._programs)):
            simulator.call_at(simulator.now + offset * 1e-6, self._step_call, [pid])
        simulator.run(max_events=self.max_events)
        unfinished = [pid for pid, s in self._programs.items() if not s.finished]
        if unfinished:  # pragma: no cover - defensive, programs reschedule themselves
            raise SimulationError(f"programs did not complete: {unfinished}")
        return self.results()

    def results(self) -> Dict[int, Any]:
        """Results returned by the finished programs."""
        return {pid: s.result for pid, s in self._programs.items() if s.finished}

    # -- internals -----------------------------------------------------------------------
    def _step(self, state: ProgramState) -> None:
        if state.finished:
            return
        state.steps += 1
        if state.steps > self.max_steps_per_process:
            raise LivelockError(
                f"program of process {state.pid} exceeded {self.max_steps_per_process} steps"
            )
        # A pending command is retried without resuming the generator.
        if state.pending_command is not None:
            self._execute_command(state, state.pending_command)
            return
        try:
            command = state.generator.send(state.send_value)
        except StopIteration as stop:
            state.finished = True
            state.result = stop.value
            return
        state.send_value = None
        if command is None:
            self._reschedule(state, self.step_delay)
        else:
            self._execute_command(state, command)

    def _execute_command(self, state: ProgramState, command: Command) -> None:
        mcs = self.system.process(state.pid)
        try:
            if isinstance(command, Read):
                state.send_value = mcs.read(command.variable)
            elif isinstance(command, Write):
                mcs.write(command.variable, command.value)
                state.send_value = None
            else:
                raise SimulationError(f"program yielded an unknown command: {command!r}")
        except RetryOperation:
            state.pending_command = command
            state.retries += 1
            self._reschedule(state, self.retry_delay)
            return
        state.pending_command = None
        self._reschedule(state, self.step_delay)

    def _reschedule(self, state: ProgramState, delay: float) -> None:
        simulator = self.system.simulator
        simulator.call_at(simulator.now + delay, self._step_call, [state.pid])

    def _step_pid(self, pid: int) -> None:
        self._step(self._programs[pid])

    # -- reporting ------------------------------------------------------------------------
    def step_counts(self) -> Dict[int, int]:
        """Steps executed per program (diagnostics)."""
        return {pid: s.steps for pid, s in self._programs.items()}

    def retry_counts(self) -> Dict[int, int]:
        """Blocking-operation retries per program (diagnostics)."""
        return {pid: s.retries for pid, s in self._programs.items()}
