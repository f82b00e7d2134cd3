"""Pool workers must not outlive a SIGKILLed parent.

A worker waiting for its next assignment never sees EOF when the
parent dies -- its siblings hold copies of the assignment pipe's write
end -- so it watches for adoption instead. This test SIGKILLs a real
``SweepRunner(jobs=2)`` parent in a subprocess while both workers sit
idle, then requires every worker to be gone within five seconds.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(signal, "SIGKILL"),
    reason="needs forked workers and SIGKILL")

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

STALLING_SWEEP = textwrap.dedent("""\
    import os, sys, time
    from pathlib import Path
    from repro.runner import SweepCheckpoint, SweepRunner

    out = Path(sys.argv[1])

    def run(task_id):
        (out / ("worker-%d" % os.getpid())).touch()
        return {"task": task_id}

    class Stall(SweepCheckpoint):
        def mark_completed(self, task_id, payload):
            # The parent blocks here, both workers idle, until killed.
            (out / "stalled").touch()
            time.sleep(120.0)

    SweepRunner(run, jobs=2,
                checkpoint=Stall(out / "checkpoint.json", {})).run(["a", "b"])
""")


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover -- no procfs: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_when_the_parent_is_sigkilled(tmp_path):
    parent = subprocess.Popen(
        [sys.executable, "-c", STALLING_SWEEP, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=REPO_SRC))
    pids = []
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            pids = [int(path.name.split("-")[1])
                    for path in tmp_path.glob("worker-*")]
            if len(pids) == 2 and (tmp_path / "stalled").exists():
                break
            assert parent.poll() is None, "sweep exited before stalling"
            time.sleep(0.05)
        else:
            pytest.fail("sweep never stalled with both workers up")
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
    finally:
        parent.kill()
        parent.wait()
        for pid in pids:  # never leak orphans past the test
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    assert survivors == [], f"workers outlived their parent: {survivors}"
