"""Flag / no-flag fixtures for the fork-safety rule."""

from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_sources

FIXTURES = Path(__file__).parent / "fixtures" / "miniproj"


def findings_for(sources):
    report = lint_sources(sources, rule_names=["fork-safety"])
    return report.findings


class TestFlags:
    def test_pr5_shared_queue_reconstruction(self):
        """The chaos-soak deadlock of PR 5, as a static finding."""
        findings = findings_for({"repro.runner.bad": (
            "import multiprocessing as mp\n"
            "Q = mp.Queue()\n"
            "def worker(q):\n"
            "    q.put(1)\n"
            "def spawn():\n"
            "    mp.Process(target=worker, args=(Q,)).start()\n"
        )})
        assert any("feeder thread" in f.message for f in findings)
        assert any("SimpleQueue" in f.message for f in findings)

    def test_queue_in_forking_module_flags_even_when_local(self):
        findings = findings_for({"repro.runner.bad": (
            "import multiprocessing as mp\n"
            "def spawn(worker):\n"
            "    q = mp.JoinableQueue()\n"
            "    mp.Process(target=worker, args=(q,)).start()\n"
        )})
        assert len(findings) == 1
        assert "JoinableQueue" in findings[0].message

    def test_prefork_lock_reachable_from_worker(self):
        findings = findings_for({"repro.runner.bad": (
            "import multiprocessing as mp\n"
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "def worker():\n"
            "    with LOCK:\n"
            "        pass\n"
            "def spawn():\n"
            "    mp.Process(target=worker).start()\n"
        )})
        assert len(findings) == 1
        assert "pre-fork" in findings[0].message
        assert "'LOCK'" in findings[0].message

    def test_prefork_handle_passed_through_args(self):
        findings = findings_for({"repro.runner.bad": (
            "import multiprocessing as mp\n"
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "def worker(lock):\n"
            "    lock.acquire()\n"
            "def spawn():\n"
            "    mp.Process(target=worker, args=(LOCK,)).start()\n"
        )})
        assert len(findings) == 1

    @pytest.mark.parametrize("imports, constructor", [
        ("from concurrent.futures import ThreadPoolExecutor\n",
         "ThreadPoolExecutor"),
        ("import concurrent.futures as cf\n", "cf.ThreadPoolExecutor"),
    ])
    def test_prefork_thread_pool_reachable_from_worker(self, imports,
                                                       constructor):
        """A pool made before the fork has no threads in the child."""
        findings = findings_for({"repro.runner.bad": (
            "import multiprocessing as mp\n"
            + imports +
            f"POOL = {constructor}(max_workers=2)\n"
            "def worker():\n"
            "    POOL.submit(print).result()\n"
            "def spawn():\n"
            "    mp.Process(target=worker).start()\n"
        )})
        assert len(findings) == 1
        assert "thread pool 'POOL'" in findings[0].message
        assert "pre-fork" in findings[0].message

    def test_global_rebound_on_both_sides(self):
        findings = findings_for({"repro.runner.bad": (
            "import multiprocessing as mp\n"
            "_STATE = 0\n"
            "def worker():\n"
            "    global _STATE\n"
            "    _STATE = 1\n"
            "def parent_update():\n"
            "    global _STATE\n"
            "    _STATE = 2\n"
            "def spawn():\n"
            "    mp.Process(target=worker).start()\n"
            "    parent_update()\n"
        )})
        assert len(findings) == 1
        assert "separate copies" in findings[0].message

    def test_fixture_project_flags_all_three(self):
        report = lint_paths([FIXTURES], rule_names=["fork-safety"])
        messages = [f.message for f in report.findings]
        assert any("feeder thread" in m for m in messages)
        assert any("pre-fork" in m for m in messages)
        assert any("separate copies" in m for m in messages)


class TestNoFlags:
    def test_per_worker_simplequeue_and_pipe(self):
        # The supervisor's post-PR-5 design: nothing shared, no feeder.
        assert not findings_for({"repro.runner.good": (
            "import multiprocessing as mp\n"
            "def worker(q, conn):\n"
            "    q.get()\n"
            "    conn.send(1)\n"
            "def spawn():\n"
            "    ctx = mp.get_context('fork')\n"
            "    q = ctx.SimpleQueue()\n"
            "    recv, send = ctx.Pipe(duplex=False)\n"
            "    ctx.Process(target=worker, args=(q, send)).start()\n"
        )})

    def test_queue_without_a_fork_is_fine(self):
        assert not findings_for({"repro.obs.good": (
            "import multiprocessing as mp\n"
            "Q = mp.Queue()\n"
            "def push(x):\n"
            "    Q.put(x)\n"
        )})

    def test_single_writer_helper_is_sanctioned(self):
        # The fix pattern for split writes: one audited chokepoint.
        assert not findings_for({"repro.runner.good": (
            "import multiprocessing as mp\n"
            "_STATE = 0\n"
            "def _set_state(value):\n"
            "    global _STATE\n"
            "    _STATE = value\n"
            "def worker():\n"
            "    _set_state(1)\n"
            "def spawn():\n"
            "    mp.Process(target=worker).start()\n"
            "    _set_state(2)\n"
        )})

    def test_lock_created_inside_worker(self):
        assert not findings_for({"repro.runner.good": (
            "import multiprocessing as mp\n"
            "import threading\n"
            "def worker():\n"
            "    lock = threading.Lock()\n"
            "    with lock:\n"
            "        pass\n"
            "def spawn():\n"
            "    mp.Process(target=worker).start()\n"
        )})

    def test_thread_pool_made_and_joined_inside_a_call(self):
        # Step A's shape: the pool lives and dies within one call.
        assert not findings_for({"repro.runner.good": (
            "import multiprocessing as mp\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def draw():\n"
            "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
            "        return pool.submit(sum, [1]).result()\n"
            "def worker():\n"
            "    draw()\n"
            "def spawn():\n"
            "    draw()\n"
            "    mp.Process(target=worker).start()\n"
        )})

    def test_prefork_lock_used_only_by_parent(self):
        assert not findings_for({"repro.runner.good": (
            "import multiprocessing as mp\n"
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "def worker():\n"
            "    return 1\n"
            "def spawn():\n"
            "    mp.Process(target=worker).start()\n"
            "    with LOCK:\n"
            "        pass\n"
        )})


class TestRealModules:
    def test_supervised_runner_is_fork_clean(self):
        """Regression: the _TASK_INCARNATION split write stays fixed."""
        report = lint_paths([Path("src/repro/runner")],
                            rule_names=["fork-safety"])
        assert report.is_clean
