"""Async-safety rule family: fixtures, pragma escapes, seeded mutations.

The seeded-mutation tests take the *real* shipped modules, introduce
exactly the bug each rule exists for (a ``time.sleep`` in an async
handler, a dropped ``await``), and assert the rule reports exactly that
mutation — proving the rules fire on production code shapes, not just
toy fixtures.
"""

import textwrap
from pathlib import Path

from repro.analyze import analyze_source
from repro.analyze.registry import RULES, all_rules
from repro.analyze.runner import _check_module, _parse_module, iter_python_files
from repro.analyze.callgraph import build_project

REPO = Path(__file__).resolve().parents[2]

all_rules()  # ensure registration


def findings_for(src, rule_id, relpath="pkg/mod.py"):
    found = analyze_source(textwrap.dedent(src), relpath)
    return [f for f in found if f.rule == rule_id]


class TestAsyncBlockingCall:
    def test_direct_sleep_in_async_def(self):
        found = findings_for("""
            import time

            async def handler():
                time.sleep(0.1)
        """, "async-blocking-call")
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_transitive_blocking_helper(self):
        found = findings_for("""
            import time

            def helper():
                time.sleep(1)

            async def handler():
                helper()
        """, "async-blocking-call")
        assert len(found) == 1
        assert "helper" in found[0].message

    def test_future_result_blocks(self):
        found = findings_for("""
            async def handler(fut):
                x = fut.result()
        """, "async-blocking-call")
        assert len(found) == 1
        assert "result" in found[0].message

    def test_kernel_invocation_blocks(self):
        found = findings_for("""
            from repro.core.kernels import compress_blocks

            async def handler(data, bound):
                return compress_blocks(data, bound)
        """, "async-blocking-call")
        assert len(found) == 1

    def test_executor_routing_is_clean(self):
        found = findings_for("""
            import asyncio, time

            def helper():
                time.sleep(1)

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, helper)
                await asyncio.to_thread(helper)
        """, "async-blocking-call")
        assert found == []

    def test_sync_functions_may_block_freely(self):
        found = findings_for("""
            import time

            def not_async():
                time.sleep(1)
        """, "async-blocking-call")
        assert found == []

    def test_blocking_ok_pragma_suppresses(self):
        found = findings_for("""
            import time

            async def handler():
                time.sleep(0.1)  # analyze: blocking-ok
        """, "async-blocking-call")
        assert found == []

    def test_generic_ignore_pragma_suppresses(self):
        found = findings_for("""
            import time

            async def handler():
                time.sleep(0.1)  # analyze: ignore[async-blocking-call]
        """, "async-blocking-call")
        assert found == []


class TestAwaitHoldingLock:
    def test_await_inside_lock_with_block(self):
        found = findings_for("""
            async def f(self):
                with self._lock:
                    await thing()
        """, "await-holding-lock")
        assert len(found) == 1

    def test_await_after_lock_released_is_clean(self):
        found = findings_for("""
            async def f(self):
                with self._lock:
                    x = 1
                await thing()
        """, "await-holding-lock")
        assert found == []

    def test_non_lock_context_is_clean(self):
        found = findings_for("""
            async def f(self):
                with self.clock:
                    await thing()
        """, "await-holding-lock")
        assert found == []

    def test_pragma_suppresses(self):
        found = findings_for("""
            async def f(self):
                with self._lock:
                    await thing()  # analyze: ignore[await-holding-lock]
        """, "await-holding-lock")
        assert found == []


class TestUnawaitedCoroutine:
    def test_bare_async_call_statement(self):
        found = findings_for("""
            async def job():
                pass

            async def main():
                job()
        """, "unawaited-coroutine")
        assert len(found) == 1
        assert "job" in found[0].message

    def test_awaited_call_is_clean(self):
        found = findings_for("""
            async def job():
                pass

            async def main():
                await job()
        """, "unawaited-coroutine")
        assert found == []

    def test_create_task_sink_is_clean(self):
        found = findings_for("""
            import asyncio

            async def job():
                pass

            async def main():
                asyncio.create_task(job())
        """, "unawaited-coroutine")
        assert found == []

    def test_known_asyncio_coroutine(self):
        found = findings_for("""
            import asyncio

            async def main():
                asyncio.sleep(1)
        """, "unawaited-coroutine")
        assert len(found) == 1

    def test_pragma_suppresses(self):
        found = findings_for("""
            async def job():
                pass

            async def main():
                job()  # analyze: ignore[unawaited-coroutine]
        """, "unawaited-coroutine")
        assert found == []


class TestLoopPrimitiveBinding:
    def test_primitive_in_init_flags(self):
        found = findings_for("""
            import asyncio

            class Server:
                def __init__(self):
                    self.work = asyncio.Semaphore(0)
        """, "loop-primitive-binding")
        assert len(found) == 1

    def test_primitive_in_async_start_is_clean(self):
        found = findings_for("""
            import asyncio

            class Server:
                async def start(self):
                    self.work = asyncio.Semaphore(0)
        """, "loop-primitive-binding")
        assert found == []

    def test_get_event_loop_flags(self):
        found = findings_for("""
            import asyncio

            def f():
                loop = asyncio.get_event_loop()
        """, "loop-primitive-binding")
        assert len(found) == 1


def analyze_tree_with_mutation(relpath, old, new):
    """Re-analyze the real src tree with one module's source mutated."""
    mutated_path = str(REPO / relpath)
    modules = []
    target = None
    for path in iter_python_files([str(REPO / "src" / "repro")]):
        source = Path(path).read_text(encoding="utf-8")
        rel = str(Path(path).relative_to(REPO)).replace("\\", "/")
        if path == mutated_path:
            assert old in source, f"mutation anchor not found in {rel}"
            source = source.replace(old, new)
        module, err = _parse_module(source, rel)
        assert err is None, err
        modules.append(module)
        if path == mutated_path:
            target = module
    assert target is not None
    project = build_project(modules)
    findings = []
    for module in modules:
        module.project = project
        findings.extend(_check_module(module, list(RULES.values())))
    return findings


class TestSeededMutations:
    """Each mutation reintroduces a real bug; the rule must catch it."""

    def test_sleep_inserted_into_async_handler_is_caught(self):
        findings = analyze_tree_with_mutation(
            "src/repro/net/server.py",
            "async def _handle_conn(self",
            "async def _handle_conn(self",
        )
        baseline_count = len(
            [f for f in findings if f.rule == "async-blocking-call"]
        )
        assert baseline_count == 0  # shipped tree is clean

        findings = analyze_tree_with_mutation(
            "src/repro/net/server.py",
            "    async def _handle_conn(self, reader, writer) -> None:\n",
            "    async def _handle_conn(self, reader, writer) -> None:\n"
            "        import time\n"
            "        time.sleep(0.5)\n",
        )
        hits = [f for f in findings if f.rule == "async-blocking-call"]
        assert len(hits) == 1
        assert hits[0].path == "src/repro/net/server.py"
        assert "time.sleep" in hits[0].message

    def test_unrouted_shardset_construction_is_caught(self):
        findings = analyze_tree_with_mutation(
            "src/repro/net/server.py",
            "self.shards = await loop.run_in_executor(\n"
            "            None, lambda: ShardSet(**self._shard_args)\n"
            "        )",
            "self.shards = ShardSet(**self._shard_args)",
        )
        hits = [f for f in findings if f.rule == "async-blocking-call"]
        assert len(hits) == 1
        assert "ShardSet" in hits[0].message
        assert hits[0].symbol == "NetServer.start"

    def test_dropped_await_is_caught(self):
        # Dropping the await on a writer.drain() leaves a dead coroutine
        # and an unflushed response buffer.
        findings = analyze_tree_with_mutation(
            "src/repro/net/server.py",
            "writer.write(out)\n"
            "                await writer.drain()",
            "writer.write(out)\n"
            "                writer.drain()",
        )
        hits = [f for f in findings if f.rule == "unawaited-coroutine"]
        assert len(hits) == 1
        assert hits[0].path == "src/repro/net/server.py"
        assert "drain" in hits[0].message
