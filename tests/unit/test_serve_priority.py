"""Unit tests of priority classes: DRR weights, starvation freedom."""

import asyncio

import pytest

from repro.serve.server import WeightedQueue, parse_class_weights


class TestParseClassWeights:
    def test_basic(self):
        assert parse_class_weights("gold=4,normal=1") == {
            "gold": 4, "normal": 1,
        }

    def test_malformed_entries_raise(self):
        for bad in ("broken", "=2", "x=zero", "neg=-1", "gold=0",
                    "gold=4,broken"):
            with pytest.raises(ValueError, match="class weight"):
                parse_class_weights(bad)

    def test_empty(self):
        assert parse_class_weights(None) == {}
        assert parse_class_weights("") == {}


class TestWeightedQueue:
    def test_fifo_within_one_class(self):
        async def run():
            queue = WeightedQueue()
            for i in range(5):
                queue.put_nowait(i, "normal")
            return [await queue.get() for _ in range(5)]

        assert asyncio.run(run()) == [0, 1, 2, 3, 4]

    def test_weights_split_slots_proportionally(self):
        async def run():
            queue = WeightedQueue({"gold": 3, "normal": 1})
            for i in range(12):
                queue.put_nowait(("gold", i), "gold")
                queue.put_nowait(("normal", i), "normal")
            return [await queue.get() for _ in range(8)]

        served = asyncio.run(run())
        gold = sum(1 for cls, _ in served if cls == "gold")
        assert gold == 6  # two full cycles: 3 gold + 1 normal each

    def test_low_weight_class_is_never_starved(self):
        async def run():
            queue = WeightedQueue({"gold": 7, "normal": 1})
            for i in range(64):
                queue.put_nowait(("gold", i), "gold")
            for i in range(8):
                queue.put_nowait(("normal", i), "normal")
            return [await queue.get() for _ in range(64)]

        served = asyncio.run(run())
        # Every full DRR cycle (8 pops at weights 7+1) serves the
        # weight-1 class at least once — no starvation window.
        for start in range(0, 64, 8):
            cycle = served[start:start + 8]
            assert any(cls == "normal" for cls, _ in cycle), (
                f"normal starved in cycle at {start}: {cycle}"
            )

    def test_credit_does_not_bank_across_idle_cycles(self):
        async def run():
            queue = WeightedQueue({"gold": 5})
            # Gold drains alone (accumulating would-be credit)...
            for i in range(10):
                queue.put_nowait(("gold", i), "gold")
            first = [await queue.get() for _ in range(10)]
            # ...then a fresh contender arrives: it must be served
            # within one cycle, not after any banked gold credit.
            queue.put_nowait(("late", 0), "late")
            queue.put_nowait(("gold", 10), "gold")
            second = [await queue.get() for _ in range(2)]
            return first, second

        _, second = asyncio.run(run())
        assert ("late", 0) in second

    def test_unknown_class_defaults_to_weight_one(self):
        queue = WeightedQueue({"gold": 4})
        assert queue.weight_of("gold") == 4
        assert queue.weight_of("never-seen") == 1

    def test_control_items_bypass_classes(self):
        async def run():
            queue = WeightedQueue({"gold": 4})
            stop = object()
            for i in range(4):
                queue.put_nowait(i, "gold")
            queue.put_control(stop)
            return await queue.get(), stop

        got, stop = asyncio.run(run())
        assert got is stop

    def test_served_counts_are_tracked(self):
        async def run():
            queue = WeightedQueue({"gold": 2})
            queue.put_nowait("a", "gold")
            queue.put_nowait("b", "normal")
            await queue.get()
            await queue.get()
            return dict(queue.served)

        served = asyncio.run(run())
        assert sum(served.values()) == 2

    def test_get_blocks_until_put(self):
        async def run():
            queue = WeightedQueue()
            waiter = asyncio.create_task(queue.get())
            await asyncio.sleep(0.01)
            assert not waiter.done()
            queue.put_nowait("item", "normal")
            return await asyncio.wait_for(waiter, timeout=5)

        assert asyncio.run(run()) == "item"
