"""Unit tests for intra-query parallelism (Section 4.4)."""

import pytest

from repro.exec.parallel import (
    BloomFilter,
    BloomStage,
    FilterStage,
    GroupByStage,
    JoinStage,
    ParallelPipeline,
    WorkerPool,
)


class TestWorkerPool:
    def test_needs_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_fcfs_balances_uniform_work(self):
        pool = WorkerPool(4)
        for __ in range(400):
            pool.dispatch(10.0)
        assert pool.imbalance() == pytest.approx(1.0, abs=0.01)

    def test_fcfs_balances_skewed_work(self):
        # The key property of first-come-first-serve morsels: even with
        # wildly variable morsel costs, workers stay balanced.
        pool = WorkerPool(4)
        for index in range(400):
            pool.dispatch(1.0 if index % 10 else 200.0)
        assert pool.imbalance() < 1.15

    def test_wall_clock_is_critical_path(self):
        pool = WorkerPool(2)
        pool.dispatch(100.0)
        pool.dispatch(30.0)
        assert pool.wall_clock_us() == pytest.approx(
            100.0 + pool.setup_us
        )

    def test_reduce_to_fewer_workers(self):
        pool = WorkerPool(4)
        for __ in range(100):
            pool.dispatch(10.0)
        pool.reduce_to(1)
        assert pool.n_workers == 1
        assert pool.reductions == 1
        for __ in range(100):
            pool.dispatch(10.0)
        # All later work lands on the lone survivor.
        assert pool.wall_clock_us() >= 1000.0

    def test_reduce_below_one_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(2).reduce_to(0)

    def test_reduce_to_more_is_noop(self):
        pool = WorkerPool(2)
        pool.reduce_to(8)
        assert pool.n_workers == 2
        assert pool.reductions == 0


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter()
        keys = list(range(0, 2000, 7))
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_mostly_rejects_absent_keys(self):
        bloom = BloomFilter(n_bits=65536)
        for key in range(500):
            bloom.add(key)
        false_positives = sum(
            1 for key in range(10_000, 20_000) if bloom.might_contain(key)
        )
        assert false_positives < 500  # < 5%


def make_star_pipeline(n_facts=2000, n_dims=100):
    facts = [(i, i % n_dims, float(i % 7)) for i in range(n_facts)]
    dims = [(d, "name%d" % d) for d in range(n_dims)]
    join = JoinStage(
        dims, build_key=lambda d: d[0], probe_key=lambda f: f[1]
    )
    return facts, dims, join


class TestPipeline:
    def test_join_results_correct(self):
        facts, dims, join = make_star_pipeline()
        pipeline = ParallelPipeline(facts, [join])
        output, stats = pipeline.run(n_workers=4)
        assert len(output) == len(facts)  # every fact matches one dim
        fact, dim = output[0]
        assert fact[1] == dim[0]

    def test_results_independent_of_worker_count(self):
        facts, dims, join_a = make_star_pipeline()
        out1, __ = ParallelPipeline(facts, [join_a]).run(n_workers=1)
        __, dims_b, join_b = make_star_pipeline()
        out8, __stats = ParallelPipeline(facts, [join_b]).run(n_workers=8)
        assert sorted(map(repr, out1)) == sorted(map(repr, out8))

    def test_parallel_speedup_near_linear(self):
        facts, __, join1 = make_star_pipeline(n_facts=5000)
        __, __d, join4 = make_star_pipeline(n_facts=5000)
        __, stats1 = ParallelPipeline(facts, [join1]).run(n_workers=1)
        __, stats4 = ParallelPipeline(facts, [join4]).run(n_workers=4)
        speedup = stats4.speedup_over(stats1)
        assert 3.0 < speedup <= 4.2

    def test_total_work_roughly_constant(self):
        # Parallelism should not inflate the total work much.
        facts, __, join1 = make_star_pipeline(n_facts=5000)
        __, __d, join8 = make_star_pipeline(n_facts=5000)
        __, stats1 = ParallelPipeline(facts, [join1]).run(n_workers=1)
        __, stats8 = ParallelPipeline(facts, [join8]).run(n_workers=8)
        assert stats8.total_work_us < stats1.total_work_us * 1.10

    def test_reduction_to_one_only_slightly_worse_than_serial(self):
        """The paper's claim: 'if the number of threads is dynamically
        reduced to one, then the total cost of the query is only slightly
        worse than if it was never set up to use parallelism.'"""
        facts, __, join_serial = make_star_pipeline(n_facts=5000)
        __, __d, join_reduced = make_star_pipeline(n_facts=5000)
        __, serial = ParallelPipeline(facts, [join_serial]).run(n_workers=1)
        __, reduced = ParallelPipeline(facts, [join_reduced]).run(
            n_workers=8, reduce_to=1, reduce_at_fraction=0.0
        )
        assert reduced.wall_clock_us <= serial.wall_clock_us * 1.10
        assert reduced.workers_final == 1

    def test_bloom_stage_filters(self):
        facts, dims, join = make_star_pipeline(n_facts=1000, n_dims=100)
        bloom = BloomStage(
            keys=[d for d in range(0, 100, 2)], probe_key=lambda f: f[1]
        )
        pipeline = ParallelPipeline(facts, [bloom, join])
        output, __ = pipeline.run(n_workers=2)
        assert all(fact[1] % 2 == 0 for fact, __d in output)

    def test_filter_stage(self):
        facts, dims, join = make_star_pipeline(n_facts=1000)
        stage = FilterStage(lambda f: f[2] == 0.0)
        output, __ = ParallelPipeline(facts, [stage, join]).run(n_workers=3)
        assert all(fact[2] == 0.0 for fact, __d in output)

    def test_multi_join_pipeline(self):
        # Right-deep two-join pipeline: fact -> dim1 -> dim2.
        facts = [(i, i % 10, i % 5) for i in range(500)]
        dim1 = [(d, "a%d" % d) for d in range(10)]
        dim2 = [(d, "b%d" % d) for d in range(5)]
        join1 = JoinStage(dim1, lambda d: d[0], lambda f: f[1])
        join2 = JoinStage(
            dim2, lambda d: d[0], lambda pair: pair[0][2]
        )
        output, stats = ParallelPipeline(facts, [join1, join2]).run(4)
        assert len(output) == 500
        (fact, d1), d2 = output[0]
        assert d1[0] == fact[1] and d2[0] == fact[2]
        assert stats.imbalance < 1.2

    def test_group_by_stage(self):
        facts, dims, join = make_star_pipeline(n_facts=2000, n_dims=10)
        group_by = GroupByStage(
            key_fn=lambda pair: pair[1][0],       # group by dim id
            init_fn=lambda: [0],
            accumulate_fn=lambda state, row: state.__setitem__(0, state[0] + 1),
            merge_fn=lambda a, b: a.__setitem__(0, a[0] + b[0]),
        )
        pipeline = ParallelPipeline(facts, [join], group_by=group_by)
        groups, __ = pipeline.run(n_workers=4)
        assert len(groups) == 10
        assert all(state[0] == 200 for state in groups.values())

    def test_group_by_independent_of_workers(self):
        results = []
        for workers in (1, 4):
            facts, __, join = make_star_pipeline(n_facts=1000, n_dims=8)
            group_by = GroupByStage(
                key_fn=lambda pair: pair[1][0],
                init_fn=lambda: [0],
                accumulate_fn=lambda s, r: s.__setitem__(0, s[0] + 1),
                merge_fn=lambda a, b: a.__setitem__(0, a[0] + b[0]),
            )
            groups, __s = ParallelPipeline(facts, [join], group_by=group_by).run(
                workers
            )
            results.append(sorted((k, s[0]) for k, s in groups.items()))
        assert results[0] == results[1]

    def test_charges_simulated_clock(self):
        """The critical path goes through the context's one charge path,
        fraction included."""

        class Ctx:
            charged = []

            def charge(self, us):
                self.charged.append(us)

        ctx = Ctx()
        facts, __, join = make_star_pipeline()
        __, stats = ParallelPipeline(facts, [join]).run(n_workers=2, ctx=ctx)
        assert stats.wall_clock_us > 0
        assert ctx.charged == [stats.wall_clock_us]
