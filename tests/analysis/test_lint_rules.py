"""Each SIM rule fires on a minimal violating snippet and stays quiet on
the compliant counterpart."""

import textwrap

import repro.analysis.rules  # noqa: F401  (registers the rules)
from repro.analysis.lint import Linter, module_name_for


def lint(source, module_name="repro.exec.fake", select=None):
    return Linter(select=select).check_source(
        textwrap.dedent(source), path="fake.py", module_name=module_name
    )


def codes(source, **kwargs):
    return [violation.rule_id for violation in lint(source, **kwargs)]


class TestSIM001WallClock:
    def test_import_time_fires(self):
        assert "SIM001" in codes("import time\n")

    def test_from_time_import_fires(self):
        assert "SIM001" in codes("from time import sleep\n")

    def test_time_call_fires(self):
        assert "SIM001" in codes("start = time.time()\n")

    def test_datetime_now_fires(self):
        assert "SIM001" in codes("stamp = datetime.datetime.now()\n")

    def test_global_random_fires(self):
        assert "SIM001" in codes("x = random.random()\n")

    def test_from_random_import_fires(self):
        assert "SIM001" in codes("from random import randint\n")

    def test_seeded_random_is_clean(self):
        source = """
        import random

        rng = random.Random(7)
        value = rng.random()
        """
        assert codes(source) == []

    def test_from_random_import_random_class_is_clean(self):
        assert codes("from random import Random\n") == []


class TestSIM002FloatEquality:
    def test_float_literal_eq_fires(self):
        assert "SIM002" in codes("flag = x == 0.5\n")

    def test_float_literal_noteq_fires(self):
        assert "SIM002" in codes("flag = x != 1.0\n")

    def test_cost_name_eq_fires(self):
        assert "SIM002" in codes("flag = best_cost == other.cost\n")

    def test_selectivity_name_eq_fires(self):
        assert "SIM002" in codes("flag = selectivity == s\n")

    def test_int_literal_is_clean(self):
        assert codes("flag = x == 1\n") == []

    def test_inequality_is_clean(self):
        assert codes("flag = cost <= other_cost\n") == []


class TestSIM003GuardedPins:
    def test_bare_pin_expression_fires(self):
        source = """
        def touch(pool, file):
            pool.fetch(file, 1)
        """
        assert "SIM003" in codes(source)

    def test_unguarded_assignment_fires(self):
        source = """
        def read(self, file):
            frame = self.pool.fetch(file, 1)
            return frame.payload
        """
        assert "SIM003" in codes(source)

    def test_try_finally_is_clean(self):
        source = """
        def read(self, file):
            frame = self.pool.fetch(file, 1)
            try:
                return frame.payload
            finally:
                self.pool.unpin(frame)
        """
        assert codes(source) == []

    def test_pin_guard_is_clean(self):
        source = """
        def create(self, file):
            with self.pool.pin_guard(self.pool.new_page(file)) as frame:
                return frame.page_no
        """
        assert codes(source) == []

    def test_return_position_wrapper_is_clean(self):
        source = """
        def _read(self, page_no):
            return self.pool.fetch(self.file, page_no)
        """
        assert codes(source) == []

    def test_rule_scoped_to_exec_and_storage(self):
        source = """
        def touch(pool, file):
            pool.fetch(file, 1)
        """
        assert codes(source, module_name="repro.buffer.pool") == []


class TestSIM004MetricNames:
    def test_bad_convention_fires(self):
        assert "SIM004" in codes('metrics.counter("BadName").inc()\n')

    def test_missing_subsystem_fires(self):
        assert "SIM004" in codes('metrics.counter("hits").inc()\n')

    def test_computed_name_fires(self):
        assert "SIM004" in codes("metrics.counter(name).inc()\n")

    def test_template_without_prefix_fires(self):
        assert "SIM004" in codes('metrics.counter("%s" % n).inc()\n')

    def test_literal_name_is_clean(self):
        assert codes('metrics.counter("pool.hits").inc()\n') == []

    def test_prefixed_template_is_clean(self):
        assert codes('registry.register_probe("pool.%s" % n, probe)\n') == []

    def test_prefixed_concatenation_is_clean(self):
        assert codes('metrics.counter("plancache." + n).inc(1)\n') == []

    def test_non_metrics_receiver_ignored(self):
        assert codes('tally.counter("whatever")\n') == []


class TestSIM005OperatorProtocol:
    def test_operator_without_execute_batches_fires(self):
        source = """
        class BrokenOp(Operator):
            def helper(self):
                return 1
        """
        assert "SIM005" in codes(source)

    def test_operator_with_row_execute_fires(self):
        source = """
        class DualOp(Operator):
            def execute(self, ctx):
                yield from ()

            def execute_batches(self, ctx):
                yield from ()
        """
        assert "SIM005" in codes(source)

    def test_row_execute_outside_operators_is_clean(self):
        source = """
        class Connection:
            def execute(self, sql):
                return sql
        """
        assert codes(source) == []

    def test_memory_pages_without_relinquish_fires(self):
        source = """
        class HoarderOp(Operator):
            memory_pages = 0

            def execute_batches(self, ctx):
                yield from ()
        """
        assert "SIM005" in codes(source)

    def test_full_protocol_is_clean(self):
        source = """
        class GoodOp(Operator):
            def execute_batches(self, ctx):
                yield from ()

            @property
            def memory_pages(self):
                return 0

            def relinquish_memory(self):
                return 0
        """
        assert codes(source) == []


class TestSIM006MutableDefaults:
    def test_list_default_fires(self):
        assert "SIM006" in codes("def f(items=[]):\n    return items\n")

    def test_dict_call_default_fires(self):
        assert "SIM006" in codes("def f(opts=dict()):\n    return opts\n")

    def test_kwonly_default_fires(self):
        assert "SIM006" in codes("def f(*, seen={}):\n    return seen\n")

    def test_none_default_is_clean(self):
        assert codes("def f(items=None):\n    return items\n") == []


class TestSIM007SwallowedExceptions:
    def test_bare_except_pass_fires(self):
        source = """
        try:
            work()
        except:
            pass
        """
        assert "SIM007" in codes(source)

    def test_broad_except_pass_fires(self):
        source = """
        try:
            work()
        except Exception:
            pass
        """
        assert "SIM007" in codes(source)

    def test_specific_except_pass_is_clean(self):
        source = """
        try:
            work()
        except KeyError:
            pass
        """
        assert codes(source) == []

    def test_handled_broad_except_is_clean(self):
        source = """
        try:
            work()
        except Exception:
            record_failure()
        """
        assert codes(source) == []


class TestSIM009CatalogLockDiscipline:
    ENGINE = "repro.engine.fake"

    def test_unlocked_add_table_fires(self):
        source = """
        def create(self, schema):
            self.server.catalog.add_table(schema)
        """
        assert "SIM009" in codes(source, module_name=self.ENGINE)

    def test_unlocked_drop_index_fires(self):
        source = """
        def drop(self, name):
            catalog.drop_index(name)
        """
        assert "SIM009" in codes(source, module_name=self.ENGINE)

    def test_ddl_lock_helper_satisfies(self):
        source = """
        def create(self, schema):
            with self._ddl_lock(schema.name):
                self.server.catalog.add_table(schema)
        """
        assert codes(source, module_name=self.ENGINE) == []

    def test_acquire_table_satisfies(self):
        source = """
        def create(self, schema):
            self.server.lock_manager.acquire_table(1, schema.name, mode=X)
            self.server.catalog.add_table(schema)
        """
        assert codes(source, module_name=self.ENGINE) == []

    def test_non_catalog_receiver_is_clean(self):
        source = """
        def bookkeeping(self, schema):
            self.registry.add_table(schema)
        """
        assert codes(source, module_name=self.ENGINE) == []

    def test_outside_engine_package_is_clean(self):
        source = """
        def create(self, schema):
            self.server.catalog.add_table(schema)
        """
        assert codes(source, module_name="repro.recovery.fake") == []


class TestFramework:
    def test_noqa_suppresses_all(self):
        assert codes("import time  # noqa\n") == []

    def test_noqa_with_matching_code(self):
        assert codes("def f(x=[]):  # noqa: SIM006\n    return x\n") == []

    def test_noqa_with_other_code_keeps_violation(self):
        assert "SIM006" in codes(
            "def f(x=[]):  # noqa: SIM001\n    return x\n"
        )

    def test_syntax_error_reported_as_e901(self):
        assert codes("def broken(:\n") == ["E901"]

    def test_select_restricts_rules(self):
        source = "import time\ndef f(x=[]):\n    return x\n"
        assert codes(source, select={"SIM006"}) == ["SIM006"]

    def test_violation_render_format(self):
        violations = lint("import time\n")
        assert violations and violations[0].render().startswith(
            "fake.py:1:1: SIM001 "
        )

    def test_module_name_for(self):
        assert module_name_for("src/repro/exec/spill.py") == "repro.exec.spill"
        assert module_name_for("src/repro/exec/__init__.py") == "repro.exec"
