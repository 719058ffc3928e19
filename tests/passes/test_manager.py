"""PassManager behavior: ordering, switches, caching, telemetry, dumps."""

import pytest

from repro import terra
from repro.core import tast
from repro.errors import CompileError
from repro.passes import (
    LEVEL_PASSES,
    PIPELINE_CANON,
    PIPELINE_FULL,
    PIPELINE_NONE,
    PIPELINE_VEC,
    PassManager,
    available_passes,
    create_pass,
    pipeline_override,
    pipelined_body,
    resolve_level,
)


def typed_fn(source, env=None):
    fn = terra(source, env=env or {})
    fn.ensure_typechecked()
    return fn


class TestRegistry:
    def test_all_passes_registered(self):
        names = available_passes()
        for expected in ("fold", "simplify", "dce", "licm", "verify"):
            assert expected in names

    def test_unknown_pass_rejected(self):
        with pytest.raises(CompileError, match="unknown IR pass"):
            create_pass("vectorize-everything")

    def test_level_passes_are_registered(self):
        for level, names in LEVEL_PASSES.items():
            for name in names:
                assert name in available_passes(), (level, name)


class TestManager:
    def test_runs_in_order_and_records(self):
        fn = typed_fn("terra f(x : int) : int return (x + 0) + (2 * 3) end")
        manager = PassManager(["fold", "simplify", "dce"], verify=True)
        records = manager.run(fn.typed)
        assert [r["pass"] for r in records] == ["fold", "simplify", "dce"]
        assert all(r["seconds"] >= 0 for r in records)
        assert records[0]["changed"]  # 2 * 3 folded

    def test_disable_method(self):
        manager = PassManager(["fold", "simplify", "dce"])
        manager.disable("simplify")
        assert manager.pass_names() == ["fold", "dce"]

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_DISABLE_PASSES", "licm, dce")
        manager = PassManager(["fold", "simplify", "licm", "dce"])
        assert manager.pass_names() == ["fold", "simplify"]

    def test_dump_ir(self, monkeypatch, capsys):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        manager = PassManager(["fold"], dump="fold", verify=False)
        manager.run(fn.typed)
        err = capsys.readouterr().err
        assert "IR before pass 'fold'" in err
        assert "IR after pass 'fold'" in err
        assert "terra f" in err

    def test_pass_timing_reaches_buildd_stats(self):
        from repro.buildd import get_service
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        PassManager(["fold"]).run(fn.typed)
        snap = get_service().stats.snapshot()
        assert snap["passes"]["fold"]["runs"] >= 1
        assert snap["passes"]["fold"]["seconds"] >= 0


class TestLevels:
    def test_resolve_default_is_full(self):
        assert resolve_level(None) == PIPELINE_FULL

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "1")
        assert resolve_level(None) == PIPELINE_CANON
        assert resolve_level(PIPELINE_FULL) == PIPELINE_CANON

    def test_resolve_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "fast")
        with pytest.raises(CompileError, match="REPRO_TERRA_PIPELINE"):
            resolve_level(None)

    def test_resolve_env_vec_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "3")
        assert resolve_level(None) == PIPELINE_VEC

    @pytest.mark.parametrize("value", ["5", "-1", "4"])
    def test_resolve_env_out_of_range(self, monkeypatch, value):
        """Out-of-range levels raise like non-integers do, instead of
        silently clamping a typo'd configuration."""
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", value)
        with pytest.raises(CompileError, match="REPRO_TERRA_PIPELINE"):
            resolve_level(None)

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "2")
        with pipeline_override(PIPELINE_NONE):
            assert resolve_level(None) == PIPELINE_NONE
        assert resolve_level(None) == PIPELINE_FULL


def node_count(tree):
    return sum(1 for _ in tast.walk(tree))


def executed_blocks(handle, monkeypatch, *args):
    """Every block the interpreter executes when ``handle`` is called
    (the called function's body first)."""
    machine = handle.machine
    seen = []
    run_block = machine.exec_block

    def spy(block, frame):
        seen.append(block)
        return run_block(block, frame)

    monkeypatch.setattr(machine, "exec_block", spy)
    handle(*args)
    monkeypatch.undo()
    return seen


class TestCaching:
    def test_level_derived_once(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        full = pipelined_body(fn.typed, PIPELINE_FULL)
        assert full is not fn.typed.body
        assert pipelined_body(fn.typed, PIPELINE_FULL) is full

    def test_levels_derived_from_one_tree(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        raw = fn.typed.body
        raw_count = node_count(raw)
        canon = pipelined_body(fn.typed, PIPELINE_CANON)
        full = pipelined_body(fn.typed, PIPELINE_FULL)
        assert canon is not full
        assert node_count(canon) < raw_count
        # deriving a level never touches the typed tree
        assert fn.typed.body is raw and node_count(raw) == raw_count

    def test_level_zero_is_identity(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        before = node_count(fn.typed.body)
        with pipeline_override(PIPELINE_NONE):
            assert pipelined_body(fn.typed) is fn.typed.body
        assert node_count(fn.typed.body) == before

    def test_compile_shares_pipelined_tree(self):
        """A level's tree is derived once and shared: compiling on the
        interpreter first and gcc second neither re-derives the FULL
        tree nor modifies the typed tree."""
        fn = typed_fn("terra f(x : int) : int return x + 2 * 3 end")
        raw = fn.typed.body
        assert fn.compile("interp")(1) == 7
        full = pipelined_body(fn.typed, PIPELINE_FULL)
        assert fn.compile("c")(1) == 7
        assert pipelined_body(fn.typed, PIPELINE_FULL) is full
        assert fn.typed.body is raw

    def test_pipelined_body_serves_lower_levels_after_full(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        raw_count = node_count(fn.typed.body)
        assert node_count(pipelined_body(fn.typed, PIPELINE_FULL)) \
            < raw_count
        assert node_count(pipelined_body(fn.typed, PIPELINE_NONE)) \
            == raw_count


class TestInterpreterRunsItsLevel:
    """The interpreter executes the tree of the level resolved when its
    unit was compiled, whatever other backends compiled before or after
    (regression: it used to execute the shared tree in whatever state
    the last in-place pipeline run left it)."""

    SRC = "terra f(x : int) : int return x + (1 + 1) end"

    def test_raw_level_after_c_compile(self, monkeypatch):
        fn = typed_fn(self.SRC)
        assert fn.compile("c")(1) == 3
        with pipeline_override(PIPELINE_NONE):
            handle = fn.compile("interp")
        body = executed_blocks(handle, monkeypatch, 1)[0]
        assert body is pipelined_body(fn.typed, PIPELINE_NONE)

    def test_raw_level_kept_across_later_c_compile(self, monkeypatch):
        fn = typed_fn(self.SRC)
        raw_count = node_count(fn.typed.body)
        with pipeline_override(PIPELINE_NONE):
            handle = fn.compile("interp")
        assert executed_blocks(handle, monkeypatch, 1)[0] \
            is pipelined_body(fn.typed, PIPELINE_NONE)
        assert fn.compile("c")(1) == 3
        body = executed_blocks(handle, monkeypatch, 1)[0]
        assert body is pipelined_body(fn.typed, PIPELINE_NONE)
        assert node_count(body) == raw_count

    def test_callees_run_at_the_units_level(self, monkeypatch):
        fns = terra("""
        terra g(x : int) : int return x * (2 + 0) end
        terra f(x : int) : int return g(x) + 1 end
        """, env={})
        f, g = fns["f"], fns["g"]
        assert g.compile("interp")(5) == 10  # g's own unit: FULL
        with pipeline_override(PIPELINE_NONE):
            handle = f.compile("interp")
        seen = executed_blocks(handle, monkeypatch, 5)
        assert seen[0] is f.typed.body
        assert g.typed.body in seen
        assert pipelined_body(g.typed, PIPELINE_FULL) not in seen

    def test_pointer_callee_from_another_unit(self, monkeypatch):
        fns = terra("""
        terra g(x : int) : int return x + (1 + 1) end
        terra getg() : {int} -> {int} return g end
        terra callp(p : {int} -> {int}, x : int) : int return p(x) end
        """, env={})
        g_ptr = fns["getg"].compile("interp")()
        with pipeline_override(PIPELINE_NONE):
            handle = fns["callp"].compile("interp")
        seen = executed_blocks(handle, monkeypatch, g_ptr, 3)
        assert fns["g"].typed.body in seen


class TestBackendsUsePipeline:
    def test_interp_backend_has_no_private_optimizer(self):
        """Acceptance: the interpreter must obtain IR exclusively through
        the pass manager — no direct optimize_function import."""
        import repro.backend.interp.machine as machine
        path = machine.__file__
        with open(path) as f:
            source = f.read()
        assert "optimize_function" not in source

    def test_backends_declare_pipeline_level(self):
        """The interpreter wants the FULL pipeline (nothing optimizes
        downstream of it); the C backend stops at CANON because gcc -O3
        subsumes LICM and pre-hoisted temps only enlarge the unit."""
        from repro.backend.base import get_backend
        assert get_backend("interp").pipeline_level == PIPELINE_FULL
        assert get_backend("c").pipeline_level == PIPELINE_CANON

    def test_emitted_c_independent_of_compile_order(self):
        """The C backend gets the CANON tree even when the interpreter
        (FULL, including LICM) compiled the function first: equivalent
        stagings emit byte-identical C in any compile order, so the
        buildd artifact cache hits deterministically."""
        src = """
        terra f(a : int, n : int) : int
          var s = 0
          for i = 0, n do s = s + a * 3 end
          return s
        end
        """
        c_first = typed_fn(src).get_c_source()
        fn = typed_fn(src)
        assert fn.compile("interp")(2, 4) == 24
        assert fn.get_c_source() == c_first

    def test_emitted_c_reflects_pipeline(self):
        fn = typed_fn("terra f(x : int) : int return x + 2 * 3 end",
                      env={})
        source = fn.get_c_source()
        assert "6" in source          # 2 * 3 folded before emission
        assert "2 * 3" not in source

    def test_get_optimized_ir(self):
        fn = typed_fn("terra f(x : int) : int return (x + 0) + 2 * 3 end")
        text = fn.get_optimized_ir()
        assert "terra f" in text
        assert "6" in text and "2 * 3" not in text
