"""Construction-time contract of repro.schedule: directive validation,
schedule-internal conflict detection, and the inspectable/hashable
object surface (key/eq/hash/split_size/partition)."""

import pytest

from repro.errors import ScheduleError
from repro.schedule import (Block, Pack, Parallel, Schedule, Tile, Unroll,
                            Vectorize, axes_of, fuzz_schedule)


class TestDirectiveValidation:
    @pytest.mark.parametrize("bad", [0, 1, -4, 2.5, "8", None])
    def test_block_size(self, bad):
        with pytest.raises(ScheduleError):
            Block("i", bad)

    @pytest.mark.parametrize("bad", [0, 1, -2, 4.0, "2"])
    def test_unroll_factor(self, bad):
        with pytest.raises(ScheduleError):
            Unroll("i", bad)

    @pytest.mark.parametrize("bad", [1, 3, 6, -8, 2.0])
    def test_vectorize_width_must_be_zero_or_pow2(self, bad):
        with pytest.raises(ScheduleError):
            Vectorize("i", bad)

    @pytest.mark.parametrize("ok", [0, 2, 4, 8, 16])
    def test_vectorize_width_accepts(self, ok):
        assert Vectorize("i", ok).width == ok

    @pytest.mark.parametrize("bad_axis", ["", 3, None, b"i"])
    def test_axis_must_be_name(self, bad_axis):
        with pytest.raises(ScheduleError):
            Block(bad_axis, 8)

    def test_tile_needs_two_axes(self):
        with pytest.raises(ScheduleError):
            Tile(("i",), (8,))

    def test_tile_length_mismatch(self):
        with pytest.raises(ScheduleError):
            Tile(("i", "j"), (8,))

    def test_tile_duplicate_axes(self):
        with pytest.raises(ScheduleError):
            Tile(("i", "i"), (8, 8))

    def test_tile_bad_size(self):
        with pytest.raises(ScheduleError):
            Tile(("i", "j"), (8, 1))

    def test_tile_coerces_sequences(self):
        t = Tile(["i", "j"], [16, 8])
        assert t.axes == ("i", "j") and t.sizes == (16, 8)

    def test_pack_layouts(self):
        assert Pack("b").layout == "panel"
        assert Pack("b", "tile").layout == "tile"
        with pytest.raises(ScheduleError):
            Pack("b", "diagonal")
        with pytest.raises(ScheduleError):
            Pack("")

    def test_parallel_nthreads(self):
        assert Parallel("i").nthreads == 0
        with pytest.raises(ScheduleError):
            Parallel("i", -1)

    def test_errors_name_the_directive(self):
        with pytest.raises(ScheduleError, match="Block"):
            Block("i", 1)
        with pytest.raises(ScheduleError, match="Unroll"):
            Unroll("j", 0)
        with pytest.raises(ScheduleError, match="Vectorize"):
            Vectorize("k", 3)

    def test_axes_of(self):
        assert axes_of(Block("i", 8)) == ("i",)
        assert axes_of(Tile(("i", "j"), (4, 4))) == ("i", "j")
        assert axes_of(Pack("b")) == ()


class TestScheduleConflicts:
    def test_two_blocks_one_axis(self):
        with pytest.raises(ScheduleError, match="already split"):
            Schedule([Block("i", 8), Block("i", 16)])

    def test_block_vs_tile_one_axis(self):
        with pytest.raises(ScheduleError, match="already split"):
            Schedule([Tile(("i", "j"), (8, 8)), Block("j", 4)])

    def test_vectorize_plus_unroll_same_axis(self):
        with pytest.raises(ScheduleError, match="Vectorize and Unroll"):
            Schedule([Vectorize("i", 8), Unroll("i", 2)])

    def test_vectorize_plus_unroll_different_axes_ok(self):
        s = Schedule([Vectorize("j", 8), Unroll("i", 2)])
        assert len(s) == 2

    def test_two_parallels(self):
        with pytest.raises(ScheduleError, match="one Parallel"):
            Schedule([Parallel("i"), Parallel("j")])

    @pytest.mark.parametrize("other", [Vectorize("i", 8), Unroll("i", 2)])
    def test_parallel_axis_conflicts(self, other):
        with pytest.raises(ScheduleError, match="thread-dispatch"):
            Schedule([Parallel("i"), other])

    def test_duplicate_pack_operand(self):
        with pytest.raises(ScheduleError, match="already packed"):
            Schedule([Pack("b", "panel"), Pack("b", "tile")])

    def test_duplicate_directive(self):
        with pytest.raises(ScheduleError, match="duplicate"):
            Schedule([Unroll("i", 2), Unroll("i", 4)])

    def test_non_directive_rejected(self):
        with pytest.raises(ScheduleError, match="directives"):
            Schedule(["Block(i,8)"])

    def test_parallel_plus_block_same_axis_ok(self):
        # Block sets the dispatch grain; that combination is the point
        s = Schedule([Block("i", 64), Parallel("i")])
        assert s.split_size("i") == 64 and s.parallel is not None


class TestScheduleObject:
    def test_hashable_and_eq(self):
        a = Schedule([Block("i", 8), Vectorize("j", 4)])
        b = Schedule([Block("i", 8), Vectorize("j", 4)])
        c = Schedule([Block("i", 8)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != Schedule([Block("i", 8), Vectorize("j", 4)],
                             strict=False)
        assert len({a, b, c}) == 2

    def test_immutable(self):
        s = Schedule([Block("i", 8)])
        with pytest.raises(AttributeError):
            s.directives = ()
        with pytest.raises(Exception):
            Block("i", 8).size = 4

    def test_key(self):
        assert Schedule([]).key() == "naive"
        key = Schedule([Block("i", 8), Unroll("j", 2)]).key()
        assert "Block('i', 8)" in key and "Unroll('j', 2)" in key
        assert key.count("|") == 1

    def test_split_size(self):
        s = Schedule([Block("i", 32), Tile(("j", "k"), (8, 4))])
        assert s.split_size("i") == 32
        assert s.split_size("j") == 8
        assert s.split_size("k") == 4
        assert s.split_size("z") == 1

    def test_partition_and_views(self):
        s = Schedule([Pack("b"), Block("i", 8), Parallel("i")],
                     strict=False)
        packs, rest = s.partition(lambda d: isinstance(d, Pack))
        assert [type(d).__name__ for d in packs] == ["Pack"]
        assert [type(d).__name__ for d in rest] == ["Block", "Parallel"]
        assert rest.strict is False
        assert s.packs == [Pack("b")]
        assert s.parallel == Parallel("i")
        assert s.of_kind(Block) == [Block("i", 8)]

    def test_bool_and_iter(self):
        assert not Schedule([])
        s = Schedule([Block("i", 8)])
        assert s and list(s) == [Block("i", 8)]

    def test_fuzz_schedule_is_lenient(self):
        s = fuzz_schedule()
        assert s.strict is False
        assert all(isinstance(d, Block) for d in s)
