import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltplan.errors import (
    CyclicNetlist,
    DuplicateName,
    EmptyNet,
    NotConvex,
    NotMonotone,
    ResultNotConvex,
    UnknownBlock,
    ValidationError,
    WrongArity,
)
from voltplan.model import (
    DPCurve,
    ModuleBlock,
    build_netlist,
    decompose_multipin,
    derive_shifter_spec,
    modify_dp_curve,
    validate_dp_curve,
)


def curve(*pts):
    return DPCurve(points=tuple(pts))


class TestValidateCurve:
    def test_valid_three_level(self):
        c = curve((1, 2, 90), (2, 4, 50), (3, 8, 30))
        assert validate_dp_curve(c, 3) is c  # slopes 20 then 5

    def test_power_increase_rejected(self):
        with pytest.raises(NotMonotone):
            validate_dp_curve(curve((1, 2, 50), (2, 4, 90)), 2)

    def test_slopes_decreasing_is_valid(self):
        # slopes 20 then 10: decreasing, fine
        validate_dp_curve(curve((1, 2, 90), (2, 4, 50), (3, 6, 30)), 3)

    def test_slopes_increasing_rejected(self):
        # slopes 5 then 25
        with pytest.raises(NotConvex):
            validate_dp_curve(curve((1, 2, 90), (2, 4, 80), (3, 6, 30)), 3)

    def test_equal_slopes_rejected(self):
        with pytest.raises(NotConvex):
            validate_dp_curve(curve((1, 1, 20), (2, 2, 10), (3, 3, 0)), 3)

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            validate_dp_curve(curve((1, 2, 90), (2, 4, 50)), 3)

    def test_delay_must_increase(self):
        with pytest.raises(NotMonotone):
            validate_dp_curve(curve((1, 4, 90), (2, 4, 50)), 2)

    def test_negative_values_rejected(self):
        with pytest.raises(NotMonotone):
            validate_dp_curve(curve((1, 2, 90), (2, 4, -1)), 2)

    def test_single_level_ok(self):
        validate_dp_curve(curve((1, 3, 7)), 1)


class TestModifyCurve:
    def test_zero_overhead_identity(self):
        c = curve((1, 2, 90), (2, 4, 50))
        spec = derive_shifter_spec(4, Fraction(1), [(1, 0, 0), (2, 0, 0)])
        assert modify_dp_curve(c, spec).points == c.points

    def test_pointwise_sum(self):
        c = curve((1, 2, 90), (2, 4, 50), (3, 8, 30))
        spec = derive_shifter_spec(4, Fraction(1), [(1, 1, 8), (2, 2, 4), (3, 4, 2)])
        got = modify_dp_curve(c, spec)
        assert got.points == ((1, 3, 98), (2, 6, 54), (3, 12, 32))

    def test_broken_sum_rejected(self):
        c = curve((1, 2, 90), (2, 4, 50))
        spec = derive_shifter_spec(4, Fraction(1), [(1, 0, 0), (2, 10, 100)])
        with pytest.raises(ResultNotConvex):
            modify_dp_curve(c, spec)  # 90 then 150: powers rise

    def test_arity_mismatch(self):
        c = curve((1, 2, 90), (2, 4, 50))
        spec = derive_shifter_spec(4, Fraction(1), [(1, 0, 0)])
        with pytest.raises(WrongArity):
            modify_dp_curve(c, spec)

    def test_sum_of_matching_delay_curves_validates(self):
        # convex + convex over the same delay points stays convex: the sum of
        # two valid curves sharing a delay ladder always validates
        rng = random.Random(7)
        for _ in range(200):
            k = rng.choice([2, 3, 4])
            delays = [rng.randint(1, 10)]
            for _ in range(k - 1):
                delays.append(delays[-1] + rng.randint(1, 5))

            def powers_for(slopes):
                p = [rng.randint(0, 9)]
                for q in range(k - 1, 0, -1):
                    p.insert(0, p[0] + slopes[q - 1] * (delays[q] - delays[q - 1]))
                return p

            sa = sorted(rng.sample(range(1, 50), k - 1), reverse=True)
            sb = sorted(rng.sample(range(1, 50), k - 1), reverse=True)
            pa, pb = powers_for(sa), powers_for(sb)
            a = DPCurve(points=tuple((q + 1, delays[q], pa[q]) for q in range(k)))
            b = DPCurve(points=tuple((q + 1, delays[q], pb[q]) for q in range(k)))
            validate_dp_curve(a, k)
            validate_dp_curve(b, k)
            merged = DPCurve(
                points=tuple(
                    (q + 1, delays[q], pa[q] + pb[q]) for q in range(k)
                )
            )
            validate_dp_curve(merged, k)


class TestShifterSpec:
    def test_dimension_derivation_square(self):
        spec = derive_shifter_spec(9, Fraction(1), [(1, 0, 0)])
        assert (spec.width, spec.height, spec.area) == (3, 3, 9)

    def test_dimension_derivation_wide(self):
        spec = derive_shifter_spec(10, Fraction(5, 2), [(1, 0, 0)])
        assert (spec.width, spec.height) == (5, 2)
        assert spec.area == 10

    def test_area_snaps_to_rectangle(self):
        spec = derive_shifter_spec(10, Fraction(1), [(1, 0, 0)])
        assert spec.area == spec.width * spec.height

    def test_negative_overhead_rejected(self):
        with pytest.raises(NotMonotone):
            derive_shifter_spec(4, Fraction(1), [(1, -1, 0)])


class TestDecompose:
    def test_two_pin_passthrough(self):
        assert decompose_multipin([("a", ["b"])]) == [("a", "b")]

    def test_fanout_expansion(self):
        assert decompose_multipin([("a", ["b", "c", "d"])]) == [
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
        ]

    def test_empty_net(self):
        with pytest.raises(EmptyNet):
            decompose_multipin([("a", [])])

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=3),
                      st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=5)),
            max_size=10,
        )
    )
    @settings(max_examples=50)
    def test_output_length_is_total_sinks(self, raw):
        out = decompose_multipin(raw)
        assert len(out) == sum(len(sinks) for _, sinks in raw)


class TestNetlist:
    def _mods(self, names, k=2):
        c = curve((1, 1, 10), (2, 3, 4))
        return [ModuleBlock(name=n, width=2, height=2, curve=c) for n in names]

    def test_build_ok(self):
        nl = build_netlist(self._mods("abc"), [("a", "b"), ("b", "c")], 10, 2)
        assert nl.m == 3
        assert nl.nets == ((0, 1), (1, 2))

    def test_cycle_rejected(self):
        with pytest.raises(CyclicNetlist):
            build_netlist(self._mods("ab"), [("a", "b"), ("b", "a")], 10, 2)

    def test_unknown_endpoint_rejected(self):
        for pair in [("a", "z"), ("z", "a")]:
            with pytest.raises(UnknownBlock, match="unknown module 'z'"):
                build_netlist(self._mods("ab"), [pair], 10, 2)

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateName, match="duplicate module name 'a'"):
            build_netlist(self._mods("aba"), [], 10, 2)

    @pytest.mark.parametrize("width, height", [(0, 2), (2, 0), (-1, 2)])
    def test_nonpositive_dimensions_rejected(self, width, height):
        mods = self._mods("ab")
        mods[1] = ModuleBlock(name="b", width=width, height=height, curve=mods[1].curve)
        with pytest.raises(ValidationError, match="positive dimensions") as exc:
            build_netlist(mods, [("a", "b")], 10, 2)
        assert type(exc.value) is ValidationError

    def test_negative_t_cycle_rejected(self):
        with pytest.raises(ValidationError, match="t_cycle must be nonnegative") as exc:
            build_netlist(self._mods("ab"), [("a", "b")], -1, 2)
        assert type(exc.value) is ValidationError
