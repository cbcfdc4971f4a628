"""Unit tests for workload parameters and Table 7 ranges."""

import math

import pytest

from repro.core import BASE, PARAMETER_RANGES, WorkloadParams
from repro.core.params import ParameterRange
from repro.experiments.surface import GridSpec, sweep_grid

#: Illegal ``(field, value)`` pairs, rejected alike as scalars and as
#: swept grid axes.
INVALID = [
    ("ls", -0.1),
    ("ls", 1.01),
    ("ls", math.nan),
    ("msdat", 2.0),
    ("shd", -1.0),
    ("oclean", 1.5),
    ("apl", 0.5),
    ("apl", math.nan),
    ("nshd", -1.0),
    ("nshd", math.nan),
]


class TestWorkloadParams:
    def test_middle_matches_table7(self):
        params = WorkloadParams.middle()
        assert params.ls == 0.3
        assert params.msdat == 0.014
        assert params.mains == 0.0022
        assert params.md == 0.20
        assert params.shd == 0.25
        assert params.wr == 0.25
        assert params.mdshd == 0.25
        assert params.apl == pytest.approx(1.0 / 0.13)
        assert params.oclean == 0.84
        assert params.opres == 0.79
        assert params.nshd == 1.0

    def test_low_and_high_levels(self):
        low = WorkloadParams.low()
        high = WorkloadParams.high()
        assert low.shd == 0.08 and high.shd == 0.42
        # Table 7 stores 1/apl, so apl's "high" level is 1 reference.
        assert low.apl == pytest.approx(25.0)
        assert high.apl == pytest.approx(1.0)

    def test_overrides(self):
        params = WorkloadParams.middle(shd=0.4, apl=2.0)
        assert params.shd == 0.4
        assert params.apl == 2.0
        assert params.ls == 0.3

    def test_replace_revalidates(self):
        params = WorkloadParams.middle()
        with pytest.raises(ValueError):
            params.replace(shd=1.5)

    def test_replace_returns_new_object(self):
        params = WorkloadParams.middle()
        other = params.replace(ls=0.4)
        assert params.ls == 0.3
        assert other.ls == 0.4

    @pytest.mark.parametrize("field,value", INVALID)
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadParams.middle(**{field: value})

    @pytest.mark.parametrize("field,value", INVALID)
    def test_grid_validation_matches_scalar(self, field, value):
        # A swept axis obeys the scalar rule, message for message.
        with pytest.raises(ValueError) as scalar:
            WorkloadParams.middle(**{field: value})
        base = WorkloadParams.middle()
        spec = GridSpec.of(base, **{field: [getattr(base, field), value]})
        with pytest.raises(ValueError) as grid:
            sweep_grid(BASE, spec, processors=(4,))
        assert str(grid.value) == str(scalar.value)

    def test_as_dict_roundtrip(self):
        params = WorkloadParams.middle()
        assert WorkloadParams(**params.as_dict()) == params

    def test_field_names_cover_table2(self):
        names = WorkloadParams.field_names()
        assert names == (
            "ls", "msdat", "mains", "md", "shd", "wr",
            "apl", "mdshd", "oclean", "opres", "nshd",
        )

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            WorkloadParams.at_level("medium")

    def test_frozen(self):
        params = WorkloadParams.middle()
        with pytest.raises(AttributeError):
            params.ls = 0.5  # type: ignore[misc]


class TestParameterRanges:
    def test_every_table2_parameter_has_a_range(self):
        assert set(PARAMETER_RANGES) == set(WorkloadParams.field_names())

    def test_ranges_are_ordered_except_apl(self):
        for name, parameter_range in PARAMETER_RANGES.items():
            if name == "apl":
                assert parameter_range.low > parameter_range.high
                assert parameter_range.degrading_direction == -1
            else:
                assert parameter_range.low <= parameter_range.middle
                assert parameter_range.middle <= parameter_range.high

    def test_at_levels(self):
        shd = PARAMETER_RANGES["shd"]
        assert shd.at("low") == 0.08
        assert shd.at("middle") == 0.25
        assert shd.at("high") == 0.42
        with pytest.raises(ValueError):
            shd.at("extreme")

    def test_iteration(self):
        assert tuple(PARAMETER_RANGES["wr"]) == (0.10, 0.25, 0.40)

    def test_mapping_is_readonly(self):
        with pytest.raises(TypeError):
            PARAMETER_RANGES["shd"] = ParameterRange(0, 0, 0)  # type: ignore[index]

    def test_inverse_apl_row_matches_table7(self):
        apl = PARAMETER_RANGES["apl"]
        assert 1.0 / apl.low == pytest.approx(0.04)
        assert 1.0 / apl.middle == pytest.approx(0.13)
        assert 1.0 / apl.high == pytest.approx(1.0)
