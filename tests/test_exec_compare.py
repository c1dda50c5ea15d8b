"""The unified value oracle (repro.exec.compare) and its consumers."""

import math

from repro.exec.compare import FLOAT_RTOL, values_match


class TestValuesMatch:
    def test_exact_ints(self):
        assert values_match(3, 3)
        assert not values_match(3, 4)

    def test_type_strict(self):
        # a compiled program that turns an int result into a float (or
        # vice versa) has changed observable behavior
        assert not values_match(1, 1.0)
        assert not values_match(0, False)

    def test_float_tolerance(self):
        assert values_match(1.0, 1.0 + FLOAT_RTOL / 2)
        assert not values_match(1.0, 1.0 + FLOAT_RTOL * 10)

    def test_tolerance_scales_with_magnitude(self):
        big = 1e12
        assert values_match(big, big * (1.0 + FLOAT_RTOL / 2))
        assert not values_match(big, big * (1.0 + FLOAT_RTOL * 10))
        # an absolute-1.0 slip at this magnitude is within tolerance
        assert values_match(big, big + 1.0)

    def test_near_zero_compares_absolutely(self):
        assert values_match(0.0, FLOAT_RTOL / 2)
        assert not values_match(0.0, 1e-3)

    def test_nan_equals_nan(self):
        assert values_match(float("nan"), float("nan"))
        assert not values_match(float("nan"), 0.0)

    def test_infinities(self):
        assert values_match(math.inf, math.inf)
        assert not values_match(math.inf, -math.inf)


class TestSingleDefinition:
    """Regression: the harness and the difftest oracle used to carry
    separate copies with different tolerances (1e-6 vs 1e-9), so a
    program could pass one oracle and fail the other."""

    def test_harness_uses_the_shared_helper(self):
        from repro.harness import experiment

        assert experiment.values_match is values_match

    def test_difftest_uses_the_shared_helper(self):
        from repro.difftest import runner

        assert runner._values_match is values_match

    def test_one_documented_tolerance(self):
        assert FLOAT_RTOL == 1e-9
