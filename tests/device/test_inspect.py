"""Tests for wear inspection."""

import numpy as np
import pytest

from repro.device.bank import NVMBank
from repro.device.inspect import BankInspector, wear_heatmap
from repro.endurance.emap import EnduranceMap


@pytest.fixture
def bank():
    emap = EnduranceMap(
        np.array([10.0, 10.0, 20.0, 20.0, 40.0, 40.0]), regions=3
    )
    return NVMBank(emap)


class TestBankInspector:
    def test_fresh_bank_all_zero_utilization(self, bank):
        inspector = BankInspector(bank)
        counts, edges = inspector.wear_histogram(bins=10)
        assert counts[0] == 6
        assert counts[1:].sum() == 0

    def test_histogram_reflects_wear(self, bank):
        bank.write(0, 5)  # 50% of line 0
        counts, _ = BankInspector(bank).wear_histogram(bins=10)
        assert counts[5] == 1

    def test_region_summaries(self, bank):
        bank.write(2, 10)  # half of region 1's 40-budget
        summaries = BankInspector(bank).region_summaries()
        assert summaries[1].utilization == pytest.approx(0.25)
        assert summaries[0].utilization == 0.0
        assert summaries[1].dead_lines == 0

    def test_dead_line_counting(self, bank):
        bank.write(0, 10)
        assert BankInspector(bank).region_summaries()[0].dead_lines == 1

    def test_stranded_endurance(self, bank):
        assert BankInspector(bank).stranded_endurance() == pytest.approx(140.0)
        bank.write(4, 40)
        assert BankInspector(bank).stranded_endurance() == pytest.approx(100.0)

    def test_region_utilization_array(self, bank):
        bank.write(0, 10)
        bank.write(1, 10)
        utilization = BankInspector(bank).region_utilization()
        assert utilization[0] == pytest.approx(1.0)
        np.testing.assert_allclose(utilization[1:], 0.0)


class TestWearHeatmap:
    def test_fresh_bank_renders_blank(self, bank):
        heatmap = wear_heatmap(bank, columns=3)
        row = heatmap.splitlines()[0]
        assert row == "   "

    def test_worn_region_renders_bright(self, bank):
        bank.write(0, 10)
        bank.write(1, 10)
        heatmap = wear_heatmap(bank, columns=3)
        assert heatmap.splitlines()[0][0] == "@"

    def test_rows_wrap_at_columns(self, bank):
        heatmap = wear_heatmap(bank, columns=2, title="wear")
        lines = heatmap.splitlines()
        assert lines[0] == "wear"
        assert len(lines[1]) == 2
        assert len(lines[2]) == 1

    def test_legend_present(self, bank):
        assert "region budget" in wear_heatmap(bank)
