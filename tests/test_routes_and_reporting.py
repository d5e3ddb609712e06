"""Tests for figure table rendering."""

from repro.bench.figures import FigureSeries, format_series, winner_summary


class TestCSVExport:
    """Figure table rendering."""

    def _series(self):
        return FigureSeries(
            figure="Fig5a",
            title="pages vs density",
            x_label="network",
            y_label="pages",
            x_values=["CA", "NA"],
            series={"CE": [4.5, 131.0], "LBC": [4.0, 30.0]},
        )

    def test_format_series_includes_values(self):
        text = format_series(self._series())
        assert "131" in text
        assert "CA" in text

    def test_winner_summary_counts_minima(self):
        assert winner_summary(self._series()) == {"CE": 0, "LBC": 2}
