import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ddoscast.chart import PLOT_Y0, PLOT_Y1, render_line_chart
from ddoscast.errors import EmptySeriesError, LengthMismatchError, NonFiniteStateError


def polylines(svg: bytes) -> list[str]:
    return re.findall(r'<polyline[^>]*points="([^"]+)"', svg.decode())


def point_ys(points: str) -> list[float]:
    return [float(pair.split(",")[1]) for pair in points.split()]


class TestStructure:
    def test_two_constant_series_two_horizontal_polylines(self):
        svg = render_line_chart([[3.0] * 5, [7.0] * 5], ["low", "high"], "flat")
        lines = polylines(svg)
        assert len(lines) == 2
        for line in lines:
            ys = point_ys(line)
            assert len(set(ys)) == 1  # horizontal

    def test_polyline_count_matches_series_count(self):
        series = [[float(i + j) for j in range(4)] for i in range(5)]
        svg = render_line_chart(series, list("abcde"), "five")
        assert len(polylines(svg)) == 5

    def test_is_wellformed_standalone_svg(self):
        svg = render_line_chart([[1.0, 2.0, 3.0]], ["s"], "title & more")
        root = ET.fromstring(svg.decode())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_legend_labels_present(self):
        svg = render_line_chart([[1.0, 2.0], [2.0, 1.0]], ["actual", "predicted"], "t").decode()
        assert ">actual</text>" in svg
        assert ">predicted</text>" in svg


class TestDeterminism:
    def test_identical_bytes_for_fixed_input(self):
        args = ([[1.0, 5.0, 2.0], [0.0, 1.0, 4.0]], ["a", "b"], "repeat")
        assert render_line_chart(*args) == render_line_chart(*args)

    def test_no_timestamps_inside(self):
        svg = render_line_chart([[1.0, 2.0]], ["x"], "t").decode()
        assert not re.search(r"20\d\d-\d\d-\d\dT", svg)


class TestCoordinates:
    def test_extrema_map_to_plot_area_bounds(self):
        values = [4.0, -1.0, 10.0, 3.0, 7.5]
        svg = render_line_chart([values], ["v"], "extrema")
        ys = point_ys(polylines(svg)[0])
        assert min(ys) == pytest.approx(PLOT_Y0, abs=1.0)  # data max at plot top
        assert max(ys) == pytest.approx(PLOT_Y1, abs=1.0)  # data min at plot bottom
        assert ys[2] == min(ys)  # the argmax point is the highest

    def test_shared_scale_across_series(self):
        svg = render_line_chart([[0.0, 1.0], [10.0, 9.0]], ["lo", "hi"], "scale")
        first, second = (point_ys(p) for p in polylines(svg))
        assert second[0] == pytest.approx(PLOT_Y0, abs=1.0)  # global max
        assert first[0] == pytest.approx(PLOT_Y1, abs=1.0)  # global min

    def test_x_labels_annotated(self):
        svg = render_line_chart(
            [[1.0, 2.0, 3.0]], ["s"], "periods", x_labels=["2020-01-01", "2020-01-02", "2020-01-03"]
        ).decode()
        assert "2020-01-01" in svg and "2020-01-03" in svg


class TestErrors:
    def test_no_series(self):
        with pytest.raises(EmptySeriesError):
            render_line_chart([], [], "none")

    def test_single_point_series(self):
        with pytest.raises(EmptySeriesError):
            render_line_chart([[1.0]], ["s"], "short")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            render_line_chart([[1.0, 2.0], [1.0, 2.0, 3.0]], ["a", "b"], "bad")

    def test_label_count_mismatch(self):
        with pytest.raises(LengthMismatchError):
            render_line_chart([[1.0, 2.0]], ["a", "b"], "bad")

    def test_x_label_count_mismatch(self):
        with pytest.raises(LengthMismatchError):
            render_line_chart([[1.0, 2.0]], ["a"], "bad", x_labels=["only-one"])

    @pytest.mark.parametrize("values", [
        [1.0, math.nan, 2.0],  # min() and max() both skip this NaN
        [math.inf, 1.0],
        [1.0, -math.inf],
        [1.7e308, -1.7e308],  # vmax - vmin overflows
        [1e306, -1e306],  # the span fits, but not once scaled to the plot's height
    ])
    def test_values_it_cannot_scale(self, values):
        with pytest.raises(NonFiniteStateError, match="finite and span"):
            render_line_chart([values, [0.0] * len(values)], ["a", "b"], "bad")

    def test_a_wide_span_it_can_scale(self):
        svg = render_line_chart([[1e305, -1e305]], ["a"], "wide").decode()
        assert not re.search(r"inf|nan", svg)


DATA = Path(__file__).parent / "data"
GOLDEN_CHARTS = {
    # 7 series wrap the 6-colour palette; period keys label the x axis
    "chart_seven_periods.svg": (
        [[(i + 1) * ((j * 7 + i) % 11) - 3.5 * i for j in range(12)] for i in range(7)],
        ["actual", "predicted", "a & b", "<c>", "e", "f", "g"],
        "daily & weekly <bps>",
        [f"2020-W{j + 1:02d}" for j in range(12)],
    ),
    # equal constant series: the value range is widened by 1 each way
    "chart_constant.svg": ([[2.5] * 6, [2.5] * 6], ["actual", "predicted"], "flat", None),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHARTS))
def test_bytes_match_the_golden_chart(name):
    assert render_line_chart(*GOLDEN_CHARTS[name]) == (DATA / name).read_bytes()
