import xml.etree.ElementTree as ET

from aamr.svgplot import Series, render_chart

SVG = "{http://www.w3.org/2000/svg}"


def test_chart_text_is_escaped_so_the_file_parses(tmp_path):
    path = tmp_path / "chart.svg"
    series = [Series("a<b & c", [0, 1], [1, 2]), Series("d > e", [0, 1], [2, 1], "scatter")]
    render_chart(path, series, title="x & y", xlabel="<k>", ylabel="err < eps")
    texts = [node.text for node in ET.parse(path).getroot().iter(SVG + "text")]
    for label in ("a<b & c", "d > e", "x & y", "<k>", "err < eps"):
        assert texts.count(label) == 1, label
