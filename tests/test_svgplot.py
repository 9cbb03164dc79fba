import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

import catlattice.svgplot as svgplot
from catlattice.svgplot import SvgFigure


def render(fig, tmp_path, name="fig.svg"):
    path = fig.write(str(tmp_path / name))
    tree = ET.parse(path)
    return path, tree


def test_minimal_figure_is_valid_xml(tmp_path):
    fig = SvgFigure(title="demo", xlabel="x", ylabel="y")
    fig.add_series([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], label="quad")
    path, tree = render(fig, tmp_path)
    root = tree.getroot()
    assert root.tag.endswith("svg")
    text = open(path).read()
    assert "demo" in text and "quad" in text
    assert "<polyline" in text


def test_label_escaping(tmp_path, monkeypatch):
    fig = SvgFigure(title="a < b & c", xlabel="G/é & <x>", ylabel="<y>")
    fig.add_series([0, 1], [1, 2], label="size <2x2> & friends")
    fig.add_vline(0.5, label="G_c > 0 & < 1")
    path, tree = render(fig, tmp_path)
    text = open(path).read()
    assert "a &lt; b &amp; c" in text
    assert "&lt;2x2&gt;" in text
    # byte for byte what xml.sax.saxutils.escape rendered
    monkeypatch.setattr(svgplot, "_escape", escape)
    assert fig.to_svg() == text


def test_empty_series_rejected():
    fig = SvgFigure(title="t", xlabel="x", ylabel="y")
    with pytest.raises(ValueError):
        fig.add_series([], [], label="nothing")


def test_vline_and_markers(tmp_path):
    fig = SvgFigure(title="t", xlabel="x", ylabel="y")
    xs = np.linspace(0, 1, 5)
    fig.add_series(xs, xs ** 2, label="a")
    fig.add_series(xs, 1 - xs, label="b")
    fig.add_vline(0.5, label="crossing")
    path, tree = render(fig, tmp_path)
    text = open(path).read()
    assert "crossing" in text
    assert "<circle" in text and "<rect" in text
    # dashed guide line present
    assert "stroke-dasharray" in text


def test_distinct_auto_markers(tmp_path):
    fig = SvgFigure(title="t", xlabel="x", ylabel="y")
    for k in range(4):
        fig.add_series([0, 1], [k, k + 1], label="s%d" % k)
    path, tree = render(fig, tmp_path)
    text = open(path).read()
    assert "<circle" in text and "<rect" in text and "<polygon" in text


def test_single_point_series(tmp_path):
    fig = SvgFigure(title="t", xlabel="x", ylabel="y")
    fig.add_series([1.0], [2.0], label="dot")
    path, tree = render(fig, tmp_path)
    assert tree.getroot().tag.endswith("svg")


def test_degenerate_ranges_still_render(tmp_path):
    fig = SvgFigure(title="t", xlabel="x", ylabel="y")
    fig.add_series([1.0, 1.0, 1.0], [3.0, 3.0, 3.0], label="flat")
    path, tree = render(fig, tmp_path)
    assert tree.getroot().tag.endswith("svg")
