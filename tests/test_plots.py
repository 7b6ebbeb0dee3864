import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hyperkkl.errors import ContractViolation
from hyperkkl.plots import plot_name, svg_timeseries

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_sample(path, n_x=2, m=1, n=50):
    rng = np.random.default_rng(0)
    t = np.arange(n) * 0.05
    truth = rng.normal(size=(n, n_x))
    est = truth + 0.1
    u = rng.normal(size=(n, m))
    svg_timeseries(path, t, truth, est, u, title="sample")
    return t, truth, est, u


def test_wellformed_with_one_polyline_per_coordinate_per_series(tmp_path):
    path = tmp_path / "fig.svg"
    write_sample(path, n_x=3, m=1)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f".//{SVG_NS}polyline")
    # 3 coordinates x (truth + estimate) + 1 input trace
    assert len(polylines) == 3 * 2 + 1
    for p in polylines:
        pts = p.attrib["points"].split()
        assert len(pts) == 50


def test_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_sample(p1)
    write_sample(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_no_inputs_panel_when_absent(tmp_path):
    path = tmp_path / "fig.svg"
    t = np.arange(10) * 0.1
    x = np.zeros((10, 2))
    svg_timeseries(path, t, x, x)
    root = ET.parse(path).getroot()
    assert len(root.findall(f".//{SVG_NS}polyline")) == 4


def test_shape_contract(tmp_path):
    with pytest.raises(ContractViolation):
        svg_timeseries(tmp_path / "x.svg", np.arange(5), np.zeros((5, 2)),
                       np.zeros((4, 2)))


def test_a_single_coordinate_is_a_column(tmp_path):
    # truth, estimate and inputs are (N+1, width); bare vectors are refused
    t, col = np.arange(5), np.zeros((5, 1))
    for args in ((np.zeros(5), np.zeros(5)), (col, col, np.zeros(5))):
        with pytest.raises(ContractViolation, match=r"\(N\+1, "):
            svg_timeseries(tmp_path / "x.svg", t, *args)


def test_plot_name():
    assert plot_name("duffing", "dynamic", "square") == "duffing_dynamic_square.svg"
