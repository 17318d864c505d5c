import numpy as np
import pytest
from numpy.testing import assert_allclose

import hypervol as hv
from hypervol.pointcloud import MODELS


@pytest.fixture
def cloud():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((12, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.tanh(rng.uniform(0, 2, 12))[:, None] * g


@pytest.mark.parametrize("model", MODELS)
def test_roundtrip(tmp_path, cloud, model):
    path = tmp_path / f"{model}.csv"
    hv.save_points(path, cloud, model=model)
    back = hv.load_points(path)
    assert_allclose(back, cloud, atol=1e-14)


def test_klein_roundtrip_is_byte_stable(tmp_path, cloud):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    hv.save_points(a, cloud, model="klein")
    hv.save_points(b, hv.load_points(a), model="klein")
    assert a.read_bytes() == b.read_bytes()


def test_poincare_conversion_closed_form(tmp_path):
    # a Poincare point at radius 0.5 maps to Klein radius 2*0.5/1.25 = 0.8
    path = tmp_path / "p.csv"
    path.write_text("dim=2,model=poincare\n0.5,0.0\n")
    pts = hv.load_points(path)
    assert_allclose(pts, [[0.8, 0.0]], atol=1e-15)


@pytest.mark.parametrize("row", ["1.5,0.0", "1.0,0.0", "nan,0.0"])
def test_poincare_rows_outside_the_ball_rejected(tmp_path, row):
    # (1.5, 0) and its inversion (2/3, 0) share the Klein point (12/13, 0)
    path = tmp_path / "p.csv"
    path.write_text(f"dim=2,model=poincare\n0.5,0.0\n{row}\n")
    with pytest.raises(ValueError):
        hv.load_points(path)


def test_hyperboloid_conversion_closed_form(tmp_path):
    # spatial part s = sinh(w) * u maps to tanh(w) * u
    path = tmp_path / "h.csv"
    s = float(np.sinh(1.7))
    path.write_text(f"dim=2,model=hyperboloid\n{s!r},0.0\n")
    pts = hv.load_points(path)
    assert_allclose(pts, [[np.tanh(1.7), 0.0]], atol=1e-15)


def test_distance_preserved_across_models(tmp_path, cloud):
    from hypervol.klein import KleinPoint

    d0 = hv.dist(KleinPoint(cloud[0]), KleinPoint(cloud[1]))
    for model in MODELS:
        path = tmp_path / f"{model}.csv"
        hv.save_points(path, cloud, model=model)
        back = hv.load_points(path)
        d1 = hv.dist(KleinPoint(back[0]), KleinPoint(back[1]))
        assert abs(d0 - d1) < 1e-12


def test_header_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("dim=2,model=minkowski\n0.0,0.0\n")
    with pytest.raises(ValueError):
        hv.load_points(bad)
    bad.write_text("model=klein\n0.0,0.0\n")
    with pytest.raises(ValueError):
        hv.load_points(bad)
    bad.write_text("dim=2,model=klein\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        hv.load_points(bad)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("dim=2,model=klein\n0.1,0.2\n\n0.3,0.4\n")
    pts = hv.load_points(path)
    assert pts.shape == (2, 2)
