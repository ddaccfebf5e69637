"""Per-merge parameters and the selectable parameter streams."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings

from crownmerge import (
    LabeledRaster,
    NAMED_STREAMS,
    by_id,
    compute_params,
    parameter_stream,
    validate_stream,
)
from crownmerge.params import dump_params_csv

from conftest import build_bundle, random_bundles

import oracles


@pytest.fixture(scope="module")
def quad_params(quad):
    return compute_params(quad.hierarchy, quad.isols)


def test_singletons_carry_size_sums_only(quad, quad_params):
    for node_id in quad.hierarchy.singleton_node_ids():
        p = quad_params[node_id]
        assert (p.n_pix, p.n_edge) == (4, 4)
        assert p.a_merge is None
        assert p.l_hat is None
        assert p.lw_ratio is None
        assert p.a_cumulative is None


def test_quad_first_merge_params(quad_params):
    # {1}+{4}: 4 links of length 1 spanning 2 distinct pixels.
    p = quad_params[4]
    assert p.a_merge == 2
    assert p.l_hat == 1.0
    assert p.lw_ratio == 0.5
    assert p.a_cumulative == 2
    assert (p.n_pix, p.n_edge) == (8, 8)


def test_quad_second_merge_params(quad_params):
    # {2}+{3}: 2 links of length 2 spanning 2 distinct pixels.
    p = quad_params[5]
    assert p.a_merge == 2
    assert p.l_hat == 2.0
    assert p.lw_ratio == 2.0
    assert p.a_cumulative == 2


def test_quad_root_merge_params(quad_params):
    # Cross pairs of {1,4}x{2,3} are (1,2), (1,3), (3,4): 10 links with
    # summed length 34 over 15 distinct pixels; the two earlier merge
    # areas are disjoint from them, so the cumulative union is 19.
    p = quad_params[6]
    assert p.a_merge == 15
    assert p.l_hat == pytest.approx(3.4)
    assert p.lw_ratio == pytest.approx(3.4 * 3.4 / 15)
    assert p.a_cumulative == 19
    assert (p.n_pix, p.n_edge) == (16, 16)


def test_size_sums_are_additive(quad, quad_params):
    h = quad.hierarchy
    for node_id in h.merge_node_ids():
        left, right = h.node(node_id).ancestors
        p = quad_params[node_id]
        assert p.n_pix == quad_params[left].n_pix + quad_params[right].n_pix
        assert p.n_edge == quad_params[left].n_edge + quad_params[right].n_edge


def test_merge_area_bounded_by_cumulative(quad_params):
    for node_id in (4, 5, 6):
        p = quad_params[node_id]
        assert p.a_merge <= p.a_cumulative


def test_compute_params_accepts_mapping(quad, quad_params):
    again = compute_params(quad.hierarchy, by_id(quad.isols))
    assert again == quad_params


def test_long_thin_corridor_ratios():
    # Two blobs bridged by a 4-pixel straight corridor: the mean length
    # and the area coincide, so lw_ratio is 4 and its cumulative-relative
    # variant is exactly 1.
    bundle = build_bundle(LabeledRaster.from_array([[1, 0, 0, 0, 0, 2]]))
    params = compute_params(bundle.hierarchy, bundle.isols)
    p = params[2]
    assert p.a_merge == 4
    assert p.l_hat == 4.0
    assert p.lw_ratio == 4.0
    assert p.a_cumulative == 4
    stream = parameter_stream(bundle.hierarchy, params, "lw_over_acum")
    assert stream == {2: 1.0}


def test_touching_merge_has_zero_area_and_zero_ratios():
    bundle = build_bundle(LabeledRaster.from_array([[1, 2]]))
    params = compute_params(bundle.hierarchy, bundle.isols)
    p = params[2]
    assert p.a_merge == 0
    assert p.l_hat == 0.0
    assert p.lw_ratio == 0.0
    assert p.a_cumulative == 0
    # Both ratio streams guard their zero denominators.
    assert parameter_stream(bundle.hierarchy, params, "lw_over_acum") == {2: 0.0}
    assert parameter_stream(bundle.hierarchy, params, "ratio:l_hat/a_merge") == {2: 0.0}


@settings(max_examples=60, deadline=None)
@given(random_bundles)
def test_merge_params_match_brute_force_oracle(bundle):
    h, store = bundle.hierarchy, bundle.store
    params = compute_params(h, bundle.isols)
    for node_id in h.merge_node_ids():
        a_merge, link_count, length_sum = oracles.brute_force_merge_params(
            h, store, node_id
        )
        l_hat = length_sum / link_count
        p = params[node_id]
        assert p.a_merge == a_merge == h.node(node_id).merge_distance
        assert p.l_hat == l_hat
        assert p.lw_ratio == (l_hat * l_hat / a_merge if a_merge else 0.0)
        assert p.a_cumulative == oracles.brute_force_a_cumulative(h, store, node_id)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_named_streams_on_quad(quad, quad_params):
    get = lambda name: parameter_stream(quad.hierarchy, quad_params, name)
    assert get("a_merge") == {4: 2.0, 5: 2.0, 6: 15.0}
    assert get("n_pix") == {4: 8.0, 5: 8.0, 6: 16.0}
    assert get("n_edge") == {4: 8.0, 5: 8.0, 6: 16.0}
    assert get("a_cumulative") == {4: 2.0, 5: 2.0, 6: 19.0}
    lw = get("lw_over_acum")
    assert lw[4] == pytest.approx(0.25)
    assert lw[5] == pytest.approx(1.0)
    assert lw[6] == pytest.approx((3.4 * 3.4 / 15) / 19)


def test_ratio_stream_on_quad(quad, quad_params):
    stream = parameter_stream(quad.hierarchy, quad_params, "ratio:l_hat/a_merge")
    assert stream[4] == pytest.approx(0.5)
    assert stream[5] == pytest.approx(1.0)
    assert stream[6] == pytest.approx(3.4 / 15)


def test_stream_covers_merge_nodes_only(quad, quad_params):
    stream = parameter_stream(quad.hierarchy, quad_params, "a_merge")
    assert set(stream) == {4, 5, 6}


def test_stream_validation():
    for name in NAMED_STREAMS:
        validate_stream(name)
    validate_stream("ratio:n_pix/n_edge")
    with pytest.raises(ValueError, match="unknown parameter stream"):
        validate_stream("perimeter")
    with pytest.raises(ValueError, match="bad ratio stream"):
        validate_stream("ratio:n_pix")
    with pytest.raises(ValueError, match="bad ratio stream"):
        validate_stream("ratio:n_pix/volume")


# ---------------------------------------------------------------------------
# csv
# ---------------------------------------------------------------------------


def test_params_csv_layout(quad, quad_params):
    out = io.StringIO()
    dump_params_csv(quad.hierarchy, quad_params, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == (
        "node_id,merge_iteration,a_merge,l_hat,lw_ratio,n_pix,n_edge,a_cumulative"
    )
    assert len(lines) == 1 + 7
    assert lines[1] == "0,,,,,4,4,"  # singleton row keeps merge fields blank
    assert lines[5].startswith("4,1,2,1.0,0.5,8,8,2")
