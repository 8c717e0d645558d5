"""Block partitioning, random augmentation layouts, matrix file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpd import (
    ConfigurationError,
    FieldMismatchError,
    PrimeField,
    augment,
    augmentation_layout,
    partition,
    read_matrix,
    write_matrix,
)

from conftest import make_pair, small_matmul


def test_partition_blocks_are_views(field257):
    rng = np.random.default_rng(0)
    arr = field257.random_array((6, 4), rng)
    bm = partition(arr, (3, 2), field257)
    assert bm.block_shape == (2, 2)
    for i in range(3):
        for j in range(2):
            assert np.array_equal(bm.block(i, j), arr[2 * i : 2 * i + 2, 2 * j : 2 * j + 2])


def test_partition_rejects_bad_grid(field257):
    with pytest.raises(ConfigurationError):
        partition(np.zeros((6, 4)), (4, 2), field257)
    with pytest.raises(ConfigurationError):
        partition(np.zeros((6, 4)), (3, 0), field257)
    with pytest.raises(ConfigurationError):
        partition(np.zeros(6), (2, 3), field257)


def test_block_matrix_reduces_and_freezes(field5):
    bm = partition(np.array([[7, -1], [10, 4]]), (1, 1), field5)
    assert np.array_equal(bm.data, [[2, 4], [0, 4]])
    with pytest.raises(ValueError):
        bm.data[0, 0] = 3


# ---------------------------------------------------------------------------
# augmentation layouts
# ---------------------------------------------------------------------------


def test_layout_gpd_appends_nothing():
    lay = augmentation_layout(3, 2, 2, 0)
    assert lay.case == "gpd"
    assert lay.a_live.shape == (3, 2) and lay.b_live.shape == (2, 2)
    assert lay.a_live.all() and lay.b_live.all()


def test_layout_tall_partial_band_zeroes_surplus():
    # delta=1 appended band of 2 blocks per side, only 1 may stay random
    lay = augmentation_layout(3, 2, 2, 1)
    assert (lay.case, lay.delta, lay.a_live.shape, lay.b_live.shape) == (
        "tall", 1, (4, 2), (2, 3)
    )
    assert lay.a_live[3:].tolist() == [[True, False]]  # rightmost zeroed
    assert lay.b_live[:, 2:].tolist() == [[False], [True]]  # topmost zeroed
    assert np.argwhere(~lay.a_live).tolist() == [[3, 1]]
    assert np.argwhere(~lay.b_live).tolist() == [[0, 2]]


def test_layout_tall_full_band_keeps_everything():
    lay = augmentation_layout(3, 2, 2, 2)
    assert lay.a_live.shape == (4, 2) and lay.b_live.shape == (2, 3)
    assert lay.a_live.all() and lay.b_live.all()


def test_layout_tall_two_band_surplus_sits_in_last_band():
    lay = augmentation_layout(3, 2, 2, 3)
    assert lay.delta == 2
    assert lay.a_live[3:].tolist() == [[True, True], [True, False]]
    assert lay.b_live[:, 2:].tolist() == [[True, False], [True, True]]


def test_layout_wide_single_output_row_keeps_corner():
    lay = augmentation_layout(2, 3, 1, 2)
    assert (lay.case, lay.width, lay.a_live.shape[1]) == ("wide", 2, 5)
    assert lay.a_live[:, 3:].tolist() == [[False, False], [True, True]]
    assert lay.b_live[3:].tolist() == [[True], [True]]


def test_layout_wide_padded_bands_face_zeros():
    lay = augmentation_layout(2, 2, 2, 2)
    assert lay.width == 2
    assert lay.a_live[:, 2:].tolist() == [[True, False], [True, False]]
    assert lay.b_live[2:].tolist() == [[False, False], [True, True]]


def test_layout_wide_padded_surplus_masking():
    lay = augmentation_layout(3, 3, 3, 2)
    assert lay.a_live[:, 3].tolist() == [True, True, False]
    assert not lay.a_live[:, 4].any()
    assert not lay.b_live[3].any()
    assert lay.b_live[4].tolist() == [True, True, False]


def test_layout_rejects_negative_collusion():
    with pytest.raises(ConfigurationError):
        augmentation_layout(2, 2, 2, -1)


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------


def test_augment_no_collusion_is_identity(field257):
    rng = np.random.default_rng(3)
    a_arr, b_arr, pair = make_pair(2, 3, 2, 0, field257, rng, bt=2, bs=1, bd=2)
    assert np.array_equal(pair.a_star.data, a_arr)
    assert np.array_equal(pair.b_star.data, b_arr)
    assert np.array_equal(pair.original_a, a_arr)
    assert np.array_equal(pair.original_b, b_arr)


def test_augment_tall_shapes_and_data_preserved(field257):
    rng = np.random.default_rng(4)
    a_arr, b_arr, pair = make_pair(3, 2, 2, 1, field257, rng, bt=2, bs=2, bd=1)
    assert pair.layout.case == "tall"
    assert pair.a_star.grid == (4, 2) and pair.b_star.grid == (2, 3)
    assert np.array_equal(pair.original_a, a_arr)
    assert np.array_equal(pair.original_b, b_arr)
    # zeroed surplus blocks are real zeros in the stacked data
    assert not pair.a_star.block(3, 1).any()
    assert not pair.b_star.block(0, 2).any()
    assert pair.a_star.block(3, 0).any() and pair.b_star.block(1, 2).any()


def test_augment_tall_product_embeds_true_product(field257):
    rng = np.random.default_rng(5)
    a_arr, b_arr, pair = make_pair(4, 1, 2, 3, field257, rng, bt=1, bs=3, bd=2)
    full = small_matmul(pair.a_star.data, pair.b_star.data, 257)
    want = small_matmul(a_arr, b_arr, 257)
    rows, cols = want.shape
    assert np.array_equal(full[:rows, :cols], want)


def test_augment_wide_corner_shapes(field257):
    rng = np.random.default_rng(6)
    a_arr, b_arr, pair = make_pair(2, 3, 1, 2, field257, rng, bt=1, bs=2, bd=3)
    assert pair.layout.case == "wide"
    assert pair.a_star.grid == (2, 5) and pair.b_star.grid == (5, 1)
    assert np.array_equal(pair.original_a, a_arr)
    assert np.array_equal(pair.original_b, b_arr)
    # appended A columns are zero except in the last block row
    assert not pair.a_star.block(0, 3).any() and not pair.a_star.block(0, 4).any()
    assert pair.a_star.block(1, 3).any()


def test_augment_wide_padded_product_is_exact(field257):
    # facing zeros cancel every random contribution in the full product
    rng = np.random.default_rng(7)
    a_arr, b_arr, pair = make_pair(2, 2, 2, 2, field257, rng, bt=2, bs=2, bd=2)
    full = small_matmul(pair.a_star.data, pair.b_star.data, 257)
    assert np.array_equal(full, small_matmul(a_arr, b_arr, 257))


def test_augment_case_dispatch(field257):
    rng = np.random.default_rng(8)
    a = partition(field257.random_array((4, 2), rng), (4, 2), field257)
    b = partition(field257.random_array((2, 2), rng), (2, 2), field257)
    wide_a = partition(field257.random_array((2, 4), rng), (2, 4), field257)
    wide_b = partition(field257.random_array((4, 2), rng), (4, 2), field257)
    assert augment(a, b, 1, rng).layout.case == "tall"
    assert augment(wide_a, wide_b, 1, rng).layout.case == "wide"


def test_augment_rejects_field_mismatch(field257, field5):
    rng = np.random.default_rng(9)
    a = partition(np.zeros((2, 2)), (2, 2), field257)
    b = partition(np.zeros((2, 2)), (2, 2), field5)
    with pytest.raises(FieldMismatchError):
        augment(a, b, 1, rng)


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 4), st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_augment_live_random_count_is_exactly_pc(t, s, d, p_c, seed):
    field = PrimeField(257)
    rng = np.random.default_rng(seed)
    a_arr, b_arr, pair = make_pair(t, s, d, p_c, field, rng)
    lay = pair.layout
    assert (lay.case == "gpd") == (p_c == 0)
    # the data corner is live, plus exactly p_c random blocks per side
    assert lay.a_live[:t, :s].all() and lay.b_live[:s, :d].all()
    assert lay.a_live.sum() == t * s + p_c and lay.b_live.sum() == s * d + p_c
    assert pair.a_star.grid == lay.a_live.shape and pair.b_star.grid == lay.b_live.shape
    assert np.array_equal(pair.original_a, a_arr)
    assert np.array_equal(pair.original_b, b_arr)


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------


def test_matrix_file_round_trip(tmp_path, field257):
    rng = np.random.default_rng(10)
    arr = field257.random_array((5, 3), rng)
    path = tmp_path / "m.mat"
    write_matrix(path, arr, 257)
    back, modulus = read_matrix(path)
    assert modulus == 257
    assert np.array_equal(back, arr)
    header = path.read_text().splitlines()[0]
    assert header == "5 3 257"


P31 = 2**31 - 1


@pytest.mark.parametrize(
    "matrix,modulus,expected",
    [
        ([[0, P31 - 1, 1], [P31 - 2, 0, 65536]], P31,
         b"2 3 2147483647\n0 2147483646 1\n2147483645 0 65536\n"),
        ([[0, 2], [1, 0], [2, 2]], 3, b"3 2 3\n0 2\n1 0\n2 2\n"),
    ],
)
def test_matrix_file_bytes_are_pinned(tmp_path, matrix, modulus, expected):
    path = tmp_path / "m.mat"
    write_matrix(path, np.array(matrix, dtype=np.int64), modulus)
    assert path.read_bytes() == expected


def test_matrix_file_rejects_truncation(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2 257\n1 2\n")
    with pytest.raises(ConfigurationError):
        read_matrix(path)


def test_matrix_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2 257\n1 2\n3 x\n")
    with pytest.raises(ConfigurationError):
        read_matrix(path)


def test_matrix_file_rejects_negative_dimensions(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("-1 -2 7\n1 2\n")
    with pytest.raises(ConfigurationError, match="negative dimension") as info:
        read_matrix(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("entry", ["-1", "9", "7", str(2**70)])
def test_matrix_file_rejects_entries_outside_field(tmp_path, entry):
    path = tmp_path / "bad.mat"
    path.write_text(f"2 2 7\n1 2\n3 {entry}\n")
    with pytest.raises(ConfigurationError, match="outside") as info:
        read_matrix(path)
    assert str(path) in str(info.value)
