"""Block partitioning, random augmentation layouts, matrix file round-trips."""

import copy
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpd import (
    ConfigurationError,
    FieldMismatchError,
    PrimeField,
    augment,
    code_geometry,
    partition,
    read_matrix,
    write_matrix,
)
from sgpd import blocks
from sgpd.blocks import read_text_file
from sgpd.codec import CodedShare, write_share

from conftest import block, make_pair, reference_read_text_file, small_matmul


def test_partition_blocks_are_views(field257):
    rng = np.random.default_rng(0)
    arr = field257.random_array((6, 4), rng)
    bm = partition(arr, (3, 2), field257)
    assert bm.block_shape == (2, 2)
    for i in range(3):
        for j in range(2):
            assert np.array_equal(block(bm, i, j), arr[2 * i : 2 * i + 2, 2 * j : 2 * j + 2])


def test_partition_rejects_bad_grid(field257):
    with pytest.raises(ConfigurationError):
        partition(np.zeros((6, 4), dtype=np.int64), (4, 2), field257)
    with pytest.raises(ConfigurationError):
        partition(np.zeros((6, 4), dtype=np.int64), (3, 0), field257)
    with pytest.raises(ConfigurationError):
        partition(np.zeros(6, dtype=np.int64), (2, 3), field257)


def test_block_matrix_reduces_and_freezes(field5):
    bm = partition(np.array([[7, -1], [10, 4]]), (1, 1), field5)
    assert np.array_equal(bm.data, [[2, 4], [0, 4]])
    with pytest.raises(ValueError):
        bm.data[0, 0] = 3


# ---------------------------------------------------------------------------
# augmentation layouts
# ---------------------------------------------------------------------------


def test_layout_gpd_appends_nothing():
    lay = code_geometry(3, 2, 2, 0).layout
    assert lay.case == "gpd"
    assert lay.a_live.shape == (3, 2) and lay.b_live.shape == (2, 2)
    assert lay.a_live.all() and lay.b_live.all()


def test_layout_tall_partial_band_zeroes_surplus():
    # delta=1 appended band of 2 blocks per side, only 1 may stay random
    lay = code_geometry(3, 2, 2, 1).layout
    assert (lay.case, lay.delta, lay.a_live.shape, lay.b_live.shape) == (
        "tall", 1, (4, 2), (2, 3)
    )
    assert lay.a_live[3:].tolist() == [[True, False]]  # rightmost zeroed
    assert lay.b_live[:, 2:].tolist() == [[False], [True]]  # topmost zeroed
    assert np.argwhere(~lay.a_live).tolist() == [[3, 1]]
    assert np.argwhere(~lay.b_live).tolist() == [[0, 2]]


def test_layout_tall_full_band_keeps_everything():
    lay = code_geometry(3, 2, 2, 2).layout
    assert lay.a_live.shape == (4, 2) and lay.b_live.shape == (2, 3)
    assert lay.a_live.all() and lay.b_live.all()


def test_layout_tall_two_band_surplus_sits_in_last_band():
    lay = code_geometry(3, 2, 2, 3).layout
    assert lay.delta == 2
    assert lay.a_live[3:].tolist() == [[True, True], [True, False]]
    assert lay.b_live[:, 2:].tolist() == [[True, False], [True, True]]


def test_layout_wide_single_output_row_keeps_corner():
    lay = code_geometry(2, 3, 1, 2).layout
    assert (lay.case, lay.width, lay.a_live.shape[1]) == ("wide", 2, 5)
    assert lay.a_live[:, 3:].tolist() == [[False, False], [True, True]]
    assert lay.b_live[3:].tolist() == [[True], [True]]


def test_layout_wide_padded_bands_face_zeros():
    lay = code_geometry(2, 2, 2, 2).layout
    assert lay.width == 2
    assert lay.a_live[:, 2:].tolist() == [[True, False], [True, False]]
    assert lay.b_live[2:].tolist() == [[False, False], [True, True]]


def test_layout_wide_padded_surplus_masking():
    lay = code_geometry(3, 3, 3, 2).layout
    assert lay.a_live[:, 3].tolist() == [True, True, False]
    assert not lay.a_live[:, 4].any()
    assert not lay.b_live[3].any()
    assert lay.b_live[4].tolist() == [True, True, False]


def test_layout_rejects_negative_collusion():
    with pytest.raises(ConfigurationError):
        code_geometry(2, 2, 2, -1).layout


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
    assert not block(pair.a_star, 3, 1).any()
    assert not block(pair.b_star, 0, 2).any()
    assert block(pair.a_star, 3, 0).any() and block(pair.b_star, 1, 2).any()


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
    assert not block(pair.a_star, 0, 3).any() and not block(pair.a_star, 0, 4).any()
    assert block(pair.a_star, 1, 3).any()


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


# every regime: gpd, tall (full and partial bands), one-band and two-band
# wide (sparse and GPD exponents on B)
AUGMENT_REGIMES = [(2, 3, 2, 0), (3, 2, 2, 2), (3, 2, 2, 3), (2, 3, 1, 2),
                   (1, 2, 3, 4), (2, 2, 2, 2), (3, 3, 2, 4)]


def test_augment_pads_to_the_masks_of_the_code_geometry(field257):
    rng = np.random.default_rng(12)
    for t, s, d, p_c in AUGMENT_REGIMES:
        pair = make_pair(t, s, d, p_c, field257, rng)[2]
        lay = code_geometry(t, s, d, p_c).layout
        assert (pair.layout.case, pair.layout.delta, pair.layout.width) == (
            lay.case, lay.delta, lay.width
        )
        assert np.array_equal(pair.layout.a_live, lay.a_live)
        assert np.array_equal(pair.layout.b_live, lay.b_live)


def test_augment_draws_only_the_live_random_blocks(field257):
    # one draw of A*'s P_C random blocks, then one of B*'s, laid out in
    # row-major block order; every other appended block stays zero, and the
    # gpd case leaves the generator untouched
    for t, s, d, p_c in AUGMENT_REGIMES:
        rng = np.random.default_rng(14)
        a = partition(field257.random_array((2 * t, 3 * s), rng), (t, s), field257)
        b = partition(field257.random_array((3 * s, 2 * d), rng), (s, d), field257)
        twin, untouched = copy.deepcopy(rng), rng.bit_generator.state
        pair = augment(a, b, p_c, rng)
        draws = [field257.random_array((p_c, 2, 3), twin), field257.random_array((p_c, 3, 2), twin)]
        assert rng.bit_generator.state == twin.bit_generator.state, (t, s, d, p_c)
        assert (rng.bit_generator.state == untouched) == (p_c == 0)
        for star, live, data, drawn in ((pair.a_star, pair.layout.a_live, a, draws[0]),
                                        (pair.b_star, pair.layout.b_live, b, draws[1])):
            corner = np.zeros(live.shape, bool)
            corner[: data.grid[0], : data.grid[1]] = True
            at = np.argwhere(live & ~corner)  # row-major
            assert len(at) == p_c
            assert np.array_equal(np.reshape([block(star, i, j) for i, j in at], drawn.shape), drawn)
            assert all(not block(star, i, j).any() for i, j in np.argwhere(~live))


def test_augment_rejects_field_mismatch(field257, field5):
    rng = np.random.default_rng(9)
    a = partition(np.zeros((2, 2), dtype=np.int64), (2, 2), field257)
    b = partition(np.zeros((2, 2), dtype=np.int64), (2, 2), field5)
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
        pytest.param(
            [[0, P31 - 1, 1], [P31 - 2, 0, 65536]], P31,
            b"2 3 2147483647\n         0 2147483646          1\n2147483645          0      65536\n",
            id="p31-grid",
        ),
        ([[0, 2], [1, 0], [2, 2]], 3, b"3 2 3\n0 2\n1 0\n2 2\n"),
        (np.zeros((2, 0)), 7, b"2 0 7\n\n\n"),
        (np.zeros((0, 3)), 7, b"0 3 7\n"),
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


@pytest.mark.parametrize("text", ["", " \n\t\r\n", "3 1"])
def test_matrix_file_refuses_files_shorter_than_the_header(tmp_path, text):
    # numpy parses a file of whitespace alone as [0]
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="truncated") as info:
        read_matrix(path)
    assert str(path) in str(info.value)


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


@pytest.mark.parametrize("entry", [-1, 7])
def test_matrix_writer_refuses_entries_outside_field(tmp_path, entry):
    path = tmp_path / "out.mat"
    with pytest.raises(ConfigurationError, match="outside") as info:
        write_matrix(path, np.array([[1, entry]]), 7)
    assert str(path) in str(info.value)
    assert not path.exists()


def test_matrix_writer_refuses_a_modulus_the_reader_would_refuse(tmp_path):
    path = tmp_path / "out.mat"
    with pytest.raises(ConfigurationError, match="more than 18 digits") as info:
        write_matrix(path, np.array([[1]]), 10**18)
    assert str(path) in str(info.value)
    assert not path.exists()


@pytest.mark.parametrize(
    "body",
    [
        "1 +5",
        "1-2 3",
        "- 2 3",
        "--2 3",
        "5- 3",
        "1 5-",
        "1_000 3",
        "\u0663 3",  # ARABIC-INDIC DIGIT THREE
        "1\x1c2",  # a separator to str.split, not ASCII whitespace
        "0x10 3",
        "1e3 3",
        "1\x002",
        "0" * 18 + "1 3",
        f"{2**64 + 5} 3",  # must not wrap to 5
        f"{2**70} 3",
    ],
)
def test_matrix_file_refuses_tokens_outside_the_grammar(tmp_path, body):
    path = tmp_path / "bad.mat"
    path.write_bytes(("1 2 7\n" + body).encode())
    with pytest.raises(ConfigurationError) as info:
        read_matrix(path)
    assert f"{path}: line 2:" in str(info.value)


_MODULI = [2, 3, 257, 65537, 2**31 - 1]
_GAPS = [" ", "  ", "\t", "\n", "\r\n", "\n\n", " \t\r\n", "\r\n\r\n", "\v", "\f"]


@st.composite
def respaced(draw, text: str) -> str:
    """text's tokens, each maybe zero-padded to at most 18 digits (a zero
    maybe written "-0"), joined by random runs of ASCII whitespace (tabs, CRLF
    and blank lines among them), with optional whitespace at either end."""
    edge = st.sampled_from(["", *_GAPS])
    out = [draw(edge)]
    for token in text.split():
        pad = "0" * draw(st.integers(0, 18 - len(token)))
        sign = "-" if token == "0" and draw(st.booleans()) else ""
        out += [sign + pad + token, draw(st.sampled_from(_GAPS))]
    out[-1] = draw(edge)
    return "".join(out)


def _outcome(read, *args):
    try:
        header, arrays = read(*args)
    except ConfigurationError:
        return "refused"
    return header, [arr.tolist() for arr in arrays]


def _respaced_reads_as_oracle(data, path, *layout) -> None:
    path.write_text(data.draw(respaced(path.read_text())), newline="")
    assert _outcome(read_text_file, path, *layout) == _outcome(
        reference_read_text_file, path, *layout
    )


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from(_MODULI),
    shapes=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=2),
)
def test_file_reader_agrees_with_token_oracle(tmp_path_factory, data, p, shapes):
    # write -> read round-trips, and every re-spacing of the written file
    # reads as the token-by-token oracle reads it
    path = tmp_path_factory.mktemp("files") / "f"
    a, b = (
        np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c)),
                 dtype=np.int64).reshape(r, c)
        for r, c in shapes
    )
    field = PrimeField(p)

    write_matrix(path, a, p)
    back, modulus = read_matrix(path)
    assert modulus == p and np.array_equal(back, a)
    _respaced_reads_as_oracle(data, path, 3, slice(0, 2))

    point = data.draw(st.integers(0, p - 1))
    write_share(path, CodedShare(9, point, a, b, field))
    header, (a_back, b_back) = read_text_file(path, 6, slice(2, 6), p)
    assert header[:2] == [9, point]
    assert np.array_equal(a_back, a) and np.array_equal(b_back, b)
    _respaced_reads_as_oracle(data, path, 6, slice(2, 6), p)


def _token_parser_refused(path, raw, header_len):
    raise AssertionError(f"{path} reached the token parser")


_EDGES = [0, 9, 10, 9_999, 10**4, 10**8 - 1, 10**8]


@pytest.mark.parametrize("p", [2, 3, 11, 257, 65537, 2**31 - 1])
def test_written_files_are_read_as_grids_at_every_width(tmp_path, monkeypatch, p):
    # every written file, at the edges of each digit count, reads back through
    # the byte grid alone: the token parser is never reached
    monkeypatch.setattr(blocks, "_token_entries", _token_parser_refused)
    field = PrimeField(p)
    edges = [v for v in _EDGES if v < p] + [p - 1]
    a = np.array([edges, edges[::-1]], dtype=np.int64)
    path = tmp_path / "m.mat"
    write_matrix(path, a, p)
    rows = path.read_bytes().split(b"\n")[1:-1]
    assert {len(row) for row in rows} == {len(edges) * (len(str(p - 1)) + 1) - 1}
    back, modulus = read_matrix(path)
    assert modulus == p and np.array_equal(back, a)

    b = a.T.copy()
    write_share(path, CodedShare(7, p - 1, a, b, field))
    header, (a_back, b_back) = read_text_file(path, 6, slice(2, 6), p)
    assert header == [7, p - 1, *a.shape, *b.shape]
    assert np.array_equal(a_back, a) and np.array_equal(b_back, b)


@pytest.mark.parametrize(
    "text,entry",
    [
        ("1 2 2147483647\n9999999999          1\n", 9999999999),
        ("1 2 2147483647\n         1 2147483647\n", 2147483647),
        ("2 1 257\n999\n  1\n", 999),
        ("1 1 2\n2\n", 2),
    ],
)
def test_grid_entry_outside_field_is_refused(tmp_path, monkeypatch, text, entry):
    monkeypatch.setattr(blocks, "_token_entries", _token_parser_refused)
    path = tmp_path / "bad.mat"
    path.write_text(text)
    modulus = int(text.split()[2])
    with pytest.raises(ConfigurationError) as info:
        read_matrix(path)
    assert str(info.value) == f"{path}: entry {entry} lies outside [0, {modulus})"


@pytest.mark.parametrize(
    "text,expected",
    [
        # a field of spaces alone, whose missing digit a "1 3" field makes up
        ("1 2 257\n    1 3\n", [[1, 3]]),
        # two tokens in one field
        ("1 1 257\n1 3\n", "expected 1 entries, found 2"),
        # a field that ends in digits but holds another byte
        ("1 1 65537\n  x12\n", "line 2: non-integer entry"),
        ("1 1 65537\n\t  12\n", [[12]]),
    ],
)
def test_files_of_grid_length_read_by_their_tokens(tmp_path, text, expected):
    path = tmp_path / "m.mat"
    path.write_text(text)
    if isinstance(expected, str):
        with pytest.raises(ConfigurationError, match=expected):
            read_matrix(path)
    else:
        assert read_matrix(path)[0].tolist() == expected


# ASCII whitespace-separated tokens of an optional "-" and 1 to 18 digits
_TOKEN_FILE = re.compile(rb"\s*(?:-?[0-9]{1,18}(?:\s+|\Z))*")


def _message(read, *args):
    try:
        header, arrays = read(*args)
    except ConfigurationError as exc:
        return str(exc)
    return header, [arr.tolist() for arr in arrays]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from(_MODULI),
    shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=2),
    share=st.booleans(),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    byte=st.sampled_from(list(b"0123456789 \t\n\r-x")),
)
def test_one_byte_mutant_reads_as_the_token_reader(
    tmp_path_factory, data, p, shapes, share, edit, byte
):
    # a written grid with one byte replaced, inserted or deleted: the grid
    # reader takes it or hands it on, and the outcome, message included, is
    # the token reader's; a mutant inside the grammar reads as the oracle
    path = tmp_path_factory.mktemp("mutants") / "f"
    a, b = (
        np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c)),
                 dtype=np.int64).reshape(r, c)
        for r, c in shapes
    )
    if share:
        write_share(path, CodedShare(2, data.draw(st.integers(0, p - 1)), a, b, PrimeField(p)))
        layout = (6, slice(2, 6), p)
    else:
        write_matrix(path, a, p)
        layout = (3, slice(0, 2))
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")))
    if edit == "delete":
        del raw[at]
    elif edit == "insert":
        raw.insert(at, byte)
    else:
        raw[at] = byte
    path.write_bytes(bytes(raw))

    got = _message(read_text_file, path, *layout)
    with mock.patch.object(blocks, "_grid_entries", return_value=None):
        assert got == _message(read_text_file, path, *layout)
    if _TOKEN_FILE.fullmatch(raw):
        assert _outcome(read_text_file, path, *layout) == _outcome(
            reference_read_text_file, path, *layout
        )
    else:
        assert isinstance(got, str) and f"{path}: line " in got
