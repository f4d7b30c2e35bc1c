import pytest

from implbases import (ContextParseError, FormalContext, read_burmeister,
                       read_burmeister_file, read_csv_matrix, write_burmeister)


def test_round_trip(toy_context):
    text = write_burmeister(toy_context, name="toy")
    again = read_burmeister(text)
    assert again == toy_context
    assert again.object_names == toy_context.object_names
    assert write_burmeister(again, name="toy") == text


def test_exact_serialization():
    ctx = FormalContext([[1, 0], [0, 1]])
    assert write_burmeister(ctx) == (
        "B\n\n2\n2\n\no1\no2\na1\na2\nX.\n.X\n")


def test_bundled_toy_file_matches_fixture(toy_context, toy_context_path):
    assert read_burmeister_file(toy_context_path) == toy_context


def test_header_comments_ignored_on_read(toy_context):
    text = write_burmeister(toy_context, header_comments=["model=single", "seed=3"])
    assert text.startswith("# model=single\n# seed=3\nB\n")
    assert read_burmeister(text) == toy_context


def test_lowercase_x_accepted():
    ctx = read_burmeister("B\n\n1\n2\n\no1\na1\na2\nxX\n")
    assert ctx.row_masks == (0b11,)


@pytest.mark.parametrize("text,line", [
    ("Q\n\n1\n1\n\no1\na1\nX\n", 1),              # bad magic
    ("B\n\nnope\n1\n\no1\na1\nX\n", 3),           # bad object count
    ("B\n\n1\nnope\n\no1\na1\nX\n", 4),           # bad attribute count
    ("B\n\n1\n1\nX\no1\na1\nX\n", 5),             # missing blank line
    ("B\n\n2\n1\n\no1\no1\na1\nX\nX\n", 7),       # duplicate object name
    ("B\n\n1\n2\n\no1\na1\na2\nX\n", 9),          # short row
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ContextParseError) as err:
        read_burmeister(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


def test_bad_cell_character_carries_column():
    with pytest.raises(ContextParseError) as err:
        read_burmeister("B\n\n1\n3\n\no1\na1\na2\na3\nX?X\n")
    assert err.value.line == 10
    assert err.value.column == 2


def test_truncated_file():
    with pytest.raises(ContextParseError):
        read_burmeister("B\n\n2\n2\n\no1\n")


def test_trailing_garbage_rejected():
    with pytest.raises(ContextParseError):
        read_burmeister("B\n\n1\n1\n\no1\na1\nX\nstray\n")


def test_empty_dimensions_round_trip():
    ctx = FormalContext.from_row_masks(0, 2, [])
    assert read_burmeister(write_burmeister(ctx)) == ctx
    ctx2 = FormalContext.from_row_masks(2, 0, [0, 0])
    assert read_burmeister(write_burmeister(ctx2)) == ctx2


def test_csv_reader():
    ctx = read_csv_matrix("# comment\n1,0,1\n0, 1 ,0\n")
    assert ctx.n_objects == 2 and ctx.n_attributes == 3
    assert ctx.row_masks == (0b101, 0b010)


def test_csv_errors():
    with pytest.raises(ContextParseError):
        read_csv_matrix("1,2\n")
    with pytest.raises(ContextParseError):
        read_csv_matrix("1,0\n1\n")
    with pytest.raises(ContextParseError):
        read_csv_matrix("")
