import struct

import pytest

from nlkpp import Field, ValidationError, build_uniform_grid, read_field, write_field


def test_round_trip_1d_bit_exact(tmp_path, rng):
    grid = build_uniform_grid((-0.5, 2.5), 37)
    field = Field(grid, rng.uniform(1e-14, 10.0, 37))
    path = tmp_path / "f.bin"
    write_field(path, field)
    back = read_field(path)
    assert back.grid.counts == grid.counts
    assert back.grid.extents == grid.extents
    assert back.values.tobytes() == field.values.tobytes()


def test_round_trip_2d_bit_exact(tmp_path, rng):
    grid = build_uniform_grid(((0, 1), (-1, 3)), (5, 9))
    field = Field(grid, rng.normal(size=45) ** 2 + 1e-30)
    path = tmp_path / "f2.bin"
    write_field(path, field)
    back = read_field(path)
    assert back.grid.counts == (5, 9)
    assert back.values.tobytes() == field.values.tobytes()


def test_header_is_16_bytes_then_dim(tmp_path):
    grid = build_uniform_grid((0, 1), 3)
    path = tmp_path / "f.bin"
    write_field(path, Field.constant(grid, 1.0))
    raw = path.read_bytes()
    assert raw[:8] == b"NLKPPFLD"
    dim = int.from_bytes(raw[16:20], "little")
    assert dim == 1
    assert len(raw) == 16 + 4 + 4 + 16 + 3 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFLD0" + bytes(64))
    with pytest.raises(ValidationError, match="magic"):
        read_field(path)


def test_truncated_rejected(tmp_path):
    grid = build_uniform_grid((0, 1), 8)
    path = tmp_path / "f.bin"
    write_field(path, Field.constant(grid, 2.0))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValidationError, match="truncated"):
        read_field(path)


@pytest.mark.parametrize("raw,message", [
    (b"NLKPPFLD" + struct.pack("<I", 1), "truncated field file"),
    (b"NLKPPFLD" + struct.pack("<III", 2, 0, 1), "unsupported field format version 2"),
    (b"NLKPPFLD" + struct.pack("<III", 1, 0, 3), "unsupported dimension 3"),
    (b"NLKPPFLD" + struct.pack("<IIII", 1, 0, 1, 8), "truncated field file"),
], ids=["short_header", "version", "dimension", "short_axes"])
def test_malformed_header_rejected(tmp_path, raw, message):
    path = tmp_path / "crafted.bin"
    path.write_bytes(raw)
    with pytest.raises(ValidationError, match=message):
        read_field(path)


def crafted_file(counts, n_values):
    dim = len(counts)
    return (b"NLKPPFLD" + struct.pack("<II", 1, 0) + struct.pack("<I", dim)
            + struct.pack(f"<{dim}I", *counts) + struct.pack("<2d", 0.0, 1.0) * dim
            + bytes(8 * n_values))


@pytest.mark.parametrize("counts,n_values", [
    ((2 ** 32 - 1, 2 ** 32 - 1), 5),  # the count product wraps in int64
    ((8,), 9),
], ids=["overflowing_counts", "trailing_bytes"])
def test_value_bytes_must_match_header(tmp_path, counts, n_values):
    path = tmp_path / "crafted.bin"
    path.write_bytes(crafted_file(counts, n_values))
    with pytest.raises(ValidationError, match="truncated or overlong"):
        read_field(path)


def test_crafted_header_reads_back(tmp_path):
    path = tmp_path / "crafted.bin"
    path.write_bytes(crafted_file((8,), 8))
    assert read_field(path).grid.counts == (8,)
