"""Binary on-disk format for fields.

Layout (all little-endian): a 16-byte header (8-byte magic, u32 version,
u32 reserved), then dim as u32, per-axis node counts (u32 each), per-axis
extents (two f64 each), then node values as f64 in row-major order. Values
round-trip bit-exactly.

:func:`_open_fresh` is how every artifact is opened for writing.
"""

import contextlib
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grid import Field, build_uniform_grid

MAGIC = b"NLKPPFLD"
VERSION = 1
_HEADER = struct.Struct("<8sII")


def _open_fresh(path, mode: str = "w", **options):
    """``open(path, mode, **options)`` for writing, unlinking a regular file
    already at ``path`` first. On ext4, truncating a file that was just
    written waits until its data reach the disk, tens of milliseconds where
    a new file takes a fraction of one; a hard link to the old file keeps
    the old bytes. A symlink or a directory is left for ``open`` to follow
    or refuse, and a file that cannot be unlinked is truncated as before."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    return open(path, mode, **options)


def write_field(path, field: Field) -> None:
    grid = field.grid
    parts = [_HEADER.pack(MAGIC, VERSION, 0),
             struct.pack("<I", grid.dim),
             struct.pack(f"<{grid.dim}I", *grid.counts)]
    for lo, hi in grid.extents:
        parts.append(struct.pack("<2d", lo, hi))
    parts.append(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    with _open_fresh(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_field(path) -> Field:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:  # missing, a directory, no permission
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # an embedded NUL byte
        raise ValidationError(f"{path}: cannot read: {exc}") from exc
    if len(raw) < _HEADER.size + 4:
        raise ValidationError(f"{path}: truncated field file")
    magic, version, _ = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValidationError(f"{path}: not a field file (bad magic {magic!r})")
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported field format version {version}")
    offset = _HEADER.size
    (dim,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if dim not in (1, 2):
        raise ValidationError(f"{path}: unsupported dimension {dim}")
    if len(raw) < offset + 4 * dim + 16 * dim:
        raise ValidationError(f"{path}: truncated field file")
    counts = struct.unpack_from(f"<{dim}I", raw, offset)
    offset += 4 * dim
    extents = []
    for _ in range(dim):
        lo, hi = struct.unpack_from("<2d", raw, offset)
        offset += 16
        extents.append((lo, hi))
    n = math.prod(counts)  # a Python int: header counts cannot wrap around
    if len(raw) != offset + 8 * n:
        raise ValidationError(f"{path}: truncated or overlong field file "
                              f"({len(raw) - offset} value bytes, counts {counts} "
                              f"need {8 * n})")
    values = np.frombuffer(raw, dtype="<f8", count=n, offset=offset)
    grid = build_uniform_grid(extents, counts)
    return Field(grid, values.copy())
