"""File formats: HTP1 binary tensors, pose CSVs, and zipped parameter checkpoints.

HTP1 layout: magic bytes ``HTP1``, u32 little-endian rank, rank u64
little-endian dims, then the float64 little-endian payload in row-major
order. Tensors are written from the array's own buffer and read into it in
bounded chunks, so neither direction, in a standalone file or a checkpoint
entry, holds a second payload-sized copy.

Pose CSV grammar: a ``frame,joint,x,y,z`` or ``frame,joint,u,v`` header,
then one row per (frame, joint) of comma-separated unquoted decimal fields,
two integer indices and as many floats as the header names. Lines end in LF
or CRLF; blank and comment lines are errors. The writer emits CRLF and the
``repr`` of each float64, so values round-trip exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
import zipfile
from pathlib import Path
from typing import BinaryIO

import numpy as np

MAGIC = b"HTP1"
READ_CHUNK = 1 << 20  # a zip entry's readinto copies through read(n), so n is capped at this


class FormatError(ValueError):
    """Raised for malformed HTP1 / CSV / checkpoint content."""


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        _write_tensor(fh, arr)


def read_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_tensor(fh, os.fstat(fh.fileno()).st_size, str(path))


def _read_tensor(fh: BinaryIO, size: int, name: str) -> np.ndarray:
    """Decode the ``size``-byte HTP1 stream ``fh``, reading the payload chunk by chunk into the result."""
    head = fh.read(8)
    if head[:4] != MAGIC:
        raise FormatError(f"{name}: bad magic, expected {MAGIC!r}")
    rank = int.from_bytes(head[4:], "little")
    off = 8 + 8 * rank
    if len(head) < 8 or size < off:
        raise FormatError(f"{name}: truncated header")
    dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
    count = math.prod(dims)
    if size - off != count * 8:
        raise FormatError(f"{name}: payload is {size - off} bytes, expected {count * 8}")
    out = np.empty(count, dtype="<f8")
    payload = memoryview(out.view(np.uint8))
    for start in range(0, count * 8, READ_CHUNK):
        chunk = payload[start : start + READ_CHUNK]
        if fh.readinto(chunk) != len(chunk):
            raise FormatError(f"{name}: payload ended early")
    return out.reshape(dims)


def _write_tensor(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(MAGIC + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
    fh.write(arr.reshape(-1).view(np.uint8))


def write_pose_csv(path: str | Path, pose: np.ndarray) -> None:
    """Write a (J, F, 3) or (J, F, 2) pose tensor as a dense frame,joint CSV.

    Rows run frame-major and end in CRLF; values are written with repr so
    float64 round-trips exactly.
    """
    pose = np.asarray(pose, dtype=np.float64)
    if pose.ndim != 3 or pose.shape[2] not in (2, 3):
        raise FormatError(f"pose tensor must be (J, F, 2|3), got {pose.shape}")
    if not np.isfinite(pose).all():  # the reader rejects them, so never write them
        raise FormatError(f"{path}: non-finite coordinates")
    joints, _, width = pose.shape
    header = "frame,joint,u,v\r\n" if width == 2 else "frame,joint,x,y,z\r\n"
    row = ",".join(["%d", "%d"] + ["%r"] * width) + "\r\n"
    values = pose.transpose(1, 0, 2).reshape(-1, width).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(header + "".join([row % (r // joints, r % joints, *v) for r, v in enumerate(values)]))


def read_pose_csv(path: str | Path) -> np.ndarray:
    """Read a pose CSV back into a (J, F, C) tensor; validates every row and the density.

    The data lines are parsed as one array. Only when that parse fails does
    a row loop run, to name the first bad line.
    """
    lines = Path(path).read_text().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = _fields(lines[0])
    if header[:2] != ["frame", "joint"] or len(header) not in (4, 5):
        raise FormatError(f"{path}: unexpected header {header}")
    width = len(header) - 2
    body = lines[1:]
    if not body:
        raise FormatError(f"{path}: no data rows")
    if "" in body:  # loadtxt would skip a blank line rather than reject it
        raise _first_bad_line(path, body, width, "blank line")
    dtype = np.dtype([("frame", "<i8"), ("joint", "<i8"), ("coords", "<f8", (width,))])
    try:
        with warnings.catch_warnings():
            # numpy 1.23-1.26 parse an int field that fails as a float, cast it and only warn
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(body, delimiter=",", dtype=dtype, comments=None, quotechar=None, ndmin=1)
    except (ValueError, DeprecationWarning) as exc:
        raise _first_bad_line(path, body, width, str(exc)) from None
    frame_idx, joint_idx, coords = rows["frame"], rows["joint"], rows["coords"]
    if frame_idx.min() < 0 or joint_idx.min() < 0:
        raise _first_bad_line(path, body, width, "negative index")
    frames, joints = int(frame_idx.max()) + 1, int(joint_idx.max()) + 1
    if len(body) != frames * joints:
        raise FormatError(f"{path}: {len(body)} rows, expected dense {joints}x{frames}")
    if not np.isfinite(coords).all():
        raise FormatError(f"{path}: non-finite coordinates")
    out = np.full((joints, frames, width), np.nan)
    out[joint_idx, frame_idx] = coords
    if np.isnan(out).any():
        raise FormatError(f"{path}: missing (frame, joint) entries")
    return out


def _fields(line: str) -> list[str]:
    return line.split(",") if line else []


def _first_bad_line(path: str | Path, body: list[str], width: int, parse_error: str) -> FormatError:
    """The error naming the first data line the array parse rejected; never produces values."""
    for line, text in enumerate(body, start=2):
        fields = _fields(text)
        try:
            if len(fields) != width + 2:
                raise ValueError(f"{len(fields)} fields, header has {width + 2}")
            if "_" in text:  # int() and float() accept digit separators; the format does not
                raise ValueError(f"digit separator in {text!r}")
            f, j = int(fields[0]), int(fields[1])
            if f < 0 or j < 0:
                raise ValueError(f"negative index ({f}, {j})")
            for value in fields[2:]:
                float(value)
        except ValueError as exc:
            return FormatError(f"{path}: line {line}: {exc}")
    return FormatError(f"{path}: {parse_error}")


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Save named tensors as HTP1 entries in a zip container with a JSON manifest."""
    entries = {}
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for i, (name, arr) in enumerate(tensors.items()):
            entry = f"tensors/{i:04d}.htp1"
            entries[name] = entry
            size = 8 + 8 * np.ndim(arr) + 8 * np.size(arr)
            with zf.open(entry, "w", force_zip64=size > zipfile.ZIP64_LIMIT) as fh:
                _write_tensor(fh, arr)
        manifest = {"format": "HTP1", "tensors": entries}
        # a ZipInfo, like the tensor entries, dates the entry 1980-01-01, so equal tensors give equal bytes
        zf.writestr(zipfile.ZipInfo("manifest.json"), json.dumps(manifest, indent=1))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Load the named tensors of a checkpoint; malformed content raises FormatError."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("format") != "HTP1":
                raise FormatError(f"unknown checkpoint format {manifest.get('format')!r}")
            tensors = {}
            for name, entry in manifest["tensors"].items():
                with zf.open(entry) as fh:
                    tensors[name] = _read_tensor(fh, zf.getinfo(entry).file_size, entry)
            return tensors
    except (zipfile.BadZipFile, KeyError, ValueError, AttributeError) as exc:
        # a non-zip file, an absent entry or manifest key, bad JSON or a bad tensor
        raise FormatError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None
