"""File formats: HTP1 binary tensors, pose CSVs, and zipped parameter checkpoints.

HTP1 layout: magic bytes ``HTP1``, u32 little-endian rank, rank u64
little-endian dims, then the float64 little-endian payload in row-major
order.
"""

from __future__ import annotations

import csv
import json
import struct
import zipfile
from pathlib import Path

import numpy as np

MAGIC = b"HTP1"


class FormatError(ValueError):
    """Raised for malformed HTP1 / CSV / checkpoint content."""


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    Path(path).write_bytes(_encode_tensor(arr))


def read_tensor(path: str | Path) -> np.ndarray:
    return _decode_tensor(Path(path).read_bytes(), str(path))


def _decode_tensor(raw: bytes, name: str) -> np.ndarray:
    if raw[:4] != MAGIC:
        raise FormatError(f"{name}: bad magic, expected {MAGIC!r}")
    try:
        (rank,) = struct.unpack_from("<I", raw, 4)
        dims = [int(d) for d in struct.unpack_from(f"<{rank}Q", raw, 8)]
    except struct.error:
        raise FormatError(f"{name}: truncated header") from None
    off = 8 + 8 * rank
    count = int(np.prod(dims)) if dims else 1
    payload = raw[off:]
    if len(payload) != count * 8:
        raise FormatError(f"{name}: payload is {len(payload)} bytes, expected {count * 8}")
    return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()


def _encode_tensor(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    head = MAGIC + struct.pack("<I", arr.ndim)
    head += b"".join(struct.pack("<Q", d) for d in arr.shape)
    return head + arr.astype("<f8").tobytes()


def write_pose_csv(path: str | Path, pose: np.ndarray) -> None:
    """Write a (J, F, 3) or (J, F, 2) pose tensor as a dense frame,joint CSV.

    Values are written with repr so float64 round-trips exactly.
    """
    pose = np.asarray(pose, dtype=np.float64)
    if pose.ndim != 3 or pose.shape[2] not in (2, 3):
        raise FormatError(f"pose tensor must be (J, F, 2|3), got {pose.shape}")
    joints, frames, width = pose.shape
    header = ["frame", "joint", "u", "v"] if width == 2 else ["frame", "joint", "x", "y", "z"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for f in range(frames):
            for j in range(joints):
                writer.writerow([f, j] + [repr(float(v)) for v in pose[j, f]])


def read_pose_csv(path: str | Path) -> np.ndarray:
    """Read a pose CSV back into a (J, F, C) tensor; validates every row and the density."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if header[:2] != ["frame", "joint"] or len(header) not in (4, 5):
        raise FormatError(f"{path}: unexpected header {header}")
    width = len(header) - 2
    body = rows[1:]
    if not body:
        raise FormatError(f"{path}: no data rows")
    frame_idx, joint_idx, values = [], [], []
    for line, r in enumerate(body, start=2):
        try:
            if len(r) != len(header):
                raise ValueError(f"{len(r)} fields, header has {len(header)}")
            f, j = int(r[0]), int(r[1])
            if f < 0 or j < 0:
                raise ValueError(f"negative index ({f}, {j})")
            frame_idx.append(f)
            joint_idx.append(j)
            values.extend(map(float, r[2:]))
        except ValueError as exc:
            raise FormatError(f"{path}: line {line}: {exc}") from None
    frames, joints = max(frame_idx) + 1, max(joint_idx) + 1
    if len(body) != frames * joints:
        raise FormatError(f"{path}: {len(body)} rows, expected dense {joints}x{frames}")
    coords = np.array(values).reshape(len(body), width)
    if not np.isfinite(coords).all():
        raise FormatError(f"{path}: non-finite coordinates")
    out = np.full((joints, frames, width), np.nan)
    out[joint_idx, frame_idx] = coords
    if np.isnan(out).any():
        raise FormatError(f"{path}: missing (frame, joint) entries")
    return out


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Save named tensors as HTP1 entries in a zip container with a JSON manifest."""
    entries = {}
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for i, (name, arr) in enumerate(tensors.items()):
            entry = f"tensors/{i:04d}.htp1"
            entries[name] = entry
            zf.writestr(entry, _encode_tensor(arr))
        manifest = {"format": "HTP1", "tensors": entries}
        zf.writestr("manifest.json", json.dumps(manifest, indent=1))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Load the named tensors of a checkpoint; malformed content raises FormatError."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("format") != "HTP1":
                raise FormatError(f"unknown checkpoint format {manifest.get('format')!r}")
            return {name: _decode_tensor(zf.read(entry), entry) for name, entry in manifest["tensors"].items()}
    except (zipfile.BadZipFile, KeyError, ValueError, AttributeError) as exc:
        # a non-zip file, an absent entry or manifest key, bad JSON or a bad tensor
        raise FormatError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None
