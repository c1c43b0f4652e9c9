"""Binary tensor format, pose CSVs, and checkpoint containers."""

import csv
import json
import re
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from htp import io as htp_io
from htp.core import RngStream

GOLDEN = Path(__file__).parent / "golden"
# signed zero, the smallest subnormal, the largest finite double, and values whose repr is short or long
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1, 3.0]


def csv_module_writer(path, pose):
    """The pose writer as it stood on the csv module: frame-major rows of repr values, CRLF."""
    joints, frames, width = pose.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "joint", "u", "v"] if width == 2 else ["frame", "joint", "x", "y", "z"])
        for f in range(frames):
            for j in range(joints):
                writer.writerow([f, j] + [repr(float(v)) for v in pose[j, f]])


def long_sparse_pose(width):
    """A (17, 729, width) pose, the long_sparse size, spread over many decades."""
    rng = RngStream(7)
    return rng.normal((17, 729, width)) * 10.0 ** np.round(rng.uniform(-30, 30, (17, 729, width)))


class TestTensorFormat:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
    def test_roundtrip_bitwise(self, tmp_path, shape):
        arr = RngStream(1).normal(shape) * 1e6
        path = tmp_path / "t.htp1"
        htp_io.write_tensor(path, arr)
        back = htp_io.read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.htp1"
        htp_io.write_tensor(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"HTP1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert len(raw) == 24 + 6 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.htp1"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(htp_io.FormatError, match="magic"):
            htp_io.read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.htp1"
        htp_io.write_tensor(path, np.zeros((4,)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(htp_io.FormatError, match="payload"):
            htp_io.read_tensor(path)

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63, 2)])
    def test_element_count_past_int64_is_format_error(self, tmp_path, dims):
        # the product of the dims is 2**64: int64 arithmetic would wrap it to 0
        path = tmp_path / "huge.htp1"
        path.write_bytes(b"HTP1" + (2).to_bytes(4, "little") + b"".join(d.to_bytes(8, "little") for d in dims))
        with pytest.raises(htp_io.FormatError, match=rf"{re.escape(str(path))}: .*expected {2**64 * 8}$"):
            htp_io.read_tensor(path)

    def test_write_and_read_hold_no_second_payload_copy(self, tmp_path):
        arr = RngStream(8).normal((16, 256, 256))  # 8 MiB payload
        path = tmp_path / "big.htp1"
        peaks = {}
        for name, op in (("write", lambda: htp_io.write_tensor(path, arr)), ("read", lambda: htp_io.read_tensor(path))):
            tracemalloc.start()
            try:
                back = op()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(back, arr)
        assert max(peaks.values()) < 1.5 * arr.nbytes, peaks


class TestPoseCsv:
    @pytest.mark.parametrize("width", [2, 3])
    def test_roundtrip_bitwise(self, tmp_path, width):
        pose = RngStream(2).normal((4, 6, width)) * 1234.56789
        path = tmp_path / "pose.csv"
        htp_io.write_pose_csv(path, pose)
        back = htp_io.read_pose_csv(path)
        assert back.shape == pose.shape
        assert np.array_equal(back, pose)

    @pytest.mark.parametrize("width", [2, 3])
    def test_roundtrip_bitwise_at_long_sparse_size(self, tmp_path, width):
        pose = long_sparse_pose(width)
        path = tmp_path / "pose.csv"
        htp_io.write_pose_csv(path, pose)
        assert np.array_equal(htp_io.read_pose_csv(path), pose)

    @pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*/out.csv")), ids=lambda p: p.parent.name)
    def test_golden_file_rewrites_byte_identical(self, tmp_path, golden):
        path = tmp_path / "out.csv"
        htp_io.write_pose_csv(path, htp_io.read_pose_csv(golden))
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("width", [2, 3])
    def test_writer_bytes_match_csv_module(self, tmp_path, width):
        pose = RngStream(9).normal((3, 5, width)) * 1e3
        pose.flat[: 2 * len(EXTREMES)] = EXTREMES + [-v for v in EXTREMES]
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        htp_io.write_pose_csv(ours, pose)
        csv_module_writer(reference, pose)
        assert ours.read_bytes() == reference.read_bytes()
        assert np.array_equal(htp_io.read_pose_csv(ours), pose)

    def test_lf_file_reads_as_its_crlf_twin(self, tmp_path):
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        htp_io.write_pose_csv(crlf, RngStream(10).normal((4, 6, 3)))
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        assert b"\r" not in lf.read_bytes()
        assert np.array_equal(htp_io.read_pose_csv(lf), htp_io.read_pose_csv(crlf))

    @pytest.mark.parametrize(
        "text, needle",
        [("", "empty file"), ("frame,joint,u,v\n", "no data rows"), ("frame,joint,x,y,z", "no data rows")],
        ids=["empty", "header_only", "header_only_no_newline"],
    )
    def test_empty_and_header_only_files(self, tmp_path, text, needle):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(htp_io.FormatError, match=re.escape(f"{path}: {needle}")):
            htp_io.read_pose_csv(path)

    def test_header_names(self, tmp_path):
        path = tmp_path / "p.csv"
        htp_io.write_pose_csv(path, np.zeros((1, 1, 3)))
        assert path.read_text().splitlines()[0] == "frame,joint,x,y,z"
        htp_io.write_pose_csv(path, np.zeros((1, 1, 2)))
        assert path.read_text().splitlines()[0] == "frame,joint,u,v"

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("frame,joint,x,y,z\n0,0,1.0,2.0,3.0\n2,0,4.0,5.0,6.0\n")
        with pytest.raises(htp_io.FormatError):
            htp_io.read_pose_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("frame,joint,x,y,z\n0,0,1.0,inf,3.0\n")
        with pytest.raises(htp_io.FormatError, match="finite"):
            htp_io.read_pose_csv(path)

    def test_nan_value_is_non_finite_not_missing(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("frame,joint,u,v\n0,0,1.0,nan\n1,0,3.0,4.0\n")
        with pytest.raises(htp_io.FormatError, match="non-finite"):
            htp_io.read_pose_csv(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_writer_rejects_non_finite_and_leaves_no_file(self, tmp_path, value):
        path = tmp_path / "out.csv"
        pose = np.zeros((2, 3, 3))
        pose[1, 2, 0] = value
        with pytest.raises(htp_io.FormatError, match=re.escape(f"{path}: non-finite coordinates")):
            htp_io.write_pose_csv(path, pose)
        assert not path.exists()

    @pytest.mark.parametrize(
        "bad_row",
        [
            "1,x,1.0,2.0",  # non-integer index
            "1,0,1.0,abc",  # non-numeric value
            "",  # blank line
            "-5,0,1.0,2.0",  # index below -F
            "-1,0,1.0,2.0",  # negative index that numpy would wrap
            "1,0,1.0",  # short row
            "1,0,1.0,2.0,3.0",  # extra column
            "\n1,0,3.0,4.0",  # blank line mid-file
            "#1,0,3.0,4.0",  # comment line
            '"1",0,3.0,4.0',  # quoted field
            "1.0,0,3.0,4.0",  # float index
            "1_0,0,3.0,4.0",  # index with a digit separator
            "1,0,3_0,4.0",  # value with a digit separator
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text(f"frame,joint,u,v\n0,0,1.0,2.0\n{bad_row}\n")
        with pytest.raises(htp_io.FormatError, match=re.escape(f"{path}: line 3: ")):
            htp_io.read_pose_csv(path)

    @pytest.mark.parametrize("index", ["1.5", "-0.5", "1.0"])
    def test_fractional_index_rejected_with_warnings_ignored(self, tmp_path, index):
        path = tmp_path / "bad.csv"
        path.write_text(f"frame,joint,u,v\n0,0,1.0,2.0\n{index},0,3.0,4.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(htp_io.FormatError, match=re.escape(f"{path}: line 3: ")):
                htp_io.read_pose_csv(path)

    def test_bad_value_deep_in_a_long_sparse_size_file(self, tmp_path):
        path = tmp_path / "long.csv"
        htp_io.write_pose_csv(path, long_sparse_pose(2))
        lines = path.read_bytes().split(b"\r\n")
        lines[4999] = lines[4999].rsplit(b",", 1)[0] + b",1.0e"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(htp_io.FormatError, match=re.escape(f"{path}: line 5000: ")):
            htp_io.read_pose_csv(path)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        tensors = {"a.w": RngStream(3).normal((3, 4)), "b.vec": np.arange(5.0)}
        path = tmp_path / "c.ckpt"
        htp_io.save_checkpoint(path, tensors)
        back = htp_io.load_checkpoint(path)
        assert set(back) == set(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])

    def test_entry_past_zip64_limit_roundtrips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)  # stands in for 2 GiB
        tensors = {"small": np.arange(3.0), "big": RngStream(4).normal((20, 10))}
        path = tmp_path / "c.ckpt"
        htp_io.save_checkpoint(path, tensors)
        back = htp_io.load_checkpoint(path)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])

    def test_load_holds_no_second_payload_copy(self, tmp_path):
        arr = RngStream(8).normal((16, 256, 256))  # 8 MiB payload
        path = tmp_path / "big.ckpt"
        htp_io.save_checkpoint(path, {"w": arr})
        tracemalloc.start()
        try:
            back = htp_io.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back["w"], arr)
        assert peak < 1.5 * arr.nbytes, peak

    def test_equal_tensors_give_equal_bytes(self, tmp_path, monkeypatch):
        tensors = {"a.w": RngStream(3).normal((3, 4)), "b.vec": np.arange(5.0)}
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        htp_io.save_checkpoint(first, tensors)
        with monkeypatch.context() as m:  # a second save a day later
            m.setattr(zipfile.time, "localtime", lambda *args: (2001, 2, 3, 4, 5, 6, 5, 34, 0))
            htp_io.save_checkpoint(second, tensors)
        with zipfile.ZipFile(first) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
            assert "manifest.json" in zf.namelist()
        assert first.read_bytes() == second.read_bytes()

    def test_missing_manifest(self, tmp_path):
        import zipfile

        path = tmp_path / "broken.ckpt"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("whatever", b"data")
        with pytest.raises(htp_io.FormatError, match="manifest"):
            htp_io.load_checkpoint(path)

    @pytest.mark.parametrize(
        "defect, needle",
        [
            ("not_zip", "BadZipFile"),
            ("bad_json", "JSONDecodeError"),
            ("no_tensors", "KeyError: 'tensors'"),
            ("absent_entry", "tensors/0000.htp1"),
            ("truncated_tensor", "truncated header"),
        ],
    )
    def test_malformed_checkpoint_is_format_error(self, tmp_path, defect, needle):
        path = tmp_path / "broken.ckpt"
        manifest = {"format": "HTP1", "tensors": {"a.w": "tensors/0000.htp1"}}
        if defect == "not_zip":
            path.write_bytes(b"not a zip archive")
        else:
            with zipfile.ZipFile(path, "w") as zf:
                if defect == "bad_json":
                    zf.writestr("manifest.json", "{not json")
                elif defect == "no_tensors":
                    zf.writestr("manifest.json", json.dumps({"format": "HTP1"}))
                else:
                    zf.writestr("manifest.json", json.dumps(manifest))
                if defect == "truncated_tensor":
                    zf.writestr("tensors/0000.htp1", b"HTP1\x02\x00\x00\x00\x03")
        with pytest.raises(htp_io.FormatError, match=re.escape(str(path)) + ".*" + re.escape(needle)):
            htp_io.load_checkpoint(path)
