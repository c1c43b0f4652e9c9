"""Binary tensor format, pose CSVs, and checkpoint containers."""

import json
import re
import zipfile

import numpy as np
import pytest

from htp import io as htp_io
from htp.core import RngStream


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


class TestPoseCsv:
    @pytest.mark.parametrize("width", [2, 3])
    def test_roundtrip_bitwise(self, tmp_path, width):
        pose = RngStream(2).normal((4, 6, width)) * 1234.56789
        path = tmp_path / "pose.csv"
        htp_io.write_pose_csv(path, pose)
        back = htp_io.read_pose_csv(path)
        assert back.shape == pose.shape
        assert np.array_equal(back, pose)

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
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text(f"frame,joint,u,v\n0,0,1.0,2.0\n{bad_row}\n")
        with pytest.raises(htp_io.FormatError, match=re.escape(f"{path}: line 3: ")):
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
