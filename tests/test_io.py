import json

import numpy as np
import pytest

from envelofit.core import InputError, Signal
from envelofit.io import read_signal_csv, write_json, write_signal_csv


class TestSignalCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = Signal(rng.normal(size=50), 10.0, t0=1.5)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, sig)
        back = read_signal_csv(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.sample_rate_hz == pytest.approx(10.0, rel=1e-9)
        assert back.t0 == 1.5

    def test_rewrite_is_byte_identical(self, tmp_path):
        # dyadic rate: the inferred 1/median(dt) reproduces it exactly
        sig = Signal(np.random.default_rng(1).normal(size=30), 8.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_signal_csv(p1, sig)
        write_signal_csv(p2, read_signal_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        path = tmp_path / "s.csv"
        write_signal_csv(path, Signal([1.0], 1.0))
        assert path.read_text().splitlines()[0] == "t,value"


class TestReadSignalCsvErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="nope.csv"):
            read_signal_csv(tmp_path / "nope.csv")

    def test_wrong_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,value,extra\n0.0,1.0,2.0\n")
        with pytest.raises(InputError):
            read_signal_csv(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,value\n0.0,abc\n0.1,1.0\n")
        with pytest.raises(InputError):
            read_signal_csv(p)

    def test_non_uniform_time(self, tmp_path):
        p = tmp_path / "jit.csv"
        p.write_text("t,value\n0.0,1.0\n0.1,1.0\n0.35,1.0\n")
        with pytest.raises(InputError, match="non-uniform"):
            read_signal_csv(p)

    def test_decreasing_time(self, tmp_path):
        p = tmp_path / "dec.csv"
        p.write_text("t,value\n0.2,1.0\n0.1,1.0\n0.0,1.0\n")
        with pytest.raises(InputError):
            read_signal_csv(p)

    def test_fs_override_skips_jitter_check(self, tmp_path):
        p = tmp_path / "jit.csv"
        p.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
        sig = read_signal_csv(p, fs_override=10.0)
        assert sig.sample_rate_hz == 10.0
        np.testing.assert_array_equal(sig.samples, [1.0, 2.0, 3.0])


class TestJson:
    def test_round_trip(self, tmp_path):
        obj = {"b": [1, 2, 3], "a": {"x": 1.5, "y": None}}
        p = tmp_path / "o.json"
        write_json(p, obj)
        assert json.loads(p.read_text()) == obj
