import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_audit import image_io, metrics
from cipher_audit.cipher import DimensionError


class TestReadWritePgm:
    def test_all_zero_roundtrip(self, tmp_path):
        path = tmp_path / "zero.pgm"
        image = np.zeros((4, 4), dtype=np.uint8)
        image_io.write_pgm(image, path)
        back = image_io.read_pgm(path)
        assert back.shape == (4, 4)
        assert np.array_equal(back, image)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_random_roundtrip(self, seed):
        import tempfile, os
        rng = np.random.default_rng(seed)
        m = int(rng.choice([4, 8, 16]))
        image = rng.integers(0, 256, (m, m), dtype=np.uint8)
        fd, path = tempfile.mkstemp(suffix=".pgm")
        os.close(fd)
        try:
            image_io.write_pgm(image, path)
            assert np.array_equal(image_io.read_pgm(path), image)
        finally:
            os.unlink(path)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.pgm"
        image_io.write_pgm(np.zeros((4, 4), dtype=np.uint8), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        assert len(data) == len(b"P5\n4 4\n255\n") + 16

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n4 # inline\n4\n255\n" + bytes(16))
        image = image_io.read_pgm(path)
        assert image.shape == (4, 4)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.pgm"
        path.write_bytes(b"P5\n4 8\n255\n" + bytes(32))
        with pytest.raises(DimensionError, match="square"):
            image_io.read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
        with pytest.raises(image_io.UnsupportedDepthError):
            image_io.read_pgm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + b"0 " * 16)
        with pytest.raises(image_io.PgmParseError):
            image_io.read_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(image_io.PgmParseError, match="payload"):
            image_io.read_pgm(path)

    def test_non_numeric_header_rejected(self, tmp_path):
        # only ASCII decimal fields: int() would read the underscore and sign
        # forms as 16, 4 and 255, and a "P5x" magic number as P5; a field of
        # 5000 digits would stop int() at its 4300-digit limit
        headers = [b"P5\nfour 4\n255\n", b"P5\n1_6 1_6\n255\n", b"P5\n+4 +4\n255\n",
                   b"P5\n-4 -4\n255\n", b"P5x\n4 4\n255\n", b"P5\n4 4\n2_55\n",
                   b"P5\n4 4\n255", b"P5\n4 4 # no end of line", b"P5 4 4\n",
                   b"P5 " + b"9" * 5000 + b" 4 255\n"]
        for i, header in enumerate(headers):
            path = tmp_path / f"junk{i}.pgm"
            path.write_bytes(header + bytes(16))
            with pytest.raises(image_io.PgmParseError, match=f"^{re.escape(str(path))}: [^\n]*$"):
                image_io.read_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5\t4\t4\t255\t",
        b"P5\r\n4\r4\r\n255\r",
        b"P5#c\n4 4\n255\n",
        b"P5 # one\n# two\n\n 4\n#\n4 255\n",
    ], ids=["tabs", "carriage-returns", "comment-after-magic", "comment-lines"])
    def test_header_separators_read(self, tmp_path, header):
        image = np.arange(16, dtype=np.uint8).reshape(4, 4)
        path = tmp_path / "ok.pgm"
        # the one whitespace byte after maxval ends the header; the raster's
        # first byte is 0x0a (LF) and bytes after the raster are ignored
        image[0, 0] = 10
        path.write_bytes(header + image.tobytes() + b"trailing")
        assert np.array_equal(image_io.read_pgm(path), image)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="cannot read"):
            image_io.read_pgm(tmp_path / "nope.pgm")

    PADDING = 20 << 20

    def test_bytes_after_the_raster_are_never_read(self, tmp_path, monkeypatch):
        # a 16x16 PGM followed by 20 MiB: an endless input such as a device
        # must load no more than its header and raster.  Every read goes
        # through an opener that counts the bytes it returns.
        header = b"P5\n# made by hand\n16 16\n255\n"
        image = np.arange(256, dtype=np.uint8).reshape(16, 16)
        path = tmp_path / "padded.pgm"
        path.write_bytes(header + image.tobytes() + bytes(self.PADDING))
        returned = []
        monkeypatch.setattr(image_io, "open", lambda *args: _Counting(open(*args), returned), raising=False)
        tracemalloc.start()
        try:
            back = image_io.read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, image)
        assert sum(returned) == len(header) + image.size
        assert peak < 1 << 20

    def test_endless_comment_is_read_a_chunk_at_a_time(self, tmp_path):
        # a comment with no end of line fails once the input ends, holding
        # one chunk of it at a time
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5 4 #" + b"c" * self.PADDING)
        tracemalloc.start()
        try:
            with pytest.raises(image_io.PgmParseError, match="not a binary PGM header"):
                image_io.read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("side, message", [
        (15, "side lengths must be multiples of 4 and >= 4, got 15"),
        (32768, "side lengths must be at most 32764, got 32768"),
    ])
    def test_side_checked_before_the_raster(self, tmp_path, monkeypatch, side, message):
        # a header's side is checked before M*M bytes are asked for: a lying
        # header cannot make the reader allocate for a raster of any size
        header = f"P5 {side} {side} 255\n".encode()
        path = tmp_path / "side.pgm"
        path.write_bytes(header + bytes(64))
        returned = []
        monkeypatch.setattr(image_io, "open", lambda *args: _Counting(open(*args), returned), raising=False)
        with pytest.raises(DimensionError, match=f"^{message}$"):
            image_io.read_pgm(path)
        assert sum(returned) == len(header)


class _Counting:
    """A file opened for reading that appends the length of what each read
    returns to a list."""

    def __init__(self, fh, returned):
        self.fh, self.returned = fh, returned

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self, n=-1):
        data = self.fh.read(n)
        self.returned.append(len(data))
        return data

    def readline(self, limit=-1):
        data = self.fh.readline(limit)
        self.returned.append(len(data))
        return data


class TestRawBlobs:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        path = tmp_path / "c.bin"
        image_io.write_raw(image, path)
        assert path.stat().st_size == 64
        assert np.array_equal(image_io.read_raw(path, 8), image)

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(bytes(63))
        with pytest.raises(DimensionError, match="expected 64"):
            image_io.read_raw(path, 8)

    @pytest.mark.parametrize("size", [8 * 8 + 1, 10 * 8 * 8], ids=["one-more", "ten-times"])
    def test_long_blob_rejected_after_one_byte_more(self, tmp_path, monkeypatch, size):
        # an endless input such as /dev/zero must fail without being read to
        # its end: every read goes through an opener that counts its bytes
        path = tmp_path / "c.bin"
        path.write_bytes(bytes(size))
        returned = []

        class Counting:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, n=-1):
                data = self.fh.read(n)
                returned.append(len(data))
                return data

        monkeypatch.setattr(image_io, "open", lambda *args: Counting(open(*args)), raising=False)
        with pytest.raises(DimensionError, match="^.*c.bin: blob has more than 64 bytes, expected 64 for M=8$"):
            image_io.read_raw(path, 8)
        assert sum(returned) == 65


class TestMakeTestImage:
    def test_all_zero(self):
        image = image_io.make_test_image("all-zero", 16)
        assert image.shape == (16, 16)
        assert not image.any()

    def test_single_lsb(self):
        image = image_io.make_test_image("single-lsb", 16, x=3, y=5)
        assert image[3, 5] == 1
        assert image.sum() == 1

    def test_single_lsb_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            image_io.make_test_image("single-lsb", 16, x=16, y=0)

    def test_uniform_random_is_uniform(self):
        image = image_io.make_test_image("uniform-random", 64, seed=7)
        chi2 = metrics.chi_square(metrics.byte_histogram(image))
        assert chi2 <= metrics.CHI2_THRESHOLD

    def test_uniform_random_deterministic(self):
        first = image_io.make_test_image("uniform-random", 16, seed=3)
        again = image_io.make_test_image("uniform-random", 16, seed=3)
        assert np.array_equal(first, again)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            image_io.make_test_image("noise", 16)

    def test_invalid_size_rejected(self):
        with pytest.raises(DimensionError):
            image_io.make_test_image("all-zero", 15)


class TestPortrait:
    def test_moments_match_reference_photo(self, portrait_256):
        # the error-propagation PSNR window depends on these two moments
        assert 118.0 <= float(portrait_256.mean()) <= 130.0
        assert 43.0 <= float(portrait_256.std()) <= 53.0

    def test_deterministic(self):
        assert np.array_equal(image_io.make_portrait_image(64), image_io.make_portrait_image(64))

    def test_has_structure(self, portrait_256):
        # smooth natural-like content: strong adjacent-pixel correlation
        a = portrait_256[:, :-1].astype(np.float64).ravel()
        b = portrait_256[:, 1:].astype(np.float64).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8

    def test_pgm_roundtrip(self, tmp_path, portrait_256):
        path = tmp_path / "portrait.pgm"
        image_io.write_pgm(portrait_256, path)
        assert np.array_equal(image_io.read_pgm(path), portrait_256)
