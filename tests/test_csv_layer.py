"""The CSV layer of ``contracts``: one renderer, one block reader, one block parser.

The library writers (``LossIndexSample.to_csv``, ``TrackSet.to_csv`` and
``storm_to_track_csv``) render through ``_csv_text``; each is compared byte
for byte with the row loop it replaced, copied here as its oracle. Both
readers name a bad line as "line N: <reason> in field K", N counting the
header, blank and comment lines and K the line's fields from 1. Once a
whole-file parse has failed, the sample and wind-matrix reader parses the
file a block of lines at a time, and line by line only a block that fails.
"""

import io
import warnings

import numpy as np
import pytest
import yaml

from basisrisk import contracts
from basisrisk.cli import main
from basisrisk.contracts import LossIndexSample, _line_blocks, _numeric_csv, _parse_lines
from basisrisk.dependence import sample_gumbel
from basisrisk.hazard import Track, TrackSet, storm_to_track_csv, storm_wind_convert

_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_TRACK_HEADER = "track_id,step,lat_deg,lon_deg,wind_kn"


# ---------------------------------------------------------------------------
# the row loops the writers replaced, kept as oracles
# ---------------------------------------------------------------------------

def _sample_to_csv_oracle(sample, path):
    with open(path, "w", newline="") as fh:
        fh.write("loss,index\n")
        for s, t in zip(sample.losses, sample.indices):
            fh.write(f"{float(s)!r},{float(t)!r}\n")


def _tracks_to_csv_oracle(tracks, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACK_HEADER + "\n")
        for tr in tracks.tracks:
            for i in range(len(tr)):
                fh.write(f"{tr.track_id},{i},{float(tr.lat_deg[i])!r},"
                         f"{float(tr.lon_deg[i])!r},{float(tr.wind_kn[i])!r}\n")


def _storm_to_track_csv_oracle(storm_path, out_path):
    by_id = {}
    with open(storm_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            parts = [p.strip() for p in line.strip().split(",") if p.strip() != ""]
            year, month, tc, step = parts[0], parts[1], parts[2], parts[3]
            lat, lon, wind_ms = float(parts[5]), float(parts[6]), float(parts[8])
            by_id.setdefault(f"{year}-{month}-{tc}", []).append(
                (int(float(step)), lat, lon, storm_wind_convert(wind_ms)))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACK_HEADER + "\n")
        for tid, rows in by_id.items():
            for step, lat, lon, wind in sorted(rows):
                fh.write(f"{tid},{step},{lat!r},{lon!r},{wind!r}\n")


def _assert_same_file(tmp_path, write, oracle, obj):
    write(tmp_path / "got.csv")
    oracle(obj, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestWriters:
    @pytest.mark.parametrize("n", [1, 7, 20000])
    def test_sample_writer_matches_row_loop(self, tmp_path, n):
        g = np.random.default_rng(n)
        special = [-0.0, 0.0, _SUBNORMAL, 3 * _SUBNORMAL, np.finfo(np.float64).tiny / 3,
                   1e16, 1e-5, 0.1, 1 / 3, 123456789.0, 1e15 + 0.3, 2.5e300]
        losses = np.resize(special, n) if n < 20000 else g.uniform(0.0, 100.0, n)
        indices = np.resize(special[::-1], n) * np.resize([1.0, -1.0], n)
        if n == 20000:
            losses[:len(special)] = special
        sample = LossIndexSample(losses, indices)
        _assert_same_file(tmp_path, sample.to_csv, _sample_to_csv_oracle, sample)

    @staticmethod
    def _tracks(kind):
        if kind == "empty":
            return TrackSet([])
        if kind == "one_point":
            return TrackSet([Track(f"t{i}", [float(i)], [-float(i)], [50.0 + i])
                             for i in range(5)])
        if kind == "special":
            return TrackSet([
                Track("a", [-0.0, _SUBNORMAL, 90.0], [0.0, -0.0, -180.0],
                      [1e16, _SUBNORMAL, 0.0]),
                Track("b with spaces", [1 / 3], [1e-5], [-0.0]),
            ])
        g = np.random.default_rng(3)
        tracks = []
        for t in range(300):
            n = 1 if t % 9 == 0 else int(g.integers(2, 40))
            tid = f"T{t}" if t % 7 else f"storm-{t}-" + "x" * 120
            tracks.append(Track(tid, g.uniform(-90.0, 90.0, n), g.uniform(-180.0, 180.0, n),
                                g.uniform(0.0, 150.0, n)))
        return TrackSet(tracks)

    @pytest.mark.parametrize("kind", ["empty", "one_point", "special", "random"])
    def test_track_writer_matches_row_loop(self, tmp_path, kind):
        tracks = self._tracks(kind)
        _assert_same_file(tmp_path, tracks.to_csv, _tracks_to_csv_oracle, tracks)

    def test_track_writer_matches_row_loop_on_a_read_set(self, tmp_path):
        # tracks interleaved row by row in the file are grouped in the set
        path = tmp_path / "in.csv"
        path.write_text(_TRACK_HEADER + "\nb,3,1.5,2.5,60\na,0,1,1,-0.0\n\nb,7,2,3,1e16\n"
                        " c ,1,0.1,0.2,5e-324\na,1,1,2,30\n")
        tracks = TrackSet.from_csv(path)
        _assert_same_file(tmp_path, tracks.to_csv, _tracks_to_csv_oracle, tracks)
        assert (tmp_path / "got.csv").read_text().splitlines()[1:] == [
            "b,0,1.5,2.5,60.0", "b,1,2.0,3.0,1e+16", "a,0,1.0,1.0,-0.0", "a,1,1.0,2.0,30.0",
            "c ,0,0.1,0.2,5e-324"]

    STORM = ("1980,6,2,3,NA,20.0,-65.0,1000.0,18.0,1,0\n"
             "\n"
             "1980,6,1,1,NA,18.5,-61.0,985.0,30.0,1,0\n"
             " 1980 , 6 , 1 , 0 , NA , 18.0 , -60.0 , 990.0 , 22.0 , 1 , 0 \n"
             "1980,6,2,0.0,NA,-0.0,1e-5,1000.0,5e-324,1,0,7,8\n"
             "   \n"
             "1981,1,1,0,NA,10.1,120.0,970.0,44.0\n"
             "1980,6,1,2,NA,19.0,-62.0,980.0,0.0,1,0\n")

    @pytest.mark.parametrize("text", [STORM, "", "\n  \n"], ids=["storm", "empty", "blank"])
    def test_storm_writer_matches_row_loop(self, tmp_path, text):
        storm = tmp_path / "storm.txt"
        storm.write_text(text)
        storm_to_track_csv(storm, tmp_path / "got.csv")
        _storm_to_track_csv_oracle(storm, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\n") == 1 + 6 * (text == self.STORM)


# ---------------------------------------------------------------------------
# the block reader and the block parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 5, 12, 1000])
def test_line_blocks_number_every_line(size):
    text = "a,1\n\nbb,22\r\n# c\nccc,333\nlast"
    blocks = list(_line_blocks(io.StringIO(text, newline=""), size))
    assert "".join(line for lines, _ in blocks for line in lines) == text
    numbers = [n for lines, ns in blocks for n in ns]
    assert numbers == list(range(2, 8))
    assert all(len(lines) == len(ns) for lines, ns in blocks)
    assert (len(blocks) > 1) == (size < len(text))


def test_locator_names_the_first_line_that_fails_alone():
    lines = ["1,2\n", "3,x\n", "y,4\n"]
    with pytest.raises(ValueError,
                       match=r"^line 11: could not convert string 'x' to float64 in field 2$"):
        _parse_lines(lines, [10, 11, 12], delimiter=",", ndmin=2)
    assert _parse_lines(lines[:1], [10], delimiter=",", ndmin=2).tolist() == [[1.0, 2.0]]


def test_a_block_that_fails_whole_is_joined_line_by_line(tmp_path, monkeypatch):
    # should a block fail whole although each of its lines parses alone, both
    # readers parse it a line at a time and join the rows in file order
    sample = _write(tmp_path, ["loss,index", "1.5,90.0", "", "# c", "0.1,1e-300", " 7 ,-0.0"],
                    "sample.csv")
    tracks = _write(tmp_path, [_TRACK_HEADER, "a,0,1.0,2.0,3.0", "b,0,4.0,5.0,6.0",
                               "a,1,7.0,8.0,9.0"], "tracks.csv")
    want_sample, want_tracks = _numeric_csv(sample), TrackSet.from_csv(tracks)
    seen, loadtxt = [], np.loadtxt

    def one_line_only(fname, *args, **kwargs):
        if not (isinstance(fname, list) and len(fname) == 1):
            raise ValueError("a whole block fails")
        seen.append(fname[0])
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", one_line_only)
    got = _numeric_csv(sample)
    assert got.shape == want_sample.shape == (3, 2)
    assert got.tobytes() == want_sample.tobytes()
    got = TrackSet.from_csv(tracks)
    assert got._ids == want_tracks._ids == ["a", "b"]
    for name in ("_offsets", "_lat", "_lon", "_wind"):
        assert getattr(got, name).tobytes() == getattr(want_tracks, name).tobytes()
    assert len(seen) == 6


def _write(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("reader,lines,line,field", [
    (TrackSet.from_csv, [_TRACK_HEADER, "a,0,1,1,1", "a,1,1.0,2.0,abc"], 3, 5),
    (TrackSet.from_csv, [_TRACK_HEADER, "a,0,1,1,1", "", "a,1,abc,2.0,3.0"], 4, 3),
    (TrackSet.from_csv, [_TRACK_HEADER, "a,0,1,1,1", "a,1.5,1.0,2.0,3.0"], 3, 2),
    (LossIndexSample.from_csv, ["loss,index", "1.0,90.0", "abc,50.0"], 3, 1),
    (LossIndexSample.from_csv, ["loss,index", "# c", "", "1.0,90.0", "2.0,abc"], 5, 2),
    (LossIndexSample.from_csv, ["loss,index", "1.0,90.0", "2.0,"], 3, 2),
], ids=["track_wind", "track_lat_after_blank", "track_step", "sample_loss",
        "sample_index_after_comment", "sample_empty_cell"])
def test_error_names_field_not_row(tmp_path, reader, lines, line, field):
    with pytest.raises(ValueError) as info:
        reader(_write(tmp_path, lines))
    message = str(info.value)
    assert message.startswith(f"line {line}: could not convert string ")
    assert message.endswith(f" in field {field}") and "row 0" not in message


def test_wind_error_names_field_not_row(tmp_path, capsys):
    winds = _write(tmp_path, ["s0,s1,s2", "90,95,1", "85,0,abc"], "winds.csv")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"seed": 1, "winds_csv": str(winds)}))
    assert main(["dependence-report", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert (f"malformed wind matrix file {winds}: line 3: could not convert string 'abc' "
            "to float64 in field 3\n") in err
    assert "row 0" not in err


def _count_one_line_parses(monkeypatch, block_chars):
    """Set the block size; the returned list collects each one-line loadtxt call."""
    monkeypatch.setattr(contracts, "_CSV_BLOCK_CHARS", block_chars)
    seen, loadtxt = [], np.loadtxt

    def counted(fname, *args, **kwargs):
        if isinstance(fname, list) and len(fname) == 1:
            seen.append(fname[0])
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return seen


def _block_lines(path, block_chars):
    with open(path) as fh:
        fh.readline()
        return [len(lines) for lines, _ in _line_blocks(fh, block_chars)]


@pytest.mark.parametrize("bad,match", [
    ("abc,1.0", "^line 2002: could not convert string 'abc' to float64 in field 1$"),
    ("1.0,2.0,3.0", "^line 2002 has 3 fields; line 2 has 2$"),
    ("4.0", "^line 2002 has 1 fields; line 2 has 2$"),
], ids=["bad_cell", "long_row", "short_row"])
@pytest.mark.parametrize("where", ["last", "middle"])
def test_bad_line_search_parses_one_block_line_by_line(tmp_path, monkeypatch, bad, match,
                                                        where):
    rows = [f"{i}.5,{i}" for i in range(2000)]
    tail = [] if where == "last" else rows[:500]
    path = _write(tmp_path, ["loss,index", *rows, bad, *tail])
    blocks = _block_lines(path, 200)
    seen = _count_one_line_parses(monkeypatch, 200)
    with pytest.raises(ValueError, match=match):
        _numeric_csv(path)
    assert len(blocks) > 100 and min(blocks[:-1]) > 1
    assert 1 <= len(seen) <= max(blocks)
    assert seen[-1].strip() == bad


def test_ragged_row_names_first_row_of_an_earlier_block(tmp_path, monkeypatch):
    path = _write(tmp_path, ["s0,s1,s2", "# a comment", "", *["1,2,3"] * 300, "7,8"])
    blocks = _block_lines(path, 64)
    seen = _count_one_line_parses(monkeypatch, 64)
    with pytest.raises(ValueError, match="^line 304 has 2 fields; line 4 has 3$"):
        _numeric_csv(path)
    assert len(blocks) > 10 and len(seen) <= max(blocks)


@pytest.mark.parametrize("lines,match", [
    (["a,b", "1,2", "3", "x,4"], "^line 3 has 1 fields; line 2 has 2$"),
    (["a,b", "1,2", "x,4", "3"], "^line 3: could not convert string 'x'"),
], ids=["row_width_first", "bad_cell_first"])
def test_first_fault_in_file_order_within_a_block(tmp_path, lines, match):
    with pytest.raises(ValueError, match=match):
        _numeric_csv(_write(tmp_path, lines))


def test_blocks_of_comments_and_blanks_are_skipped(tmp_path, monkeypatch):
    # lines 2-81 and 83-162 are comments and blank lines, in blocks of their own
    path = _write(tmp_path, ["a,b", *["# note", ""] * 40, "1,2", *["#", ""] * 40, "3,4,5"])
    monkeypatch.setattr(contracts, "_CSV_BLOCK_CHARS", 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a block with no data
        with pytest.raises(ValueError, match="^line 163 has 3 fields; line 82 has 2$"):
            _numeric_csv(path)


# ---------------------------------------------------------------------------
# one seeded-stream rule
# ---------------------------------------------------------------------------

def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40])
def test_rng_without_spawn_key_is_the_seed_sequence_stream(seed):
    assert contracts._rng(seed).random(64).tobytes() == _philox(seed).random(64).tobytes()


def test_gumbel_draws_are_unchanged():
    """sample_gumbel against the generator it built inline."""
    pairs = sample_gumbel(2.0, 200, seed=11)
    rng = _philox(11)
    alpha, m = 0.5, 200
    theta = rng.uniform(0.0, np.pi, size=m)
    w = rng.exponential(1.0, size=m)
    v = (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
         * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
    e1, e2 = rng.exponential(1.0, size=m), rng.exponential(1.0, size=m)
    assert pairs.x.tobytes() == np.exp(-((e1 / v) ** alpha)).tobytes()
    assert pairs.y.tobytes() == np.exp(-((e2 / v) ** alpha)).tobytes()
