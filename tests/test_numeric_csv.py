"""The sample and wind-matrix CSV reader.

``LossIndexSample.from_csv`` and the ``winds_csv`` of ``dependence-report``
read through ``_numeric_csv``. A parse gives what ``np.genfromtxt``, the
sample reader's earlier parser, gives on a well-formed file; a bad cell or
a ragged row is named by its file line, counted with the header, blank and
comment lines.
"""

import numpy as np
import pytest
import yaml

from basisrisk import cli, contracts
from basisrisk.cli import main
from basisrisk.contracts import LossIndexSample, _numeric_csv, _parse_blocks

ENDINGS = {"lf": "\n", "crlf": "\r\n"}


def _write(tmp_path, lines, ending="\n"):
    path = tmp_path / "data.csv"
    path.write_bytes("".join(line + ending for line in lines).encode())
    return path


GOOD = ["loss,index", "1.5,90.0", "", "# a comment", "0.1, 1e-300",
        "2.2250738585072014e-308,135", " 7 ,-0.0", "1e16,5e-324"]


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_matches_genfromtxt_on_good_files(tmp_path, ending):
    path = _write(tmp_path, GOOD, ENDINGS[ending])
    got = _numeric_csv(path)
    want = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    assert got.shape == want.shape == (5, 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_chars", [16, contracts._CSV_BLOCK_CHARS])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_block_parse_matches_the_whole_file_parse(tmp_path, monkeypatch, ending, block_chars):
    # the slow path joins its parsed blocks into what the fast path gives
    monkeypatch.setattr(contracts, "_CSV_BLOCK_CHARS", block_chars)
    path = _write(tmp_path, GOOD, ENDINGS[ending])
    got, want = _parse_blocks(path), _numeric_csv(path)
    assert got.shape == want.shape == (5, 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("lines,line", [
    (["loss,index", "1.0,90.0", "abc,50.0"], 3),
    (["loss,index", "1.0,90.0", "", "# c", "2.0,abc"], 5),
    (["loss,index", "1.0,90.0", "2.0,"], 3),
    (["loss,index", "1.0,90.0", "   "], 3),
    (["loss,index", "", "1.0,90.0", "2.0,50.0", "", "3.0"], 6),
    (["loss,index", "1.0,90.0", "2.0,50.0,7"], 3),
], ids=["non_numeric", "after_blank_and_comment", "empty_cell", "whitespace_only",
        "short_row", "long_row"])
def test_bad_line_is_named_by_file_line(tmp_path, lines, line, ending):
    path = _write(tmp_path, lines, ENDINGS[ending])
    with pytest.raises(ValueError, match=rf"^line {line}\b"):
        _numeric_csv(path)
    with pytest.raises(ValueError, match=rf"^line {line}\b"):
        LossIndexSample.from_csv(path)


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("lines", [["loss,index"], ["loss,index", "", "# c", ""], []],
                         ids=["header_only", "comments_and_blanks", "empty_file"])
def test_a_body_with_no_rows_is_an_error(tmp_path, lines, ending):
    # raised, not warned about: any warning fails the test
    path = _write(tmp_path, lines, ENDINGS[ending])
    with pytest.raises(ValueError, match="^no data rows below the header line$"):
        _numeric_csv(path)
    with pytest.raises(ValueError, match="^no data rows below the header line$"):
        LossIndexSample.from_csv(path)


def test_ragged_row_names_the_first_row(tmp_path):
    path = _write(tmp_path, ["s0,s1,s2", "# c", "1,2,3", "4,5,6", "7,8"])
    with pytest.raises(ValueError, match="^line 5 has 2 fields; line 3 has 3$"):
        _numeric_csv(path)


def test_simulate_sample_reads_back_bitwise(tmp_path, config_dir):
    cfg = yaml.safe_load((config_dir / "simulate_synthetic.yaml").read_text())
    cfg["wind"]["synthetic"]["n"] = 20000
    for key in ("alpha_sweep", "contract", "utility"):
        del cfg[key]
    text = cli.cmd_simulate(cli._TABLES["simulate"].check(cfg, ""), cfg["seed"])["sample.csv"]
    path = tmp_path / "sample.csv"
    path.write_text(text)
    sample = LossIndexSample.from_csv(path)
    cells = [row.split(",") for row in text.splitlines()[1:]]
    assert len(sample) == len(cells) == 20000
    assert sample.losses.tobytes() == np.array([float(s) for s, _ in cells]).tobytes()
    assert sample.indices.tobytes() == np.array([float(t) for _, t in cells]).tobytes()
    old = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    assert sample.losses.tobytes() == np.ascontiguousarray(old[:, 0]).tobytes()


def test_sample_csv_error_names_line(tmp_path, capsys):
    csv_path = _write(tmp_path, ["loss,index", "1.0,90.0", "", "abc,50.0"])
    cfg = {"seed": 7, "payout_family": "pure",
           "contract": {"t_lo": 83.0, "principle": "expected_value", "rho": 0.2},
           "utility": {"family": "exponential", "beta": 0.15, "w0": 0.0},
           "sample": {"csv": str(csv_path)}}
    (tmp_path / "c.yaml").write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["fit-weighting", "--config", str(tmp_path / "c.yaml"), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"malformed sample file {csv_path}: line 4: " in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ("s0,s1\n90,95\nabc,80\n85,0\n", 3),
    ("s0,s1\n90,95\n\n80\n", 4),
    ("s0,s1\n90,95\n85,0\n\n# c\n1,2,3\n", 6),
], ids=["non_numeric", "short_after_blank", "long_after_comment"])
def test_winds_csv_error_names_file_line(tmp_path, capsys, text, line):
    winds = tmp_path / "winds.csv"
    winds.write_text(text)
    (tmp_path / "c.yaml").write_text(yaml.safe_dump({"seed": 1, "winds_csv": str(winds)}))
    out = tmp_path / "out"
    assert main(["dependence-report", "--config", str(tmp_path / "c.yaml"),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"malformed wind matrix file {winds}: line {line}" in capsys.readouterr().err
