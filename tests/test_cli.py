import dataclasses
import json

import numpy as np
import pytest

from sparsewht import cli
from sparsewht.cli import main
from sparsewht.peeling import DecodeReport
from sparsewht.fwht import densify, fwht
from sparsewht.signal_model import SparseSpectrum
from sparsewht.sketch import Hypergraph

from helpers import golden_spectrum


def test_synth_writes_spectrum(tmp_path, capsys):
    out = tmp_path / "spec.txt"
    assert main(["synth", "--n", "10", "--k", "7", "--seed", "3", "--out", str(out)]) == 0
    spec = SparseSpectrum.load(out)
    assert spec.n == 10 and spec.sparsity == 7


def test_wht_command(tmp_path):
    signal = fwht(densify(golden_spectrum()))  # samples of the worked instance
    infile = tmp_path / "signal.txt"
    np.savetxt(infile, signal)
    out = tmp_path / "spec.txt"
    assert main(["wht", str(infile), "--out", str(out)]) == 0
    assert SparseSpectrum.load(out).entries == pytest.approx(golden_spectrum().entries)


def test_recover_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "truth.txt"
    out = tmp_path / "recovered.txt"
    report = tmp_path / "report.json"
    assert main(["synth", "--n", "12", "--k", "8", "--seed", "2", "--out", str(spec_path)]) == 0
    code = main(["recover", "--spectrum", str(spec_path), "--out", str(out),
                 "--report", str(report), "--seed", "1"])
    assert code == 0
    truth = SparseSpectrum.load(spec_path)
    got = SparseSpectrum.load(out)
    assert got.entries == truth.entries
    parsed = json.loads(report.read_text())
    assert parsed["stalled"] is False


def test_recover_report_carries_every_field(tmp_path, monkeypatch):
    # the --report file holds exactly the DecodeReport that recover returned
    reports = []
    original = cli.recover

    def recover_and_keep(*args, **kwargs):
        result = original(*args, **kwargs)
        reports.append(result[1])
        return result

    monkeypatch.setattr(cli, "recover", recover_and_keep)
    spec_path = tmp_path / "truth.txt"
    report = tmp_path / "report.json"
    main(["synth", "--n", "12", "--k", "8", "--seed", "2", "--out", str(spec_path)])
    main(["recover", "--spectrum", str(spec_path), "--snr-db", "10", "--algo", "nso", "--seed", "1",
          "--out", str(tmp_path / "recovered.txt"), "--report", str(report)])
    parsed = json.loads(report.read_text())
    assert list(parsed) == [f.name for f in dataclasses.fields(DecodeReport)]
    assert len(reports) == 1 and parsed == dataclasses.asdict(reports[0])
    assert parsed["residual_energy"] > 0 and parsed["samples_used"] > 0

def test_recover_noisy_nso(tmp_path):
    spec_path = tmp_path / "truth.txt"
    out = tmp_path / "recovered.txt"
    main(["synth", "--n", "12", "--k", "6", "--seed", "4", "--out", str(spec_path)])
    code = main(["recover", "--spectrum", str(spec_path), "--snr-db", "15",
                 "--algo", "nso", "--seed", "8", "--out", str(out)])
    assert code == 0
    assert SparseSpectrum.load(out).support() == SparseSpectrum.load(spec_path).support()


def test_recover_continuous_spectrum(tmp_path, capsys):
    # values not all of one magnitude are decoded as continuous, not as +/-rho
    spec_path = tmp_path / "truth.txt"
    out = tmp_path / "recovered.txt"
    main(["synth", "--n", "12", "--k", "8", "--seed", "1", "--continuous", "--out", str(spec_path)])
    code = main(["recover", "--spectrum", str(spec_path), "--snr-db", "20",
                 "--algo", "nso", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "recovered 8/8" in capsys.readouterr().out
    assert SparseSpectrum.load(out).support() == SparseSpectrum.load(spec_path).support()


def test_recover_failure_exits_1(tmp_path):
    # the noiseless detector under noise finds nothing and stalls
    spec_path = tmp_path / "truth.txt"
    out = tmp_path / "recovered.txt"
    report = tmp_path / "report.json"
    main(["synth", "--n", "12", "--k", "8", "--seed", "2", "--out", str(spec_path)])
    code = main(["recover", "--spectrum", str(spec_path), "--algo", "noiseless", "--snr-db", "10",
                 "--seed", "1", "--out", str(out), "--report", str(report)])
    assert code == 1
    assert json.loads(report.read_text())["stalled"] is True


@pytest.mark.parametrize("content, extra", [
    ("n=70 K=1\n", []),
    ("garbage\n", []),
    ("n=12 K=1\n000000000001 one\n", []),
    (None, []),
    ("n=12 K=0\n", ["--snr-db", "10"]),
])
def test_recover_bad_input_exits_2(tmp_path, capsys, content, extra):
    spec_path = tmp_path / "truth.txt"
    if content is not None:
        spec_path.write_text(content)
    code = main(["recover", "--spectrum", str(spec_path), "--out", str(tmp_path / "r.txt"), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_recover_so_below_code_length_exits_2(tmp_path, capsys):
    # SO's code needs n >= 6; the error names the flag, the file and its n
    spec_path = tmp_path / "truth.txt"
    main(["synth", "--n", "5", "--k", "2", "--out", str(spec_path)])
    code = main(["recover", "--spectrum", str(spec_path), "--algo", "so", "--snr-db", "10",
                 "--out", str(tmp_path / "r.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --algo so needs n >= 6, but {spec_path} has n=5\n"


def test_de_table_command(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["de-table", "--cs", "2", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "C,eta_min,C_eta_min"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert abs(float(rows["2"].split(",")[0]) - 1.0) < 1e-3
    assert abs(float(rows["3"].split(",")[0]) - 0.4073) < 1e-3


def test_bench_snr_command_and_config(tmp_path):
    cfg = {"algorithm": "noiseless", "n_values": [9], "k_values": [4],
           "snr_db_values": None, "trials": 2, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    assert main(["bench", "snr", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("n,K,snr_db")


def test_bench_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algorithm": "wat"}))
    out = tmp_path / "rows.csv"
    assert main(["bench", "snr", "--config", str(cfg_path), "--out", str(out)]) == 2


def test_bench_config_not_an_object_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([1, 2]))
    assert main(["bench", "snr", "--config", str(cfg_path), "--trials", "1", "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("cfg", [
    {"decode_rounds": -1}, {"p1": 0}, {"gamma": -1.0}, {"p2": 12}, {"p3": 24},
    # fixed or derived in the library, not settings
    {"profile": "theory"}, {"rho": 2.0},
    # values of the wrong type
    {"p1": "7"}, {"decode_rounds": 1.5}, {"trials": 2.5}, {"workers": "2"}, {"snr_db_values": ["x"]},
    {"n_values": 12}, {"snr_db_values": [float("nan")]}, {"trials": True},
    # SO's rate-1/2 code needs n >= codes.MIN_INFO_BITS
    {"n_values": [5]},
])
def test_bench_bad_setting_exits_2(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algorithm": "so", "n_values": [12], "k_values": [10], "trials": 1, **cfg}))
    out = tmp_path / "rows.csv"
    assert main(["bench", "snr", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert next(iter(cfg)) in err
    assert not out.exists()


def test_sketch_command(tmp_path, capsys):
    h = Hypergraph.from_edge_lists(12, [{1, 2, 3}, {5, 6}])
    graph_path = tmp_path / "graph.txt"
    h.save(graph_path)
    out = tmp_path / "sketched.txt"
    assert main(["sketch", "--graph", str(graph_path), "--seed", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "queries:" in printed
    assert "edge: 1 2 3" in printed and "edge: 5 6" in printed


@pytest.mark.parametrize("content, line", [
    ("garbage\n", 1),
    ("n=x\n", 1),
    ("n=5\n1 2\n1 two\n", 3),
    ("n=5\n1 9\n", 2),
])
def test_sketch_bad_graph_exits_2(tmp_path, capsys, content, line):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(content)
    code = main(["sketch", "--graph", str(graph_path), "--out", str(tmp_path / "o.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{graph_path} line {line}:" in err


def test_scaling_command(tmp_path):
    out = tmp_path / "scaling.csv"
    code = main(["bench", "scaling", "--algo", "noiseless", "--n", "9", "10",
                 "--k", "4", "--trials", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("flags, cfg, ns", [
    (["--n", "12"], None, [12]),
    ([], {"n_values": [9]}, [9]),
    ([], None, list(range(7, 18))),
])
def test_scaling_runs_the_requested_n(tmp_path, flags, cfg, ns):
    # 7..17 only when neither a flag nor the config file names n
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        flags = [*flags, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "scaling.csv"
    assert main(["bench", "scaling", "--algo", "noiseless", "--k", "4", "--trials", "1",
                 "--out", str(out), *flags]) == 0
    assert [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]] == ns


def test_scaling_rejects_several_snrs(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    code = main(["bench", "scaling", "--algo", "noiseless", "--n", "9", "--k", "4", "--snr-db", "0", "30",
                 "--trials", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: snr_db_values") and len(err.splitlines()) == 1
    assert not out.exists()
