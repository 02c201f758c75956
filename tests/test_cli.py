import dataclasses
import json
import warnings

import numpy as np
import pytest

from sparsewht import cli
from sparsewht.cli import main
from sparsewht.peeling import DecodeReport
from sparsewht.kernels import fwht
from sparsewht.signal_model import NoisyAccess, SparseSpectrum
from sparsewht.sketch import Hypergraph

from helpers import golden_spectrum
from references import densify


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


@pytest.mark.parametrize("samples", [[1.0], [1.0, 2.0, 3.0]])
def test_wht_rejects_a_length_without_index_bits(tmp_path, capsys, samples):
    # one sample would give n = 0, which no spectrum file may hold
    infile = tmp_path / "signal.txt"
    np.savetxt(infile, samples)
    out = tmp_path / "spec.txt"
    assert main(["wht", str(infile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {infile}: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_wht_rejects_a_non_finite_sample(tmp_path, capsys):
    infile = tmp_path / "signal.txt"
    infile.write_text("1\nnan\n0\n0\n")
    out = tmp_path / "spec.txt"
    assert main(["wht", str(infile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {infile}: ") and "not finite" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_wht_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys, tol):
    # a NaN or infinite tolerance would keep no coefficient and write an empty spectrum
    infile = tmp_path / "signal.txt"
    infile.write_text("1\n0\n0\n0\n")
    out = tmp_path / "spec.txt"
    assert main(["wht", str(infile), f"--tol={tol}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --tol must be a finite number >= 0, got {float(tol)}\n"
    assert not out.exists()


@pytest.mark.parametrize("content", ["1 2\n3 4\n5 6\n7 8\n", "1 2\n"])
def test_wht_rejects_more_than_one_value_per_line(tmp_path, capsys, content):
    infile = tmp_path / "signal.txt"
    infile.write_text(content)
    out = tmp_path / "spec.txt"
    assert main(["wht", str(infile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {infile}: expected one sample per line, got 2 values per line\n"
    assert not out.exists()


@pytest.mark.parametrize("content", ["", "\n  \n", "# a comment\n\n"])
def test_wht_refuses_a_file_without_samples(tmp_path, capsys, content):
    infile = tmp_path / "signal.txt"
    infile.write_text(content)
    out = tmp_path / "spec.txt"
    with warnings.catch_warnings():
        # numpy's warning of a file with no data would be a second stderr line
        warnings.simplefilter("error")
        assert main(["wht", str(infile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {infile}: no samples\n"
    assert not out.exists()


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


def test_recover_noise_free_at_n62(tmp_path):
    # a round-off tolerance that grew with sqrt(N) once called every bin a zero-ton here
    spec_path = tmp_path / "truth.txt"
    out = tmp_path / "recovered.txt"
    report = tmp_path / "report.json"
    assert main(["synth", "--n", "62", "--k", "10", "--seed", "3", "--out", str(spec_path)]) == 0
    assert main(["recover", "--spectrum", str(spec_path), "--out", str(out), "--report", str(report)]) == 0
    assert SparseSpectrum.load(out).entries == SparseSpectrum.load(spec_path).entries
    assert json.loads(report.read_text())["stalled"] is False


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


def test_recover_noiseless_under_weak_noise_reports_the_stall(tmp_path):
    # two coefficients whose residual, 4.18, sits under C B (1 + gamma) nu^2:
    # only the noiseless layout's own level, zero_tol^2, flags the empty result
    spec_path = tmp_path / "truth.txt"
    spec_path.write_text("n=12 K=2\n110001101011 -1.0\n111101001011 1.0\n")
    report = tmp_path / "report.json"
    code = main(["recover", "--spectrum", str(spec_path), "--algo", "noiseless", "--snr-db", "3",
                 "--seed", "2", "--out", str(tmp_path / "recovered.txt"), "--report", str(report)])
    assert code == 1
    parsed = json.loads(report.read_text())
    assert parsed["peels"] == 0 and parsed["stalled"] is True


@pytest.mark.parametrize("content, extra", [
    ("n=70 K=1\n", []),
    ("garbage\n", []),
    ("n=12 K=1\n000000000001 one\n", []),
    (None, []),
    ("n=12 K=0\n", ["--snr-db", "10"]),
    ("n=12 K=1\n000000000001 1.0\n", ["--snr-db", "nan"]),
    ("n=4 K=2\n0011 1.0\n0011 -1.0\n0101 2.0\n", []),
])
def test_recover_bad_input_exits_2(tmp_path, capsys, content, extra):
    spec_path = tmp_path / "truth.txt"
    if content is not None:
        spec_path.write_text(content)
    code = main(["recover", "--spectrum", str(spec_path), "--out", str(tmp_path / "r.txt"), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value, extra", [("nan", []), ("inf", ["--snr-db", "10"]), ("-inf", [])])
def test_recover_non_finite_value_exits_2(tmp_path, capsys, value, extra):
    # a NaN or infinite coefficient is refused where the file is read, naming the file and the line
    spec_path = tmp_path / "truth.txt"
    spec_path.write_text(f"n=8 K=2\n00000001 1.0\n00000011 {value}\n")
    out = tmp_path / "r.txt"
    code = main(["recover", "--spectrum", str(spec_path), "--out", str(out), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path} line 3: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_recover_so_below_code_length_exits_2(tmp_path, capsys):
    # SO's code needs n >= 6; the error names the flag, the file and its n
    spec_path = tmp_path / "truth.txt"
    main(["synth", "--n", "5", "--k", "2", "--out", str(spec_path)])
    code = main(["recover", "--spectrum", str(spec_path), "--algo", "so", "--snr-db", "10",
                 "--out", str(tmp_path / "r.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --algo so needs n >= 6, but {spec_path} has n=5\n"


def test_recover_near_linear_refuses_more_than_24_free_bits(tmp_path, capsys, monkeypatch):
    # n = 30, K = 32: b = 5 leaves 25 free bits, and the design refuses them before any read
    spec_path = tmp_path / "truth.txt"
    main(["synth", "--n", "30", "--k", "32", "--seed", "1", "--out", str(spec_path)])
    capsys.readouterr()
    reads = []
    for name in ("take", "take_cosets"):
        monkeypatch.setattr(NoisyAccess, name, lambda self, *args: reads.append(args))
    out = tmp_path / "r.txt"
    assert main(["recover", "--spectrum", str(spec_path), "--algo", "near-linear", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n - b = 25" in err and len(err.splitlines()) == 1
    assert not reads and not out.exists()


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
    # fixed in the library as experiments.SUCCESS_THRESHOLD
    {"success_threshold": 0.95},
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


@pytest.mark.parametrize("budget", ["1", "2", "4"])
def test_sketch_partial_result_exits_1(tmp_path, capsys, budget):
    # three disjoint edges at n = 50 need a budget of 4 + 2 + 8 = 14
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text("n=50\n1 7 20\n3 40\n11 12 13 50\n")
    out = tmp_path / "sketched.txt"
    assert main(["sketch", "--graph", str(graph_path), "--budget", budget, "--out", str(out)]) == 1
    assert "partial: budget exceeded, some bins unresolved" in capsys.readouterr().out.splitlines()
    assert out.exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_sketch_budget_below_one_exits_2(tmp_path, capsys, budget):
    graph_path = tmp_path / "graph.txt"
    Hypergraph.from_edge_lists(12, [{1, 2, 3}, {5, 6}]).save(graph_path)
    code = main(["sketch", "--graph", str(graph_path), "--budget", budget, "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert capsys.readouterr().err == f"error: sparsity budget must be >= 1, got {budget}\n"


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
    # noise-free unless a flag or the config file names an SNR: the
    # noiseless variant recovers every trial, and at 0 dB none
    out = tmp_path / "scaling.csv"
    code = main(["bench", "scaling", "--algo", "noiseless", "--n", "9", "10",
                 "--k", "4", "--trials", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert [line.split(",")[3] for line in lines] == ["success_rate", "1.0", "1.0"]
    assert main(["bench", "scaling", "--algo", "noiseless", "--n", "9", "--k", "4", "--snr-db", "0",
                 "--trials", "2", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[3] == "0.0"


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
