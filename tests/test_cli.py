import json

import numpy as np
import pytest

from labelsel.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_files(tmp_path):
    emb = tmp_path / "x.fvecs"
    lab = tmp_path / "y.txt"
    code = run(
        [
            "synth", "--modes", 10, "--per-mode", 100, "--dim", 2, "--sigma", 0.3,
            "--seed", 0, "--out-embeddings", emb, "--out-labels", lab,
        ]
    )
    assert code == 0
    return emb, lab


class TestSynth:
    def test_writes_files(self, synth_files):
        emb, lab = synth_files
        assert emb.exists()
        assert len(lab.read_text().splitlines()) == 1000

    def test_csv_output(self, tmp_path):
        emb = tmp_path / "x.csv"
        lab = tmp_path / "y.txt"
        assert run(
            ["synth", "--modes", 2, "--per-mode", 5, "--out-embeddings", emb,
             "--out-labels", lab]
        ) == 0
        assert len(emb.read_text().splitlines()) == 10


class TestSelect:
    def test_usl_small_profile_echoes_table_defaults(self, synth_files, tmp_path):
        emb, _ = synth_files
        out = tmp_path / "s.txt"
        rep = tmp_path / "r.json"
        code = run(
            ["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--profile", "small", "--seed", 1, "--out", out, "--report", rep]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 10
        payload = json.loads(rep.read_text())
        assert payload["params"]["k"] == 400
        assert payload["params"]["reg_alpha"] == 0.5
        assert payload["params"]["reg_lambda"] == 0.5
        assert payload["params"]["momentum"] == 0.9
        assert payload["params"]["iterations"] == 10
        assert payload["config"]["profile"] == "small"
        assert len(payload["history"]) == 11

    def test_report_records_knn_fallback_rows(self, synth_files, tmp_path):
        emb, _ = synth_files
        rep = tmp_path / "r.json"
        for method in ("usl", "uslt"):
            assert run(
                ["select", "--method", method, "--embeddings", emb, "--budget", 10,
                 "--seed", 1, "--out", tmp_path / "s.txt", "--report", rep]
            ) == 0
            assert json.loads(rep.read_text())["trace"]["knn_fallback_rows"] == 0

    def test_uslt_report_records_reseeds(self, synth_files, tmp_path):
        emb, _ = synth_files
        rep = tmp_path / "r.json"
        assert run(
            ["select", "--method", "uslt", "--embeddings", emb, "--budget", 10,
             "--iters", 60, "--seed", 1, "--out", tmp_path / "s.txt", "--report", rep]
        ) == 0
        reseeds = json.loads(rep.read_text())["trace"]["reseeds"]
        assert isinstance(reseeds, int) and reseeds >= 0

    def test_budget_zero_usage_error(self, synth_files, tmp_path):
        emb, _ = synth_files
        assert run(
            ["select", "--method", "usl", "--embeddings", emb, "--budget", 0,
             "--out", tmp_path / "s.txt"]
        ) == 1

    @pytest.mark.parametrize("method", ["usl", "uslt"])
    def test_profile_k_not_below_n_usage_error(self, tmp_path, monkeypatch, capsys, method):
        # 300 rows: the small USL profile's k = 400, and --k 300 for USL-T
        emb = tmp_path / "x.fvecs"
        assert run(
            ["synth", "--modes", 3, "--per-mode", 100, "--out-embeddings", emb,
             "--out-labels", tmp_path / "y.txt"]
        ) == 0
        k = 400 if method == "usl" else 300
        flags = [] if method == "usl" else ["--k", k]

        def no_selection(*args, **kwargs):
            raise AssertionError("selection (and its kNN work) started")

        monkeypatch.setattr("labelsel.cli.select_usl", no_selection)
        monkeypatch.setattr("labelsel.cli.select_uslt", no_selection)
        capsys.readouterr()
        assert run(
            ["select", "--method", method, "--embeddings", emb, "--budget", 10,
             *flags, "--out", tmp_path / "s.txt"]
        ) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--k" in err
        assert f"resolves to {k}" in err and "n = 300" in err
        assert not (tmp_path / "s.txt").exists()

    def test_same_seed_byte_identical(self, synth_files, tmp_path):
        emb, _ = synth_files
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(
                ["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
                 "--seed", 7, "--out", out]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_from_report_reproduces(self, synth_files, tmp_path):
        emb, _ = synth_files
        out1, rep = tmp_path / "s1.txt", tmp_path / "r.json"
        assert run(
            ["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--seed", 3, "--out", out1, "--report", rep]
        ) == 0
        payload = json.loads(rep.read_text())
        cfg, params = payload["config"], payload["params"]
        out2 = tmp_path / "s2.txt"
        assert run(
            ["select", "--method", cfg["method"], "--embeddings", cfg["embeddings"],
             "--budget", cfg["budget"], "--profile", cfg["profile"],
             "--seed", cfg["seed"], "--k", params["k"],
             "--lambda", params["reg_lambda"], "--alpha", params["reg_alpha"],
             "--momentum", params["momentum"], "--iters", params["iterations"],
             "--out", out2]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_random_method(self, synth_files, tmp_path):
        emb, _ = synth_files
        out = tmp_path / "s.txt"
        assert run(
            ["select", "--method", "random", "--embeddings", emb, "--budget", 25,
             "--seed", 0, "--out", out]
        ) == 0
        idx = [int(v) for v in out.read_text().split()]
        assert len(set(idx)) == 25

    def test_stratified_requires_labels(self, synth_files, tmp_path):
        emb, lab = synth_files
        assert run(
            ["select", "--method", "stratified", "--embeddings", emb, "--budget", 10,
             "--out", tmp_path / "s.txt"]
        ) == 1
        rep = tmp_path / "r.json"
        assert run(
            ["select", "--method", "stratified", "--embeddings", emb, "--budget", 10,
             "--labels", lab, "--out", tmp_path / "s.txt", "--report", rep]
        ) == 0
        assert json.loads(rep.read_text())["oracle_baseline"] is True

    def test_uslt_runs_with_overrides(self, synth_files, tmp_path):
        emb, _ = synth_files
        out, rep = tmp_path / "s.txt", tmp_path / "r.json"
        code = run(
            ["select", "--method", "uslt", "--embeddings", emb, "--budget", 10,
             "--iters", 120, "--seed", 2, "--out", out, "--report", rep]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 10
        payload = json.loads(rep.read_text())
        assert payload["params"]["adjust_alpha"] == 5.0
        assert payload["params"]["optimizer"]["steps"] == 120
        assert "loss_history" in payload["trace"]
        assert "iters" in payload["overrides"]

    def test_lambda_override_recorded(self, synth_files, tmp_path):
        emb, _ = synth_files
        rep = tmp_path / "r.json"
        assert run(
            ["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--lambda", 2.5, "--seed", 0, "--out", tmp_path / "s.txt",
             "--report", rep]
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["params"]["reg_lambda"] == 2.5
        assert "lambda" in payload["overrides"]

    def test_missing_embeddings_data_error(self, tmp_path):
        assert run(
            ["select", "--method", "usl", "--embeddings", tmp_path / "nope.fvecs",
             "--budget", 5, "--out", tmp_path / "s.txt"]
        ) == 2

    def test_malformed_csv_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0,oops\n")
        assert run(
            ["select", "--method", "usl", "--embeddings", bad, "--budget", 1,
             "--out", tmp_path / "s.txt"]
        ) == 2

    def test_unknown_method_usage_error(self, synth_files, tmp_path):
        emb, _ = synth_files
        assert run(
            ["select", "--method", "coreset", "--embeddings", emb, "--budget", 5,
             "--out", tmp_path / "s.txt"]
        ) == 1

    def test_duplicate_points_numerical_exit(self, tmp_path):
        dup = tmp_path / "dup.csv"
        dup.write_text("1.0,0.0\n1.0,0.0\n0.0,1.0\n0.0,-1.0\n")
        assert run(
            ["select", "--method", "usl", "--embeddings", dup, "--budget", 2,
             "--k", 1, "--out", tmp_path / "s.txt"]
        ) == 3

    def test_inapplicable_flag_usage_error(self, synth_files, tmp_path):
        emb, _ = synth_files
        assert run(
            ["select", "--method", "usl", "--embeddings", emb, "--budget", 5,
             "--tau", 0.5, "--out", tmp_path / "s.txt"]
        ) == 1
        assert run(
            ["select", "--method", "uslt", "--embeddings", emb, "--budget", 5,
             "--horizon", 4, "--out", tmp_path / "s.txt"]
        ) == 1
        assert run(
            ["select", "--method", "random", "--embeddings", emb, "--budget", 5,
             "--k", 10, "--out", tmp_path / "s.txt"]
        ) == 1

    def test_large_profile_echo(self, synth_files, tmp_path):
        emb, _ = synth_files
        rep = tmp_path / "r.json"
        assert run(
            ["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--profile", "large", "--k", 20, "--seed", 0,
             "--out", tmp_path / "s.txt", "--report", rep]
        ) == 0
        payload = json.loads(rep.read_text())
        assert payload["params"]["horizon"] == 64
        assert payload["params"]["reg_lambda"] == 1.5
        assert payload["params"]["momentum"] == 0.0
        assert payload["params"]["iterations"] == 1


class TestReportCommand:
    def test_single_and_comparison(self, synth_files, tmp_path, capsys):
        emb, lab = synth_files
        s1, s2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--seed", 0, "--out", s1])
        run(["select", "--method", "random", "--embeddings", emb, "--budget", 10,
             "--seed", 0, "--out", s2])
        rep = tmp_path / "cmp.json"
        code = run(
            ["report", "--embeddings", emb, "--labels", lab,
             "--selection", f"usl={s1}", "--selection", f"random={s2}",
             "--k", 20, "--out", rep]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "usl" in table and "random" in table
        payload = json.loads(rep.read_text())
        names = [r["name"] for r in payload["reports"]]
        assert names == ["usl", "random"]
        assert payload["reports"][0]["coverage"] >= payload["reports"][1]["coverage"]

    def test_mismatched_labels_exit_2(self, synth_files, tmp_path):
        emb, _ = synth_files
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        sel = tmp_path / "s.txt"
        sel.write_text("0\n1\n2\n")
        assert run(
            ["report", "--embeddings", emb, "--labels", short, "--selection", sel]
        ) == 2

    def test_k_not_below_n_usage_error(self, tmp_path, capsys):
        # as `select` does: a usage error (exit 1) that names --k
        emb, lab = tmp_path / "x.fvecs", tmp_path / "y.txt"
        assert run(
            ["synth", "--modes", 3, "--per-mode", 10, "--out-embeddings", emb,
             "--out-labels", lab]
        ) == 0
        sel = tmp_path / "s.txt"
        sel.write_text("0\n1\n2\n")
        capsys.readouterr()
        assert run(
            ["report", "--embeddings", emb, "--labels", lab, "--selection", sel, "--k", 30]
        ) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--k" in err
        assert "resolves to 30" in err and "n = 30" in err

    def test_subnormal_rows_exit_2(self, tmp_path):
        X = np.random.default_rng(0).standard_normal((40, 3)) * 1e-315
        emb = tmp_path / "tiny.csv"
        np.savetxt(emb, X, delimiter=",")
        lab = tmp_path / "y.txt"
        lab.write_text("0\n1\n" * 20)
        sel = tmp_path / "s.txt"
        sel.write_text("0\n1\n")
        assert run(
            ["report", "--embeddings", emb, "--labels", lab, "--selection", sel, "--k", 5]
        ) == 2


class TestVerifyCommand:
    def test_fresh_install_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 6
        assert "[FAIL]" not in out


class TestThreads:
    def test_threads_flag_does_not_change_output(self, synth_files, tmp_path):
        emb, _ = synth_files
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--seed", 5, "--threads", 1, "--out", a])
        run(["select", "--method", "usl", "--embeddings", emb, "--budget", 10,
             "--seed", 5, "--threads", 4, "--out", b])
        assert a.read_bytes() == b.read_bytes()
