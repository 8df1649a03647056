import csv

import pytest

from pufstack.cli import main
from pufstack.config import read_kv, write_kv

pytestmark = pytest.mark.usefixtures("tmp_path")


def run(argv):
    return main([str(a) for a in argv])


def gen_devices(tmp_path, count=3, extra=()):
    out = tmp_path / "devices"
    assert run(["gen", "--count", count, "--out", out, "--seed", 1, *extra]) == 0
    return sorted(out.glob("device_*.cfg"))


class TestGen:
    def test_creates_device_files(self, tmp_path, capsys):
        paths = gen_devices(tmp_path, 2)
        assert len(paths) == 2
        kv = read_kv(paths[0])
        assert kv["kind"] == "photonic"
        assert kv["L"] == "64"
        out = capsys.readouterr().out
        assert "seed_digest=" in out

    def test_manifest_written(self, tmp_path):
        gen_devices(tmp_path, 1)
        kv = read_kv(tmp_path / "devices" / "manifest.kv")
        assert kv["subcommand"] == "gen"
        assert kv["seed"] == "1"

    def test_reruns_byte_identical(self, tmp_path):
        a = gen_devices(tmp_path / "a", 2)
        b = gen_devices(tmp_path / "b", 2)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_config_template(self, tmp_path):
        cfg = tmp_path / "template.cfg"
        cfg.write_text("kind = arbiter\nL = 32\n")
        out = tmp_path / "devices"
        assert run(["gen", "--count", 1, "--out", out, "--config", cfg]) == 0
        kv = read_kv(out / "device_000.cfg")
        assert kv["kind"] == "arbiter"
        assert kv["L"] == "32"

    def test_invalid_length_exits_2_and_names_parameter(self, tmp_path, capsys):
        cfg = tmp_path / "template.cfg"
        cfg.write_text("kind = photonic\nL = 48\n")
        code = run(["gen", "--count", 1, "--out", tmp_path / "d", "--config", cfg])
        assert code == 2
        assert "L=48" in capsys.readouterr().err


class TestMetrics:
    def test_outputs(self, tmp_path, capsys):
        paths = gen_devices(tmp_path)
        out = tmp_path / "metrics"
        code = run(["metrics", *paths, "--out", out, "--challenges", 8,
                    "--reevals", 2])
        assert code == 0
        kv = read_kv(out / "metrics.kv")
        assert 0.3 <= float(kv["uniqueness"]) <= 0.7
        assert float(kv["reliability"]) >= 0.9
        assert "far" in kv and "frr" in kv
        with open(out / "per_bit.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bit_index", "p_one", "entropy"]
        assert len(rows) == 1 + 8 * 128

    def test_needs_two_devices(self, tmp_path):
        paths = gen_devices(tmp_path, 1)
        assert run(["metrics", *paths, "--out", tmp_path / "m"]) == 2

    def test_missing_device_file_exits_4(self, tmp_path):
        assert run(["metrics", tmp_path / "nope.cfg",
                    "--out", tmp_path / "m"]) == 4

    # hand edits: malformed values, and the thermal keys that older
    # versions wrote and the model no longer has
    @pytest.mark.parametrize("key, value", [
        ("seed", "zz" * 32), ("L", "sixty-four"), ("kerr", "nan"),
        ("kappa", "0.01"), ("temperature_delta", "0.0")],
        ids=["hex-seed", "L", "kerr", "kappa", "temperature_delta"])
    def test_edited_device_file_exits_2(self, tmp_path, capsys, key, value):
        paths = gen_devices(tmp_path, 2)
        kv = read_kv(paths[0])
        kv[key] = value
        write_kv(paths[0], kv)
        assert run(["metrics", *paths, "--out", tmp_path / "m"]) == 2
        assert key in capsys.readouterr().err

    def test_sram_device_file_exits_2(self, tmp_path, capsys):
        paths = gen_devices(tmp_path, 2)
        kv = read_kv(paths[0])
        write_kv(paths[0], {"kind": "sram", "seed": kv["seed"], "L": kv["L"],
                            "M": kv["M"], "noise_sigma": kv["noise_sigma"]})
        assert run(["metrics", *paths, "--out", tmp_path / "m"]) == 2
        assert "'sram'" in capsys.readouterr().err

    def test_sram_template_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "template.cfg"
        cfg.write_text("kind = sram\n")
        assert run(["gen", "--count", 1, "--out", tmp_path / "d", "--config", cfg]) == 2
        assert "'sram'" in capsys.readouterr().err


class TestSweepFilter:
    def test_sweep_csv(self, tmp_path):
        paths = gen_devices(tmp_path)
        out = tmp_path / "sweep"
        code = run(["sweep-filter", *paths, "--out", out, "--challenges", 4,
                    "--reevals", 2, "--grid", "0:inf,0.05:inf,0.05:0.3"])
        assert code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "delta_min"
        assert len(rows) == 4
        retentions = [float(r[2]) for r in rows[1:]]
        assert retentions[0] == 1.0
        assert retentions[1] <= retentions[0]

    def test_bad_grid_exits_2(self, tmp_path):
        paths = gen_devices(tmp_path)
        assert run(["sweep-filter", *paths, "--out", tmp_path / "s",
                    "--grid", "0.5:0.1"]) == 2

    @pytest.mark.parametrize("grid", ["0.1", "a:b", "0:inf,0:1:2"])
    def test_malformed_grid_exits_2(self, tmp_path, capsys, grid):
        paths = gen_devices(tmp_path, 2)
        assert run(["sweep-filter", *paths, "--out", tmp_path / "s",
                    "--grid", grid]) == 2
        assert repr(grid.split(",")[-1]) in capsys.readouterr().err


class TestDemos:
    def test_demo_auth_passive(self, tmp_path, capsys):
        out = tmp_path / "auth"
        assert run(["demo-auth", "--trials", 5, "--out", out]) == 0
        kv = read_kv(out / "scenario.kv")
        assert kv["accepts"] == "5"
        assert "5/5 accepted" in capsys.readouterr().out
        with open(out / "trials.csv") as fh:
            assert len(list(csv.reader(fh))) == 6

    def test_demo_auth_replay(self, tmp_path):
        out = tmp_path / "auth"
        assert run(["demo-auth", "--trials", 5, "--adversary", "replay",
                    "--out", out]) == 0
        kv = read_kv(out / "scenario.kv")
        assert kv["adversary_successes"] == "0"

    @pytest.mark.parametrize("with_config", [False, True])
    def test_demo_attest_defaults_to_honest_device(self, tmp_path, with_config):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("trials = 2\n")
        out = tmp_path / "att"
        argv = ["--config", cfg] if with_config else ["--trials", 2]
        assert run(["demo-attest", *argv, "--out", out]) == 0
        kv = read_kv(out / "scenario.kv")
        assert kv["accepts"] == "2"
        assert kv["adversary_attempts"] == "0"

    def test_demo_attest_tamper(self, tmp_path):
        out = tmp_path / "att"
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("memory_bytes = 4096\ntrials = 3\n")
        assert run(["demo-attest", "--adversary", "tamper", "--out", out,
                    "--config", cfg]) == 0
        kv = read_kv(out / "scenario.kv")
        assert kv["accepts"] == "0"
        assert kv["reject_HashMismatch"] == "3"

    def test_scenario_reruns_identical(self, tmp_path):
        for sub in ("a", "b"):
            run(["demo-auth", "--trials", 4, "--seed", 9,
                 "--out", tmp_path / sub])
        assert ((tmp_path / "a" / "scenario.kv").read_bytes()
                == (tmp_path / "b" / "scenario.kv").read_bytes())
        assert ((tmp_path / "a" / "trials.csv").read_bytes()
                == (tmp_path / "b" / "trials.csv").read_bytes())

    def test_bad_scenario_config_exits_2(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("trials = 0\n")
        assert run(["demo-auth", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_modify_adversary_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("adversary = modify\n")
        assert run(["demo-auth", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "auth adversary must be one of" in err
        assert "'modify'" in err

    @pytest.mark.parametrize("key, value", [("trials", "many"), ("budget_factor", "nan")])
    def test_non_numeric_scenario_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run(["demo-auth", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["puf_kind = arbiter", "challenge_len = 64",
                                      "response_len = 128"])
    def test_device_shape_scenario_key_exits_2(self, tmp_path, capsys, line):
        # scenarios always run the default photonic device
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert run(["demo-auth", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["chunk_bytes", "memory_bytes"])
    def test_empty_attest_size_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"protocol = attest\nadversary = none\n{key} = 0\n")
        assert run(["demo-attest", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert key in capsys.readouterr().err


class TestAttack:
    def test_arbiter_attack_report(self, tmp_path, capsys):
        out = tmp_path / "attack"
        code = run(["attack", "--kinds", "arbiter", "--train", 400,
                    "--test", 100, "--out", out])
        assert code == 0
        kv = read_kv(out / "attack_arbiter.kv")
        assert float(kv["test_accuracy"]) >= 0.8
        assert "arbiter: test accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("bit", [200, -1])
    def test_bit_outside_response_exits_2(self, tmp_path, capsys, bit):
        code = run(["attack", "--kinds", "arbiter", "--train", 50,
                    "--test", 10, "--bits", 0, bit, "--out", tmp_path / "a"])
        assert code == 2
        assert f"target bit {bit} is outside" in capsys.readouterr().err
        assert not (tmp_path / "a" / "attack_arbiter.kv").exists()


class TestBench:
    def test_bench_report(self, tmp_path):
        out = tmp_path / "bench"
        code = run(["bench", "--devices", 4, "--challenges", 4,
                    "--reevals", 2, "--out", out])
        assert code == 0
        kv = read_kv(out / "bench.kv")
        assert 0.3 <= float(kv["uniqueness"]) <= 0.7
        assert "far" in kv and "frr" in kv

    def test_bench_without_reevals_reports_no_rates(self, tmp_path):
        # no re-reads means no genuine distances, so FAR/FRR are undefined
        out = tmp_path / "bench"
        code = run(["bench", "--devices", 3, "--challenges", 4,
                    "--reevals", 0, "--out", out])
        assert code == 0
        kv = read_kv(out / "bench.kv")
        assert "uniqueness" in kv
        assert "far" not in kv and "frr" not in kv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
