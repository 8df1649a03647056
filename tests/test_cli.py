import csv
import hashlib

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

    # hand edits: malformed values, and the thermal and gain-target keys
    # that older versions wrote and the model no longer has
    @pytest.mark.parametrize("key, value", [
        ("seed", "zz" * 32), ("L", "sixty-four"), ("kerr", "nan"),
        ("kappa", "0.01"), ("temperature_delta", "0.0"), ("target_mean", "0.2")],
        ids=["hex-seed", "L", "kerr", "kappa", "temperature_delta", "target_mean"])
    def test_edited_device_file_exits_2(self, tmp_path, capsys, key, value):
        paths = gen_devices(tmp_path, 2)
        kv = read_kv(paths[0])
        kv[key] = value
        write_kv(paths[0], kv)
        assert run(["metrics", *paths, "--out", tmp_path / "m"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "sweep-filter"])
    def test_mixed_response_lengths_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "template.cfg"
        cfg.write_text("M = 64\n")
        short = tmp_path / "short"
        assert run(["gen", "--count", 1, "--out", short, "--config", cfg]) == 0
        paths = [*gen_devices(tmp_path, 1), short / "device_000.cfg"]
        assert run([command, *paths, "--out", tmp_path / "m", "--challenges", 2]) == 2
        assert "M = 64 and 128" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["metrics", "gen", "demo-auth"])
def test_non_utf8_file_exits_2_and_names_path(tmp_path, capsys, command):
    # a device or config file that is not UTF-8 text once ended in a
    # UnicodeDecodeError traceback and exit 1
    binary = tmp_path / "bin.cfg"
    binary.write_bytes(b"\xff\xfek\x00=\x001\x00")
    argv = {"metrics": [binary, binary], "gen": ["--config", binary],
            "demo-auth": ["--config", binary]}[command]
    assert run([command, *argv, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert str(binary) in err and "UTF-8" in err


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


@pytest.mark.parametrize("command, flag, value, low", [
    ("gen", "--count", 0, 1), ("gen", "--count", -2, 1),
    ("metrics", "--reevals", -3, 0), ("sweep-filter", "--reevals", -3, 0),
    ("bench", "--reevals", -3, 0), ("bench", "--devices", 0, 2),
    ("bench", "--devices", -1, 2)])
def test_count_below_minimum_exits_2(tmp_path, capsys, command, flag, value, low):
    # these once passed: gen --count -2 wrote only manifest.kv, metrics
    # --reevals -3 left out reliability, far and frr, both exiting 0, and
    # bench --devices -1 ended in an IndexError traceback
    devices = gen_devices(tmp_path, 2) if command in ("metrics", "sweep-filter") else []
    out = tmp_path / "out"
    assert run([command, *devices, flag, value, "--out", out]) == 2
    assert f"{flag} must be >= {low}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "sweep-filter", "bench"])
@pytest.mark.parametrize("value", [0, -4])
def test_challenges_below_one_exits_2_and_names_flag(tmp_path, capsys, command, value):
    # --challenges -4 once exited 2 with "population needs devices and
    # challenges", which names no flag
    devices = gen_devices(tmp_path, 2) if command != "bench" else []
    out = tmp_path / "out"
    assert run([command, *devices, "--challenges", value, "--out", out]) == 2
    assert f"--challenges must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


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
                                      "response_len = 128", "overhead_factor = 3.0"])
    def test_device_shape_scenario_key_exits_2(self, tmp_path, capsys, line):
        # scenarios always run the default photonic device, and the relocate
        # adversary's cost is a constant
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert run(["demo-auth", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["noise_sigma = -3", "adversary_p = 7",
                                      "budget_factor = -1"])
    def test_out_of_range_scenario_value_exits_2(self, tmp_path, capsys, line):
        # every protocol checks these ranges, also where it does not use
        # the value: demo-attest once exited 0 on the first two and 3 on
        # the third
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        assert run(["demo-attest", "--config", cfg, "--out", tmp_path / "o"]) == 2
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

    @pytest.mark.parametrize("flag, other", [("--train", "--test"),
                                             ("--test", "--train")],
                             ids=["train", "test"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_size_below_one_exits_2(self, tmp_path, capsys, flag, other, value):
        # a negative size once sliced the harvested batch from its end
        code = run(["attack", "--kinds", "arbiter", flag, value, other, 20,
                    "--out", tmp_path / "a"])
        assert code == 2
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "a" / "attack_arbiter.kv").exists()

    def test_repeated_bit_exits_2(self, tmp_path, capsys):
        code = run(["attack", "--kinds", "arbiter", "--train", 50,
                    "--test", 10, "--bits", 0, 1, 0, "--out", tmp_path / "a"])
        assert code == 2
        assert "target bit 0 is repeated" in capsys.readouterr().err
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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestOutputsPinned:
    """SHA-256 of every file each subcommand writes, manifest aside, at
    small sizes: a refactor that moves no output leaves these unedited."""

    GEN = ["9aeb334bbbfa3ef5110685514b057212ad62c24601f4a8093a4a12a3a7dc4351",
           "190cd479ca728b842abbd76556aa4f8bde44a15858d45664f909f4e255395054",
           "e3a8f47ec8f835d9bb381c90929bcb5e0204d633772ed0b1fa94d341965b2912"]

    @pytest.fixture(scope="class")
    def devices(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pinned") / "devices"
        assert run(["gen", "--count", 3, "--seed", 1, "--out", out]) == 0
        return sorted(out.glob("device_*.cfg"))

    def test_gen(self, devices):
        assert [_sha256(path) for path in devices] == self.GEN
        assert "target_mean" not in devices[0].read_text()

    @pytest.mark.parametrize("argv, digests", [
        (["metrics", "--challenges", 4, "--reevals", 2, "--seed", 2],
         {"metrics.kv": "14c7fa198e255639a10ba7e761917bf5622c06cbcf518daeeb5b1637d8aad546",
          "per_bit.csv": "f8160c3aa5479a82196fcee6098426ba37c10d2397fe03faa3ed3e24c6634159"}),
        (["sweep-filter", "--challenges", 4, "--reevals", 2, "--seed", 3],
         {"sweep.csv": "ce2316aab00eb1d6a6d7eae71a9a6f4bc6287c13b4395999383ff6f4ed294a23"}),
    ], ids=["metrics", "sweep-filter"])
    def test_device_file_commands(self, tmp_path, devices, argv, digests):
        assert run([*argv, *devices, "--out", tmp_path]) == 0
        assert {name: _sha256(tmp_path / name) for name in digests} == digests

    @pytest.mark.parametrize("argv, digests", [
        (["bench", "--devices", 3, "--challenges", 4, "--reevals", 2, "--seed", 4],
         {"bench.kv": "54faee919fa5d41cbe09126d8f82882a37da25bf63bf82e981a10b1d99053400"}),
        (["attack", "--train", 200, "--test", 50, "--bits", 0, 1, "--seed", 5],
         {"attack_arbiter.kv": "daf5ab2a91fa8707a67f69673d6a19b9cc0e0d1ee32faf734748ecde2a349302",
          "attack_photonic.kv": "3667378d21c66eb625b6505a688aca88278d54b3db51f55e2b1bc428a6a6de71"}),
    ], ids=["bench", "attack"])
    def test_seeded_commands(self, tmp_path, argv, digests):
        assert run([*argv, "--out", tmp_path]) == 0
        assert {name: _sha256(tmp_path / name) for name in digests} == digests

    AUTH = ["demo-auth", "--trials", 12, "--seed", 6]
    ATTEST = ["demo-attest", "--trials", 3, "--seed", 7]

    @pytest.mark.parametrize("argv, config, adversary, scenario, trials", [
        (AUTH, "adversary_p = 0.5", "passive",
         "9a91cfb832c03b08889aa23052940183bd81e7bbab92f9796f7c714abeb6ea41",
         "bf08c1b0ee1b1ca69d8bad1e3b920564b1e3eca0a4d1f57708e23738803f1e59"),
        (AUTH, "adversary_p = 0.5", "replay",
         "fcfcb1df3d8de6ebfe8399a2d96af225e9859a4ea19f7178a55da92906c0f5d4",
         "bf08c1b0ee1b1ca69d8bad1e3b920564b1e3eca0a4d1f57708e23738803f1e59"),
        (AUTH, "adversary_p = 0.5", "bitflip",
         "0b061453cb47cfada4e88621825beee6e9da81427df1e6d7a4f6b718d0caa9a4",
         "809f8463af7a21a281e291c48ffbd0e665141c087f61ea01d4120ed42ce93c97"),
        (AUTH, "adversary_p = 0.5", "drop",
         "72c71f1600960a0dfcd4875e4419054976efa7b7aa8eb7c588d847b5e725e695",
         "845272c1340924ae6c9b8f8542c3abf2f161cdcc1f216bf49d743df87af5ca92"),
        (ATTEST, "memory_bytes = 4096", "none",
         "c8426a467c875b360c745972f5eb9345310b3454f33e7e494ef172aa259f245c",
         "be0be80a3997003fbbd5efb81d9461f137af8ad57586d5b455813903e44f96b4"),
        (ATTEST, "memory_bytes = 4096", "tamper",
         "0628006dd1481dac9fd71c669076b6e63c03ede5562e4fef2c2eca1b526163fc",
         "1cb54da360f7a81470f466789a36e09ada09ab61f2df4af8a95bd83ccfd63b88"),
        (ATTEST, "memory_bytes = 4096", "relocate",
         "e78d8f618e3c7ece88abda844c5319fe49be7a7db311baf7cefcbef9a2840b6a",
         "e1ea82412e14318794e57e8f58308661d60f2b0fed15e74130732c3961d57620"),
    ], ids=["auth-passive", "auth-replay", "auth-bitflip", "auth-drop",
            "attest-none", "attest-tamper", "attest-relocate"])
    def test_scenarios(self, tmp_path, argv, config, adversary, scenario, trials):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config + "\n")
        out = tmp_path / "out"
        assert run([*argv, "--adversary", adversary, "--config", cfg,
                    "--out", out]) == 0
        assert [_sha256(out / "scenario.kv"), _sha256(out / "trials.csv")] == [scenario, trials]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
