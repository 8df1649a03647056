"""Command-line frontend.

Subcommands: gen, metrics, sweep-filter, demo-auth, demo-attest, attack,
bench. Every run is deterministic under (--config, --seed); output
directories always contain the manifest that produced them.

Exit codes: 0 success, 2 validation error, 3 protocol failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_puf, read_kv, save_puf, write_kv
from .errors import (AuthenticationError, FormatError, ProtocolStateError,
                     PufStackError, ValidationError)
from .harness import (AttackConfig, ScenarioConfig, harvest_crps,
                      modeling_attack, run_scenario)
from .harness.channel import MODES
from .harness.scenarios import ATTEST_ADVERSARIES
from .metrics import (FilterBand, MetricsReport, band_sweep, compute_metrics,
                      decision_rates, pairwise_hd, population_responses)
from .puf import challenge_matrix, create_puf
from .puf.photonic import kernel_name
from .xof import derive_rng, expand, seed_bytes

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROTOCOL = 3
EXIT_IO = 4


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_manifest(args, out: Path):
    write_kv(out / "manifest.kv", {
        "subcommand": args.command,
        "seed": str(args.seed),
        "config": getattr(args, "config", None) or "",
        "out": str(out),
        "version": __version__,
        "argv": " ".join(sys.argv[1:]),
        "photonic_kernel": kernel_name(),
    })


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValidationError(f"{flag} must be >= {low}, got {value}")


# -- subcommands ----------------------------------------------------------

def cmd_gen(args) -> int:
    _at_least("--count", args.count, 1)
    out = _outdir(args)
    base = read_kv(args.config) if args.config else {"kind": "photonic"}
    base.pop("seed", None)
    run_seed = seed_bytes(args.seed)
    for i in range(args.count):
        device_seed = expand(run_seed, f"device-{i}", 32)
        cfg = {k: v for k, v in base.items() if k != "kind"}
        puf = create_puf(base.get("kind", "photonic"), device_seed, cfg)
        path = out / f"device_{i:03d}.cfg"
        save_puf(path, puf)
        digest = expand(device_seed, "seed-digest", 8).hex()
        print(f"{path.name}: kind={puf.kind} L={puf.challenge_len} "
              f"M={puf.response_len} seed_digest={digest}")
    _write_manifest(args, out)
    return EXIT_OK


def _load_devices(paths) -> list:
    if not paths:
        raise ValidationError("at least one device file is required")
    return [load_puf(p) for p in paths]


def _population(args, pufs, noise_label: str):
    """(golden, margins, re-reads) of ``pufs`` on the run's shared challenges."""
    seed = seed_bytes(args.seed)
    challenges = challenge_matrix(seed, "cli-challenges", args.challenges,
                                  pufs[0].challenge_len)
    return population_responses(pufs, challenges, args.reevals,
                                derive_rng(seed, noise_label))


def _population_report(args, pufs, noise_label: str) -> MetricsReport:
    """Metrics of ``pufs`` on the run's shared challenges; FAR/FRR only when
    there are noisy re-reads to give genuine distances."""
    golden, _, reevals = _population(args, pufs, noise_label)
    report = compute_metrics(golden, reevals)
    if reevals is not None:
        genuine = np.mean(reevals != golden[None], axis=2).ravel()
        impostor = (pairwise_hd(golden)[np.triu_indices(len(pufs), k=1)]
                    / golden.shape[1])
        report.far, report.frr = decision_rates(genuine, impostor, args.hd_threshold)
    return report


def _write_and_print(path: Path, kv: dict) -> None:
    write_kv(path, kv)
    for key, value in kv.items():
        print(f"{key} = {value}")


def cmd_metrics(args) -> int:
    _at_least("--challenges", args.challenges, 1)
    _at_least("--reevals", args.reevals, 0)
    out = _outdir(args)
    pufs = _load_devices(args.devices)
    if len(pufs) < 2:
        raise ValidationError("inter-device metrics need >= 2 device files")
    report = _population_report(args, pufs, "cli-metrics-noise")
    with open(out / "per_bit.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bit_index", "p_one", "entropy"])
        writer.writerows(report.per_bit_rows())
    _write_and_print(out / "metrics.kv", report.to_kv())
    _write_manifest(args, out)
    return EXIT_OK


def _parse_grid(spec: str) -> list[FilterBand]:
    # "dmin1:dmax1,dmin2:dmax2,..."  ("inf" allowed as dmax)
    bands = []
    for part in spec.split(","):
        try:
            lo, hi = (float(x) for x in part.split(":"))
        except ValueError:
            raise ValidationError(
                f"grid band {part!r} is not of the form dmin:dmax") from None
        bands.append(FilterBand(lo, hi))
    return bands


DEFAULT_GRID = ("0:inf,0.01:inf,0.02:inf,0.03:inf,0.04:inf,0.05:inf,"
                "0.05:0.6,0.05:0.4,0.05:0.3")


def cmd_sweep_filter(args) -> int:
    _at_least("--challenges", args.challenges, 1)
    _at_least("--reevals", args.reevals, 0)
    out = _outdir(args)
    golden, margins, reevals = _population(args, _load_devices(args.devices),
                                           "cli-sweep-noise")
    rows = band_sweep(golden, margins, reevals, _parse_grid(args.grid))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_min", "delta_max", "retention",
                         "reliability", "mean_alias_entropy"])
        for row in rows:
            writer.writerow([row.band.delta_min, row.band.delta_max,
                             row.retention,
                             "" if row.reliability is None else row.reliability,
                             "" if row.mean_alias_entropy is None else row.mean_alias_entropy])
    for row in rows:
        print(f"band [{row.band.delta_min}, {row.band.delta_max}]: "
              f"retention={row.retention:.3f} reliability={row.reliability} "
              f"entropy={row.mean_alias_entropy}")
    _write_manifest(args, out)
    return EXIT_OK


def _scenario_from_args(args) -> ScenarioConfig:
    """The config file's scenario, if any, under the command line's
    protocol, seed, trials and adversary; the adversary defaults to the
    honest one."""
    kv = read_kv(args.config) if args.config else {}
    kv["protocol"] = args.protocol
    kv["run_seed"] = str(args.seed)
    kv.setdefault("adversary", args.honest_adversary)
    if args.adversary:
        kv["adversary"] = args.adversary
    if args.trials is not None:
        kv["trials"] = str(args.trials)
    return ScenarioConfig.from_kv(kv)


def cmd_demo(args) -> int:
    cfg = _scenario_from_args(args)
    report = run_scenario(cfg)
    print(f"{report.accepts}/{report.trials} accepted; "
          f"adversary successes: {report.adversary_successes}")
    for reason, count in sorted(report.rejects.items()):
        print(f"  reject {reason}: {count}")
    out = _outdir(args)
    write_kv(out / "scenario.kv", report.to_kv())
    with open(out / "trials.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "outcome", "reason", "adversarial"])
        writer.writerows(report.trial_rows)
    _write_manifest(args, out)
    if cfg.adversary == args.honest_adversary and report.accepts != report.trials:
        raise ProtocolStateError(f"honest {args.protocol} runs failed")
    return EXIT_OK


def cmd_attack(args) -> int:
    _at_least("--train", args.train, 1)
    _at_least("--test", args.test, 1)
    out = _outdir(args)
    seed = seed_bytes(args.seed)
    results = {}
    for kind in args.kinds:
        puf = create_puf(kind, expand(seed, f"attack-target-{kind}", 32))
        crng = derive_rng(seed, f"attack-challenges-{kind}")
        crps = harvest_crps(puf, args.train + args.test, challenge_rng=crng)
        result = modeling_attack(crps[:args.train], crps[args.train:],
                                 AttackConfig(target_bits=tuple(args.bits)))
        results[kind] = result
        print(f"{kind}: test accuracy {result.test_accuracy:.3f} "
              f"(train {result.train_accuracy:.3f}, {result.train_size} CRPs)")
        write_kv(out / f"attack_{kind}.kv", result.to_kv())
    _write_manifest(args, out)
    return EXIT_OK


def cmd_bench(args) -> int:
    _at_least("--devices", args.devices, 2)
    _at_least("--challenges", args.challenges, 1)
    _at_least("--reevals", args.reevals, 0)
    out = _outdir(args)
    seed = seed_bytes(args.seed)
    pufs = [create_puf("photonic", expand(seed, f"bench-device-{i}", 32))
            for i in range(args.devices)]
    report = _population_report(args, pufs, "bench-noise")
    _write_and_print(out / "bench.kv", report.to_kv())
    _write_manifest(args, out)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pufstack",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="run seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None, help="config file path")

    p = sub.add_parser("gen", help="generate device definition files")
    common(p)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("metrics", help="population quality metrics")
    common(p)
    p.add_argument("devices", nargs="*", help="device config files")
    p.add_argument("--challenges", type=int, default=64)
    p.add_argument("--reevals", type=int, default=5)
    p.add_argument("--hd-threshold", type=float, default=0.25)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep-filter", help="filter-band trade-off sweep")
    common(p)
    p.add_argument("devices", nargs="*")
    p.add_argument("--challenges", type=int, default=32)
    p.add_argument("--reevals", type=int, default=5)
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="comma-separated dmin:dmax pairs")
    p.set_defaults(func=cmd_sweep_filter)

    p = sub.add_parser("demo-auth", help="mutual-authentication scenario")
    common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--adversary", default=None, choices=MODES)
    p.set_defaults(func=cmd_demo, protocol="auth", honest_adversary="passive")

    p = sub.add_parser("demo-attest", help="software-attestation scenario")
    common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--adversary", default=None, choices=ATTEST_ADVERSARIES)
    p.set_defaults(func=cmd_demo, protocol="attest", honest_adversary="none")

    p = sub.add_parser("attack", help="machine-learning modeling attack")
    common(p)
    p.add_argument("--train", type=int, default=5000)
    p.add_argument("--test", type=int, default=1000)
    p.add_argument("--kinds", nargs="+", default=["arbiter", "photonic"],
                   choices=["arbiter", "photonic"])
    p.add_argument("--bits", nargs="+", type=int, default=[0])
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="uniqueness/reliability/FAR-FRR benchmark")
    common(p)
    p.add_argument("--devices", type=int, default=20)
    p.add_argument("--challenges", type=int, default=32)
    p.add_argument("--reevals", type=int, default=3)
    p.add_argument("--hd-threshold", type=float, default=0.25)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AuthenticationError, ProtocolStateError) as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except PufStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
