"""Flat key-value documents used for device configs, reports, and manifests.

Format: one ``key = value`` pair per line, ``#`` starts a comment, keys are
unique. Identical files always reconstruct identical objects.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .errors import FormatError, ValidationError
from .puf import PufInstance, create_puf

PathLike = Union[str, Path]


def read_kv(path: PathLike) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def write_kv(path: PathLike, pairs: dict) -> None:
    lines = [f"{k} = {v}" for k, v in pairs.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def puf_to_kv(puf: PufInstance) -> dict[str, str]:
    kv = {
        "kind": puf.kind,
        "seed": puf.device_seed.hex(),
        "L": str(puf.challenge_len),
        "M": str(puf.response_len),
        "noise_sigma": repr(puf.noise_sigma),
    }
    if puf.kind == "photonic":
        p = puf.params
        kv.update(P=str(p.n_paths), a=repr(p.mem_decay), kerr=repr(p.kerr_coeff))
    elif puf.kind == "arbiter":
        kv["replica_sigma"] = repr(puf.replica_sigma)
    return kv


def puf_from_kv(kv: dict[str, str]) -> PufInstance:
    if "kind" not in kv or "seed" not in kv:
        raise ValidationError("device config requires 'kind' and 'seed'")
    cfg = {k: v for k, v in kv.items() if k not in ("kind", "seed")}
    return create_puf(kv["kind"], kv["seed"], cfg)


def save_puf(path: PathLike, puf: PufInstance) -> None:
    write_kv(path, puf_to_kv(puf))


def load_puf(path: PathLike) -> PufInstance:
    return puf_from_kv(read_kv(path))
