"""Binary checkpoint format and model restore.

Layout: magic string, format version (u32 LE), header length (u64 LE), a JSON
header holding the tensor manifest (name, shape, dtype), the run-config
snapshot, and the vocabulary, then the payloads concatenated in manifest order
as row-major little-endian float32. Saving the result of a load reproduces the
file byte for byte. Every payload value must be finite.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .config import RunConfig
from .data import Vocab

MAGIC = b"STRUCTATTN"
VERSION = 1
_DTYPE_TAG = "<f4"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    manifest: list  # (name, shape) in payload order
    arrays: dict    # name -> float32 array
    config: dict
    vocab: list


def save_checkpoint(path, params, config, vocab):
    """Write parameters (name -> Tensor or array) with config and vocab attached."""
    names = list(params)
    manifest = []
    payloads = []
    for name in names:
        arr = np.asarray(getattr(params[name], "data", params[name]), dtype=np.float32)
        manifest.append([name, list(arr.shape), _DTYPE_TAG])
        payloads.append(np.ascontiguousarray(arr).astype("<f4", copy=False).tobytes())
    header = json.dumps(
        {"manifest": manifest, "config": config, "vocab": vocab},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    # Write beside the target, then rename over it: a save that fails part way
    # leaves the previous file as it was.
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(VERSION.to_bytes(4, "little"))
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for blob in payloads:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_manifest_entry(entry):
    """``[name, shape, dtype]``: a string, a list of non-negative ints, a string."""
    return (isinstance(entry, list) and len(entry) == 3
            and isinstance(entry[0], str) and isinstance(entry[2], str)
            and isinstance(entry[1], list)
            and all(type(dim) is int and dim >= 0 for dim in entry[1]))


def _check_header(path, header):
    """Reject a header whose fields are missing or of the wrong type."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key, kind, json_kind in (("manifest", list, "array"), ("config", dict, "object"),
                                 ("vocab", list, "array")):
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path}: header field {key!r} is missing or not a JSON {json_kind}")
    for entry in header["manifest"]:
        if not _is_manifest_entry(entry):
            raise CheckpointError(f"{path}: manifest entry {entry!r} is not [name, shape list, dtype]")
    if not all(isinstance(token, str) for token in header["vocab"]):
        raise CheckpointError(f"{path}: vocabulary holds a token that is not a string")


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    offset = len(MAGIC)
    version = int.from_bytes(raw[offset:offset + 4], "little")
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {VERSION}")
    offset += 4
    header_len = int.from_bytes(raw[offset:offset + 8], "little")
    offset += 8
    if offset + header_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    offset += header_len
    _check_header(path, header)

    manifest = []
    arrays = {}
    for name, shape, dtype in header["manifest"]:
        if dtype != _DTYPE_TAG:
            raise CheckpointError(f"{path}: unsupported dtype {dtype!r} for {name}")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload for {name}")
        arrays[name] = np.frombuffer(raw[offset:offset + nbytes], dtype="<f4").reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: tensor {name} holds a NaN or infinite value")
        manifest.append((name, tuple(shape)))
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payloads")
    return Checkpoint(manifest=manifest, arrays=arrays, config=header["config"], vocab=header["vocab"])


def save_model(path, model, vocab):
    save_checkpoint(path, model.named_parameters(), model.cfg.to_dict(), vocab.id_to_token)


def restore_model(path, dtype=np.float32):
    """Rebuild the model a checkpoint describes and load its parameters.

    Shapes in the file are validated against the freshly built model.
    """
    ckpt = load_checkpoint(path)
    cfg = RunConfig.from_dict(ckpt.config)
    vocab = Vocab(ckpt.vocab)
    rng = np.random.default_rng(cfg.seed)
    model = model_mod.build_model(cfg, len(vocab), rng, dtype)
    params = model.named_parameters()
    if set(params) != set(ckpt.arrays):
        raise CheckpointError(
            f"{path}: checkpoint tensors {sorted(ckpt.arrays)} do not match model tensors {sorted(params)}")
    for name, p in params.items():
        arr = ckpt.arrays[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: file {arr.shape}, model {p.data.shape}")
        p.data = arr.astype(dtype, copy=True)
    return model, vocab, cfg
