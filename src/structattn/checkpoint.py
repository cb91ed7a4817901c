"""Binary checkpoint format and model restore.

Layout: magic string, format version (u32 LE), header length (u64 LE), a JSON
header holding the tensor manifest (name, shape, dtype), the run-config
snapshot, and the vocabulary, then the payloads concatenated in manifest order
as row-major little-endian float32. Saving the result of a load reproduces the
file byte for byte. Every payload value must be finite.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import tensor as T
from .config import RunConfig
from .data import Vocab

MAGIC = b"STRUCTATTN"
VERSION = 1
_DTYPE_TAG = "<f4"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    arrays: dict    # name -> float32 array, in payload order
    config: dict
    vocab: list


def save_checkpoint(path, params, config, vocab):
    """Write parameters (name -> array) with config and vocab attached.

    Each payload is written straight from its float32 array, one tensor at a
    time, so a save holds no second copy of the model.
    """
    manifest = [[name, list(arr.shape), _DTYPE_TAG] for name, arr in params.items()]
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
            for arr in params.values():
                fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_TAG))
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
    """Reject a header whose fields are missing or of the wrong type, or whose
    manifest repeats a tensor name."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key, kind, json_kind in (("manifest", list, "array"), ("config", dict, "object"),
                                 ("vocab", list, "array")):
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path}: header field {key!r} is missing or not a JSON {json_kind}")
    names = set()
    for entry in header["manifest"]:
        if not _is_manifest_entry(entry):
            raise CheckpointError(f"{path}: manifest entry {entry!r} is not [name, shape list, dtype]")
        if entry[0] in names:
            raise CheckpointError(f"{path}: manifest names tensor {entry[0]!r} twice")
        names.add(entry[0])
    if not all(isinstance(token, str) for token in header["vocab"]):
        raise CheckpointError(f"{path}: vocabulary holds a token that is not a string")


def load_checkpoint(path):
    """Read and validate a checkpoint, one payload at a time into its own array.

    Every size is checked against the file's length before anything of that
    size is read or allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        version = int.from_bytes(fh.read(4), "little")
        if version != VERSION:
            raise CheckpointError(f"{path}: format version {version}, expected {VERSION}")
        header_len = int.from_bytes(fh.read(8), "little")
        offset = len(MAGIC) + 12
        if offset + header_len > size:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        offset += header_len
        _check_header(path, header)

        arrays = {}
        for name, shape, dtype in header["manifest"]:
            if dtype != _DTYPE_TAG:
                raise CheckpointError(f"{path}: unsupported dtype {dtype!r} for {name}")
            nbytes = math.prod(shape) * 4  # Python ints: a huge shape cannot overflow
            if offset + nbytes > size:
                raise CheckpointError(f"{path}: truncated payload for {name}")
            try:
                arr = np.empty(shape, dtype=_DTYPE_TAG)
            except ValueError:  # a zero-size shape whose other dimensions numpy cannot index
                raise CheckpointError(f"{path}: shape {shape} of {name} is too large") from None
            fh.readinto(arr)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name} holds a NaN or infinite value")
            arrays[name] = arr
            offset += nbytes
    if offset != size:
        raise CheckpointError(f"{path}: {size - offset} trailing bytes after payloads")
    return Checkpoint(arrays=arrays, config=header["config"], vocab=header["vocab"])


def save_model(path, model, vocab):
    save_checkpoint(path, {name: p.data for name, p in model.named_parameters().items()},
                    model.cfg.to_dict(), vocab.id_to_token)


def restore_model(path):
    """Rebuild the model a checkpoint describes around the file's own arrays.

    The stored tensor names and shapes are checked against ``parameter_shapes``
    of the stored config before any model is made; nothing is drawn at random.
    """
    ckpt = load_checkpoint(path)
    cfg = RunConfig.from_dict(ckpt.config)
    vocab = Vocab(ckpt.vocab)
    shapes = model_mod.parameter_shapes(cfg, len(vocab))
    if set(shapes) != set(ckpt.arrays):
        raise CheckpointError(
            f"{path}: checkpoint tensors {sorted(ckpt.arrays)} do not match model tensors {sorted(shapes)}")
    params = {}
    for name, shape in shapes.items():
        arr = ckpt.arrays[name]
        if arr.shape != shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: file {arr.shape}, model {shape}")
        params[name] = T.Tensor(arr, requires_grad=True)
    return model_mod.Classifier(cfg, params), vocab, cfg
