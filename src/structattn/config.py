"""Flat key=value run configuration shared by the CLI commands.

A config file holds ``key = value`` lines ('#' starts a comment); command-line
``--set key=value`` overrides win over file values. ``RunConfig`` declares
every key once: a field's type decides how its value is read and checked, and
a field without a default is a key every run must provide. Unknown keys are
rejected.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .data import numbered_lines

HEAD_KINDS = ("dense", "pruned", "gated-pair")


class ConfigError(Exception):
    pass


def _read_bool(raw):
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


# Declared field type -> (accepted Python types, as values may come from JSON;
# reader of a ``key = value`` string, which raises ValueError on a bad one).
_TYPES = {"int": (int, int), "float": ((int, float), float),
          "float | None": ((int, float, type(None)), lambda raw: None if raw.lower() == "none" else float(raw)),
          "bool": (bool, _read_bool), "str": (str, str)}


@dataclass
class RunConfig:
    # model; no sensible defaults exist for these, so every run must pin them
    d: int
    u: int
    d_a: int
    r: int
    head: str
    classes: int
    b: int = 2000
    p: int = 150
    q: int = 10
    k: int = 300
    # training
    optimizer: str = "sgd"
    learning_rate: float = 0.06
    batch_size: int = 16
    penalty_coeff: float = 1.0
    dropout: float = 0.5
    l2: float = 0.0001
    clip: float | None = 0.5
    max_epochs: int = 100
    patience: int = 10
    seed: int = 42
    # data
    min_count: int = 1
    lowercase: bool = False
    vocab_size: int = 10000  # used only when no corpus is loaded (parameter audits)
    # paths
    train_path: str = ""
    dev_path: str = ""
    embeddings_path: str = ""
    checkpoint_path: str = "model.ckpt"
    history_path: str = "history.csv"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, but a flag is never a count or a rate.
            if not isinstance(value, _TYPES[f.type][0]) or (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            # NaN and inf slip past every bound below; None is only ``clip = none``.
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.head not in HEAD_KINDS:
            raise ConfigError(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if self.optimizer not in ("sgd", "adagrad"):
            raise ConfigError(f"optimizer must be sgd or adagrad, got {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.penalty_coeff < 0:
            raise ConfigError("penalty_coeff must be >= 0")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.clip is not None and self.clip <= 0:
            raise ConfigError("clip must be > 0 or none")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        # Every int key is a size or a count, except the seed.
        for f in fields(self):
            if f.type == "int" and f.name != "seed" and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """The validated config of a ``{key: value}`` dict that holds every
        required key and no unknown one."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"missing required config keys: {missing}")
        return cls(**d).validate()


def parse_value(key, raw):
    """The value of config key ``key`` read from the string ``raw`` by the key's declared type."""
    raw = raw.strip()
    try:
        return _TYPES[{f.name: f.type for f in fields(RunConfig)}[key]][1](raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_assignments(lines, source):
    """Parse ``key = value`` pairs, rejecting unknown keys."""
    known = {f.name for f in fields(RunConfig)}
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = parse_value(key, raw)
    return out


def load_run_config(path=None, overrides=()):
    """Build a RunConfig from an optional file plus ``key=value`` overrides."""
    values = {}
    if path is not None:
        try:
            values.update(parse_assignments((line for _, line in numbered_lines(path, ConfigError)), str(path)))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values.update(parse_assignments(list(overrides), "--set"))
    # Pair-task regime trains without extra regularization unless asked for.
    if values.get("head") == "gated-pair":
        values.setdefault("dropout", 0.0)
        values.setdefault("l2", 0.0)
    return RunConfig.from_dict(values)
