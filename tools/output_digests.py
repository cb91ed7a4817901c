"""SHA-256 digests of every output of a seeded toy session.

Runs ``structattn.cli.main`` in a temporary directory on the synthetic keyword
and pair tasks with ``configs/toy.cfg`` at 3 epochs: five ``train`` runs
(dense, dense with dropout, pruned, dense without the penalty, gated-pair with
AdaGrad), a ``sweep`` over ``r`` and one over ``penalty_coeff``, and ``eval``,
``embed`` and ``visualize`` (both modes) for every checkpoint; then a dense
``train`` from a small pretrained vectors file. Prints one ``sha256  name``
line per output file and per command's stdout, so two checkouts (or two BLAS
thread counts) can be compared with ``diff``:

    OPENBLAS_NUM_THREADS=1 python tools/output_digests.py > digests-1.txt
    OPENBLAS_NUM_THREADS=2 python tools/output_digests.py > digests-2.txt

Takes no arguments. Every path is relative to the temporary directory, so the
stdout of each command is the same wherever the session runs.

``output_digests.txt`` beside this file holds the recorded lines, and the
test suite compares ``session()``'s lines with it. A deliberate change of an
output's bytes records the new lines:

    python tools/output_digests.py > tools/output_digests.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from structattn import cli, synth  # noqa: E402

TOY = ["--config", str(ROOT / "configs" / "toy.cfg"), "--set", "max_epochs=3"]
KEYWORDS = ["--set", "train_path=data/toy/train.txt", "--set", "dev_path=data/toy/dev.txt"]
PAIRS = ["--set", "train_path=data/pair/train.txt", "--set", "dev_path=data/pair/dev.txt"]
RUNS = {
    "dense": KEYWORDS,
    "dropout": KEYWORDS + ["--set", "dropout=0.3"],
    "pruned": KEYWORDS + ["--set", "head=pruned", "--set", "p=8", "--set", "q=4"],
    "nopenalty": KEYWORDS + ["--set", "penalty_coeff=0"],
    "pair": PAIRS + ["--set", "head=gated-pair", "--set", "k=16", "--set", "optimizer=adagrad"],
}
# every keyword, ten fillers, and one word outside the vocabulary, which is skipped
VECTOR_WORDS = [f"kw{c}_{j}" for c in range(2) for j in range(3)] + [f"f{i:02d}" for i in range(10)] + ["unseen"]
SENTENCES = ("kw0_0 f10 f20 f30\nkw1_1 f11 f12\nf13 f14 kw0_2 unseen f15 f16 f17\n"
             "ma f01 f02 & \"quoted\" <b>\nmb\n")


def run(name, *argv):
    """Run one command and return the digest line of its stdout; fail on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}")
    return f"{hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest()}  {name}.stdout"


def write_vectors(path):
    """Seeded vectors of dim 16, ``configs/toy.cfg``'s d, for ``VECTOR_WORDS``."""
    rng = np.random.default_rng(7)
    Path(path).write_text("".join(f"{word} {' '.join(f'{v:.6f}' for v in rng.uniform(-0.5, 0.5, 16))}\n"
                                  for word in VECTOR_WORDS), encoding="utf-8")


def digests(directory):
    """One digest line per file of ``directory``, in name order."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(Path(directory).iterdir())]


def session():
    """The toy session in the current directory; returns its digest lines."""
    lines = []
    with contextlib.redirect_stdout(io.StringIO()):
        synth.main(["--out-dir", "data/toy", "--seed", "7"])
        synth.main(["--out-dir", "data/pair", "--seed", "7", "--pairs"])
    os.mkdir("out")
    Path("sents.txt").write_text(SENTENCES, encoding="utf-8")
    for name, extra in RUNS.items():
        ckpt = f"out/{name}.ckpt"
        lines.append(run(f"train-{name}", "train", *TOY, *extra, "--set", f"checkpoint_path={ckpt}",
                         "--set", f"history_path=out/{name}_history.csv"))
        dev = "data/pair/dev.txt" if name == "pair" else "data/toy/dev.txt"
        lines.append(run(f"eval-{name}", "eval", "--checkpoint", ckpt, "--data", dev))
        lines.append(run(f"embed-{name}", "embed", "--checkpoint", ckpt, "--sentences", "sents.txt",
                         "--out", f"out/{name}_emb.csv"))
        for mode in ("overall", "per-hop"):
            lines.append(run(f"visualize-{name}-{mode}", "visualize", "--checkpoint", ckpt,
                             "--sentences", "sents.txt", "--mode", mode,
                             "--out-html", f"out/{name}_{mode}.html", "--out-csv", f"out/{name}_{mode}.csv"))
    lines.append(run("sweep-r", "sweep", *TOY, *KEYWORDS, "--param", "r", "--values", "1,3",
                     "--out", "out/sweep_r.csv"))
    lines.append(run("sweep-penalty", "sweep", *TOY, *KEYWORDS, "--param", "penalty_coeff", "--values", "0,0.5",
                     "--out", "out/sweep_penalty.csv"))
    lines += digests("out")
    # the pretrained-vectors run writes its own directory and comes last, so
    # every line above keeps its place
    write_vectors("vectors.txt")
    os.mkdir("vectors")
    lines.append(run("train-vectors", "train", *TOY, *KEYWORDS, "--set", "embeddings_path=vectors.txt",
                     "--set", "checkpoint_path=vectors/vectors.ckpt",
                     "--set", "history_path=vectors/vectors_history.csv"))
    return lines + digests("vectors")


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            lines = session()
        finally:
            os.chdir(home)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
