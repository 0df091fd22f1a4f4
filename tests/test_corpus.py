"""Output bits as a checked contract: the report-digest corpus.

``tests/golden/corpus.sha256`` holds one line per report: the exit code, the
SHA-256 of the report's bytes and the argv, shell-quoted.  The corpus covers
``check --suite all`` and ``transform --biflat`` of every catalog entry at
seeds 3 and 7 (5 points), README's ``orbit`` and ``darboux`` at both seeds,
and the n = 8 transform and the n = 16 flatness check that CI runs.

It is re-recorded only on purpose, under the same rule as the golden reports,
with ``PYTHONPATH=src python tests/test_corpus.py``; CHANGES.md then names
every report whose digest moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import shlex

from recipfm.catalog import catalog_entries
from recipfm.cli import main

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.sha256"
SEEDS = (3, 7)
ORBIT = ["orbit", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
         "--gen0", "1/(u2-u1)", "--composite", "exp(u1)/(u2-u1)"]
DARBOUX = ["darboux", "--frame-builtin", "eps2", "--eps", "1", "--density", "1/(u2-u1)"]
CI_CALLS = [
    ["transform", "--builtin", "eps-system", "--dim", "8", "--eps", "1",
     "--density", "1/((u1-u2)*(u1-u3)*(u1-u4)*(u1-u5)*(u1-u6)*(u1-u7)*(u1-u8))",
     "--biflat", "--seed", "42", "--num-points", "5"],
    ["check", "--builtin", "eps-system", "--dim", "16", "--eps", "0.5", "--suite", "flatness,dual,sh",
     "--num-points", "3"],
]


def corpus_argvs() -> list[list[str]]:
    """Every argv of the corpus, in the file's order."""
    out = []
    for seed in SEEDS:
        points = ["--seed", str(seed), "--num-points", "5"]
        for e in catalog_entries():
            system = ["--builtin", "eps-system", "--dim", str(e.dim), "--eps", repr(e.eps), "--catalog", e.entry_id]
            out += [["check", *system, "--suite", "all", *points], ["transform", *system, "--biflat", *points]]
        out += [[*ORBIT, "--seed", str(seed)], [*DARBOUX, "--seed", str(seed)]]
    return out + CI_CALLS


def corpus_line(argv: list[str]) -> str:
    """'<exit code> <sha256 of the report> <argv>' for one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()} {shlex.join(argv)}"


def test_every_report_keeps_its_digest():
    recorded = {line.split(" ", 2)[2]: line for line in CORPUS.read_text().splitlines()}
    lines = [corpus_line(argv) for argv in corpus_argvs()]
    moved = [line.split(" ", 2)[2] for line in lines if recorded.get(line.split(" ", 2)[2]) != line]
    gone = sorted(set(recorded) - {line.split(" ", 2)[2] for line in lines})
    assert not moved and not gone, f"moved: {moved}; no longer in the corpus: {gone}"
    assert len(lines) == 178 == len(recorded)


if __name__ == "__main__":
    CORPUS.write_text("".join(corpus_line(argv) + "\n" for argv in corpus_argvs()))
