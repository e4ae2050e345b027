"""`solve` reproduces its recorded output, byte for byte, on a seeded corpus.

The corpus is 240 generated instances: each generator kind at 3×6 and 4×8,
generator seeds 0–39.  Each instance is solved in-process through `cli.main`
at `--target auto`, at 2·T*, at 4·T* and at 0, with `--trace` and `--out`.
A run is hashed with SHA-256 over its exit code, its report without
`wall_time_seconds`, its standard error and both files.  The recorded hashes
are in `tests/data/golden_solve.json`; a change that alters any of them must
say why, then re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from maxminfair import cli, generate_instance
from maxminfair.generators import KINDS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_solve.json"
SIZES = ((3, 6), (4, 8))
SEEDS = range(40)
TARGETS = ("auto", "2T*", "4T*", "0")
_WALL_TIME = re.compile(r'\n *"wall_time_seconds": [^\n]*')


def _read(path: Path):
    return path.read_text(encoding="utf-8") if path.exists() else None


def _run(workdir: Path, instance_path: Path, target: str) -> tuple[str, str]:
    """One `solve` run: its hash and its standard output."""
    trace, out = workdir / "trace.jsonl", workdir / "out.json"
    for path in (trace, out):
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(
            [
                "solve",
                "--instance", str(instance_path),
                "--target", target,
                "--trace", str(trace),
                "--out", str(out),
            ]
        )
    text = stdout.getvalue()
    payload = [code, _WALL_TIME.sub("", text), stderr.getvalue(), _read(trace), _read(out)]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest(), text


def corpus_hashes() -> dict[str, dict[str, str]]:
    """{"<kind> <players>x<resources> seed <seed>": {target label: hash}}."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        instance_path = workdir / "instance.json"
        for kind in KINDS:
            for players, resources in SIZES:
                for seed in SEEDS:
                    instance = generate_instance(kind, players, resources, seed)
                    instance_path.write_text(json.dumps(instance.to_json_dict()))
                    runs = {}
                    runs["auto"], report = _run(workdir, instance_path, "auto")
                    t_star = Fraction(json.loads(report)["t_star"]["value"])
                    for label, target in (("2T*", 2 * t_star), ("4T*", 4 * t_star), ("0", 0)):
                        runs[label], _ = _run(workdir, instance_path, str(target))
                    hashes[f"{kind} {players}x{resources} seed {seed}"] = runs
    return hashes


def test_solve_matches_the_recorded_corpus():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = corpus_hashes()
    assert list(actual) == list(recorded)
    changed = [
        f"{case} at target {label}"
        for case, runs in recorded.items()
        for label in TARGETS
        if actual[case][label] != runs[label]
    ]
    assert not changed, f"{len(changed)} runs changed, first: {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus_hashes(), indent=1) + "\n", encoding="utf-8")
