#!/usr/bin/env python3
"""Print one line per CLI run: its exit status and the SHA-256 of all it wrote.

    python3 scripts/output_digests.py [CHECKOUT]

Draws 66 runs in-process through ``lombardi.cli.main`` with ``--format
both``: the 12 fixtures in subcubic and in medial mode, and the 21
benchmark inputs (``perfbench/run.build_family``) at family seeds 0 and 1,
each in its workload's mode.  The library, the fixtures and the benchmark
family all come from CHECKOUT (default: the checkout holding this script),
so two checkouts can be compared by running this script on each and
diffing the output.  Each line names the run and gives the digests of its
stdout and stderr (with the output directory written as OUT) and of each
file written; a file the run did not write reads ``-``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def runs(root: Path):
    """(name, mode, input text) of every run, in a fixed order."""
    from lombardi import graph

    import run as perfbench_run

    fixtures = sorted((root / "fixtures").glob("*.txt"))
    for path in fixtures:
        for mode in ("subcubic", "medial"):
            yield path.stem, mode, path.read_text()
    for seed in (0, 1):
        for workload in sorted(perfbench_run.WORKLOADS):
            mode = perfbench_run.WORKLOADS[workload][0]
            for name, text in perfbench_run.build_family(graph, workload, seed).items():
                yield f"{workload}/{name}@{seed}", mode, text


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from lombardi import cli

    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, mode, text in runs(root):
            base = Path(tmp) / name.replace("/", "_").replace("@", "_")
            src = base.with_suffix(".txt")
            src.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main([str(src), "--mode", mode, "--format", "both", "--output", str(base)])
            files = []
            for kind in ("svg", "json"):
                path = base.with_suffix(f".{kind}")
                files.append(f"{kind}={digest(path.read_bytes() if path.exists() else None)}")
                path.unlink(missing_ok=True)
            printed = [s.getvalue().replace(tmp, "OUT").encode() for s in (out, err)]
            print(f"{name} {mode} exit={status} stdout={digest(printed[0])} stderr={digest(printed[1])} "
                  + " ".join(files))
            count += 1
    print(f"{count} runs of {Path(cli.__file__).parent}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
