"""One workload's set-up in a fresh interpreter: import the CLI, write the inputs.

    python3 perfbench/prepare.py WORKLOAD SEED OUTDIR

run.py times this from process start to exit and reports the median of
several starts as setup_s.  closure-a2 needs the seeded relabeling of A2 as a
table file; the other workloads have no input beyond their flags.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eqdomain.cli  # noqa: E402,F401
from inputs import A2, format_table, permutation, relabel  # noqa: E402


def main(workload: str, seed: str, outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "closure-a2":
        table = relabel(A2, permutation(int(seed), len(A2)))
        (out / "a2.txt").write_text(format_table(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
