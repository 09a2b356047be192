"""Reproduce the pick of A2, the closure-a2 workload's table.

A2 is the order-5 isomorphism class whose clone of arity-3 term functions
is the largest.  This walks all 1,915 classes from `enumerate --order 5
--mode iso` and counts each one's arity-3 term functions.  It takes about
9 minutes on a 2-core host, almost all of it in the enumeration.

Run from the repository root:

    python3 perfbench/pick_a2.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eqdomain.enumeration import enumerate_tables  # noqa: E402
from eqdomain.terms import term_functions  # noqa: E402


def main() -> int:
    classes = 0
    best_count, best = -1, []
    for S in enumerate_tables(5, "up_to_iso"):
        classes += 1
        count = len(term_functions(S, 3))
        if count > best_count:
            best_count, best = count, [S.table]
        elif count == best_count:
            best.append(S.table)
    print(
        json.dumps(
            {
                "classes": classes,
                "arity3_functions": best_count,
                "tables_at_max": [[list(r) for r in t] for t in best],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
