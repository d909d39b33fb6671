"""Frozen punctuation table of the counting tokenizer (SURVEY.md §2.7
item 1): every code point whose unicode category starts with ``P``, as
the inclusive ranges in ``crawtext_ray/resources/punctuation_ranges.txt``.

Scanning all 1.1M code points costs ~0.4 s per process, so the tokenizer
reads the frozen ranges instead. Regenerate (after a unicodedata upgrade,
reviewed like a golden change) with ``python -m tools.freeze_punct``;
``--check`` compares the resource with this interpreter's scan.
"""

from __future__ import annotations

import argparse
import os
import sys
import unicodedata

RESOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "crawtext_ray", "resources", "punctuation_ranges.txt")


def scan_ranges() -> list[tuple[int, int]]:
    """Inclusive (first, last) runs of P* code points, ascending."""
    runs: list[tuple[int, int]] = []
    for cp in range(sys.maxunicode + 1):
        if unicodedata.category(chr(cp)).startswith("P"):
            if runs and runs[-1][1] == cp - 1:
                runs[-1] = (runs[-1][0], cp)
            else:
                runs.append((cp, cp))
    return runs


def render(runs: list[tuple[int, int]]) -> str:
    lines = [f"# unicode {unicodedata.unidata_version} category P*, inclusive "
             "hex ranges (python -m tools.freeze_punct)"]
    lines += [f"{a:04X}" if a == b else f"{a:04X}-{b:04X}" for a, b in runs]
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    text = render(scan_ranges())
    if args.check:
        with open(RESOURCE, encoding="utf-8") as f:
            same = f.read() == text
        print("OK" if same else "DIFF")
        return 0 if same else 1
    with open(RESOURCE, "w", encoding="utf-8") as f:
        f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
