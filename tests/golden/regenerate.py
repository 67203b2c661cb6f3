"""Regenerate the golden certificate file in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

The file is sorted JSON text that ``tests/test_certify.py`` recomputes and
compares exactly, so a changed entry shows up as a diff of this directory.
"""

import json
from pathlib import Path

from gnorm.certify import certify_family

HERE = Path(__file__).resolve().parent


def hypercube_family_text() -> str:
    """``certify_family("hypercube", [d])`` for d = 1..12, a list in d order."""
    entries = [certify_family("hypercube", [d]).to_json() for d in range(1, 13)]
    return json.dumps(entries, sort_keys=True, indent=1) + "\n"


if __name__ == "__main__":
    (HERE / "hypercube_family.json").write_text(hypercube_family_text())
