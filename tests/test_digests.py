"""Every line of the digest ledger writes the files it pins, byte for byte.

`tests/digests.json` holds, per argv line, the exit code and the sha256 of
every output file; `tests/make_digests.py` writes it and documents its
lines.  This test reads only the ledger.
"""

import json
from pathlib import Path

from make_digests import LEDGER, run_line


def test_every_ledger_line_writes_its_pinned_files(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert len(ledger) > 800
    differ = [line for i, (line, want) in enumerate(ledger.items())
              if run_line(line, tmp_path / str(i)) != want]
    assert not differ, f"{len(differ)} ledger lines differ: {differ}"
