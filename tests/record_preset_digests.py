"""Re-record ``tests/preset_digests.json`` from the current source.

Run from the repository root as
``PYTHONPATH=src python tests/record_preset_digests.py``. It runs every
preset case of ``test_preset_digests.py`` in a temporary directory and
writes the digests with the numpy and scipy versions they were made with.
"""

import json
import tempfile
from pathlib import Path

from test_preset_digests import DIGESTS, RUNS, preset_digests, run_key, versions


def main() -> None:
    runs = {}
    for preset, every in RUNS:
        with tempfile.TemporaryDirectory() as directory:
            runs[run_key(preset, every)] = preset_digests(preset, every, Path(directory))
    DIGESTS.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {DIGESTS}: {sum(len(files) for files in runs.values())} digests")


if __name__ == "__main__":
    main()
