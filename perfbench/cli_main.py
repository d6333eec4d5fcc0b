"""Entry point for one measured ``dckit`` CLI process.

Does what the installed ``dckit`` console script does (``dckit.cli:main``), and
writes the ``time.monotonic()`` reading taken right after ``import dckit.cli``
to the file named by ``--imported-at``, so the parent can split set-up time into
interpreter start plus import, and the pipeline stages. Usage:

    python perfbench/cli_main.py --imported-at STAMP_FILE condense --config ...
"""
import sys
import time

import dckit.cli

if __name__ == "__main__":
    imported_at = time.monotonic()
    if len(sys.argv) < 3 or sys.argv[1] != "--imported-at":
        sys.exit("usage: cli_main.py --imported-at STAMP_FILE <dckit arguments>")
    with open(sys.argv[2], "w") as fh:
        fh.write(repr(imported_at))
    sys.exit(dckit.cli.main(sys.argv[3:]))
