"""``python -m echometry``: the command-line interface of :mod:`echometry.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
