"""`python -m ramseylab ...` runs the command line and exits with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
