"""`python -m choremms`: the command-line interface, from a checkout too."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
