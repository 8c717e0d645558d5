"""``python -m sgpd``: the same command-line front end as the ``sgpd`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
