"""``python -m gaplab``: the same command line as the ``gaplab`` script."""

import sys

from .cli import main

sys.exit(main())
