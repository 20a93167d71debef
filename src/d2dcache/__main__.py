"""python -m d2dcache: the d2dcache command line (cli.main)."""

import sys

from .cli import main

sys.exit(main())
