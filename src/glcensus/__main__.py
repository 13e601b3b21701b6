"""``python -m glcensus ...``: the same command line as the glcensus script."""

import sys

from glcensus.cli import main

sys.exit(main())
