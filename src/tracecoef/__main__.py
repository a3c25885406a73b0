"""`python -m tracecoef ...`: the same command line as the `tracecoef` script."""
import sys

from .cli import main

sys.exit(main())
