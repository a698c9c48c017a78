"""Entry point for ``python -m repro``."""

import sys

from repro.cli import process_main

sys.exit(process_main())
