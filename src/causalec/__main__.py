"""``python -m causalec``: the command-line harness."""

import sys

from .harness import main

sys.exit(main())
