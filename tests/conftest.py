"""Make the shared test helpers (``support.py``) importable everywhere.

This is the one sanctioned ``sys.path`` edit for the test tree: every
test module imports ``support`` (and friends) relying on this conftest
instead of repeating a per-file ``sys.path.insert``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
