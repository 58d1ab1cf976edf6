import os
import sys

import pytest

# Make sibling helper modules (prop_suites) importable regardless of how
# pytest was invoked.
sys.path.insert(0, os.path.dirname(__file__))

# prop_suites is a helper, not a test module, so pytest would leave its
# asserts alone and ``python -O`` would strip them; rewriting keeps them.
pytest.register_assert_rewrite("prop_suites")
