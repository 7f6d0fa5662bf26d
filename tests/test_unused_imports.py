"""Every module-level import in the library is used by its module.

The rule ``RULES["unused import"]`` of ``ast_guards`` checks each ``src/qfg``
module. ``__init__.py`` (whose imports are the public API) and imports marked
``# noqa: F401`` (deliberate re-exports) are exempt.
"""

import pytest

from ast_guards import RULES

UNUSED = RULES["unused import"]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n\nprint(pi)\n"
    assert UNUSED.violations(source) == ["line 1: os", "line 3: tau"]


@pytest.mark.parametrize("path", UNUSED.modules, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert UNUSED.check(path) == []
