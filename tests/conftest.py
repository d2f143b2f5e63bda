"""Session set-up shared by every test module.

When a hypothesis property fails, hypothesis reports it through
hypothesis.extra._patching, which imports libcst where libcst is
installed.  On a host whose libcst import warns (mypy_extensions.TypedDict
is deprecated), `-W error` turns that warning into an exception inside
the report hook, and pytest ends the whole session with an INTERNALERROR
instead of reporting one failed test.  Importing the module once here,
with only DeprecationWarning ignored, takes the import out of the report.
An ini filterwarnings entry or a module-level warnings filter would not
do: pytest applies the command-line -W after both.  Without libcst the
import fails, and nothing is needed.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
