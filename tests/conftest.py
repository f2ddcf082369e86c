"""Suite-wide set-up.

The Hypothesis plugin imports `hypothesis.extra._patching` only when a
property fails, to print the falsifying example and a patch for it.  That
import pulls in libcst, whose `mypy_extensions.TypedDict` emits a
DeprecationWarning, and under the suite's `filterwarnings = ["error"]` the
warning turns the report into an INTERNALERROR that hides the example.
Importing the module once here, with that warning ignored, keeps the error
filter for everything else.  libcst is an optional extra of Hypothesis;
without it the plugin skips the import too, so there is no warning to catch.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
