"""Package metadata for the ``repro`` FDB reproduction.

The code lives under ``src/``; the version is read from
``src/repro/__init__.py`` without importing the package.  numpy is
optional: every vectorised kernel has a stdlib twin, so the ``numpy``
extra only selects the faster realisation (CI runs one job with it and
one without).

    python setup.py develop        # editable install without wheel
    pip install -e ".[numpy]"      # where wheel is available
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "src", "repro", "__init__.py")) as handle:
    VERSION = re.search(
        r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE
    ).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "FDB: a query engine for factorised relational databases"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"numpy": ["numpy"]},
)
