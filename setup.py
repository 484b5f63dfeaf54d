"""Legacy setup shim.

Without the ``wheel`` package, PEP-660 editable installs fail; this shim
lets ``pip install -e . --no-build-isolation`` fall back to
``setup.py develop``.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
