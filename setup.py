"""Setuptools shim for offline editable installs.

All metadata lives in ``pyproject.toml``.  With network access,
``pip install -e .`` is the install.  Offline, where the ``wheel``
package is missing, pip's editable installs fail (PEP 660 and
``--no-use-pep517`` alike need ``bdist_wheel``); the legacy develop
command needs neither, so install into a virtual environment that sees
the system's numpy::

    python -m venv --system-site-packages .venv
    .venv/bin/python setup.py develop
    .venv/bin/repro-lopacity --help
"""

from setuptools import setup

setup()
