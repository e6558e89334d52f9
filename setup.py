"""Build script: compiles the optional C extension with the enumeration kernel.

The package is fully functional without it: when the extension cannot be
built, the install goes on and the pure-Python kernel is used instead.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("mexmoments._speed", ["src/mexmoments/_speed.c"], optional=True)])
