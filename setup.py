from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    # No Cython: build the tracked C file generated from the .pyx.  Without a
    # C compiler the package falls back to the interpreted finder.
    ext_modules = [
        Extension("k5minus._finder_c", ["src/k5minus/_finder_c.c"], optional=True)
    ]
else:
    ext_modules = cythonize(
        [Extension("k5minus._finder_c", ["src/k5minus/_finder_c.pyx"])],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
