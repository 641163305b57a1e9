"""The three LAPACK routines the package calls, taken from scipy's compiled
LAPACK module without importing the scipy.linalg package.

dgbtrf/dgbtrs serve Newton and the Jacobian's eigenvalue, dsbevd the NLD
kernel check.  They are the f2py wrappers that scipy.linalg.lapack
re-exports.  Loading the one extension module costs about 20 ms;
importing scipy.linalg costs 0.2-0.3 s, most of it scipy's array-API
layer loading numpy.f2py, numpy.testing and numpy.random, and another
~50 ms to tear those down at exit.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy  # its package init sets up the bundled BLAS

_NAME = "scipy.linalg._flapack"

_flapack = sys.modules.get(_NAME)
if _flapack is None:
    _spec = importlib.machinery.PathFinder.find_spec(
        _NAME, [os.path.join(os.path.dirname(scipy.__file__), "linalg")]
    )
    if _spec is None:
        raise ImportError(f"no {_NAME} extension in scipy {scipy.__version__}")
    _flapack = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_flapack)

dgbtrf, dgbtrs, dsbevd = _flapack.dgbtrf, _flapack.dgbtrs, _flapack.dsbevd
