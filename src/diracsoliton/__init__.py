"""Floquet-Bloch band structures, Dirac points and Dirac solitons in 1D.

The pipeline: diagonalize the periodic operator (bloch), certify a band
crossing and its effective coefficients (dirac), evaluate the envelope
soliton of the reduced spinor system (homoclinic), assemble the
two-scale candidate field (ansatz), and correct it to a true solution
by Newton iteration (newton).  The cli module drives everything.  The
package exports the names of the README's library example; every other
stage function is imported from its module.
"""

from .bloch import FourierCutoff, ParityClass, PeriodicPotential
from .dirac import certify_dirac_point
from .homoclinic import NLDParams, integrate_homoclinic

__version__ = "0.1.0"
