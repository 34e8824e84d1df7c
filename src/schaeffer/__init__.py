"""Numerical study of determinant-inverse growth over power-bounded matrices.

Subpackages by topic:

* ``blaschke``     coefficients and sequence norms of b_lambda^n and
                   (1 - z^2) b_lambda^n
* ``modelspace``   the explicit lower-triangular Toeplitz counterexample and
                   the Malmquist-Walsh basis rows of the model space, which
                   ``model_matrix`` and ``wiener_opt`` both read
* ``wiener_opt``   the truncated l1 interpolation program: the resolvent
                   interpolation norm, phi as its zeta = 0 case, the
                   coefficient-norm lower bound, sqrt(e n)
* ``resolvent``    the rho-parameterized resolvent bound family and its four
                   closed-form cases
* ``asymptotics``  saddle points, the seven-region decay table, stationary
                   phase and the uniform Airy expansion
* ``acceptance``   the numbered acceptance criteria
* ``cli``          the ``schaeffer`` command-line harness
"""

from .spectra import SpectrumSpec

__all__ = ["SpectrumSpec"]
__version__ = "0.1.0"
