"""Numerical study of determinant-inverse growth over power-bounded matrices.

Modules by topic:

* ``spectra``      finite spectra in the closed unit disk, with multiplicities
* ``errors``       the exception types the package raises
* ``blaschke``     coefficients and sequence norms of b_lambda^n and
                   (1 - z^2) b_lambda^n
* ``modelspace``   the compressed shift of the model space in closed form
                   (the explicit lower-triangular Toeplitz counterexample
                   for a singleton spectrum) and the Malmquist-Walsh basis
                   rows, which ``model_matrix`` and ``wiener_opt`` both read
* ``simplex``      the dense l1 simplex, its vertex and dual in long double
* ``wiener_opt``   the certified l1 interpolation program, its tails bounded
                   by the compressed shift: the resolvent interpolation
                   norm, phi as its zeta = 0 case, the coefficient-norm
                   lower bound, sqrt(e n)
* ``resolvent``    the rho-parameterized resolvent bound family and its four
                   closed-form cases
* ``airy``         Ai and Ai' on the real line, for a float or an array
* ``asymptotics``  saddle points from one picker, the seven-region decay
                   table, stationary phase and the uniform Airy expansion
* ``acceptance``   the numbered acceptance criteria
* ``cli``          the ``schaeffer`` command-line harness
"""

from .spectra import SpectrumSpec

__all__ = ["SpectrumSpec"]
__version__ = "0.1.0"
