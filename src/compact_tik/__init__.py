"""Tikhonov regularization on compact solution sets, with a CT test bench.

Regularized solutions of ill-posed linear problems are computed two ways:
the classical unconstrained Tikhonov minimizer (conjugate gradients on
the normal equations, preconditioned for a single alpha), and a minimizer over compact sets of nonnegative
images generated by bounded-weight coordinate MLPs. The experiment layer
measures how the reconstruction error decays with the noise level and
compares the fitted rate to the predicted power laws.

The package root exports nothing but ``__version__``: code imports the
modules (``compact_tik.radon``, ``compact_tik.experiment`` and so on), so a
process loads only the modules its command runs.
"""

__version__ = "0.1.0"
