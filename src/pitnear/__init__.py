"""Pitman-nearness comparison of estimators for order-restricted bivariate
location and scale parameters.

The package namespace is the union of its modules' public names.
"""

from .errors import *
from .estimators import *
from .gpn import *
from .models import *
from .specfun import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + estimators.__all__ + gpn.__all__
           + models.__all__ + specfun.__all__)
