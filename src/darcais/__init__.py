"""Exact arithmetic for D'Arcais polynomials and non-root certification.

The package computes the polynomial family generated by
exp(X * sum g(k) q**k / k) for integer-valued arithmetic functions g,
factors the integer-scaled members over prime fields, analyzes prime
splitting in the fields generated by shifted roots of unity and shifted
quadratic irrationals, and combines the two into reproducible
certificates that specific algebraic integers are not roots.
"""

__version__ = "0.1.0"

from .arith import (
    ArithmeticFunction,
    euler_phi,
    is_prime,
    legendre_symbol,
    sigma,
)
from .certify import (
    Certificate,
    CertifyConfig,
    GridResult,
    Scope,
    ZmijaReport,
    certify,
    certify_all_n,
    certify_exact,
    certify_generic,
    certify_han_bound,
    certify_theorem_gaussian_sigma,
    certify_theorem_not_ramified,
    certify_theorem_translated,
    check_zmija_conditions,
    scan_grid,
    verify_certificate,
)
from .errors import DarcaisError, DomainError, TableExhaustedError
from .numfield import (
    CyclotomicShift,
    QuadraticShift,
    SplittingReport,
    dedekind_kummer_split,
    parse_candidate,
    ramifies,
)
from .polymod import (
    Factorization,
    ModPoly,
    a_poly_mod,
    factor,
    factor_a_poly_mod,
    is_irreducible,
    reduce_mod,
)
from .polynomial import IntPoly, cyclotomic, format_poly
from .series import (
    a_poly,
    hurwitz_check,
    tau,
    tau_list,
)

__all__ = [
    "ArithmeticFunction",
    "Certificate",
    "CertifyConfig",
    "CyclotomicShift",
    "DarcaisError",
    "DomainError",
    "Factorization",
    "GridResult",
    "IntPoly",
    "ModPoly",
    "QuadraticShift",
    "Scope",
    "SplittingReport",
    "TableExhaustedError",
    "ZmijaReport",
    "a_poly",
    "a_poly_mod",
    "certify",
    "certify_all_n",
    "certify_exact",
    "certify_generic",
    "certify_han_bound",
    "certify_theorem_gaussian_sigma",
    "certify_theorem_not_ramified",
    "certify_theorem_translated",
    "check_zmija_conditions",
    "cyclotomic",
    "dedekind_kummer_split",
    "euler_phi",
    "factor",
    "factor_a_poly_mod",
    "format_poly",
    "hurwitz_check",
    "is_irreducible",
    "is_prime",
    "legendre_symbol",
    "parse_candidate",
    "ramifies",
    "reduce_mod",
    "scan_grid",
    "sigma",
    "tau",
    "tau_list",
    "verify_certificate",
]
