from fractions import Fraction

from pseudoreal import CycloNum, ExtendedMoebius, Poly, RationalMap


def gauss(rng, span=3):
    """A random Gaussian-rational constant in Q(i)."""
    return CycloNum.gaussian(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))


def nonzero_gauss(rng, span=3):
    while True:
        v = gauss(rng, span)
        if not v.is_zero():
            return v


def random_poly(rng, degree, span=3):
    coeffs = [gauss(rng, span) for _ in range(degree)] + [nonzero_gauss(rng, span)]
    return Poly(coeffs)


def random_map(rng, degree, span=3):
    """A random exact rational map of the requested degree."""
    while True:
        numer = random_poly(rng, degree, span)
        denom = random_poly(rng, rng.randint(0, degree), span)
        try:
            phi = RationalMap.reduce(numer, denom)
        except Exception:
            continue
        if phi.degree == degree:
            return phi


def random_moebius(rng, span=3):
    """A random exact Moebius transformation over Q(i)."""
    while True:
        a, b, c, d = (gauss(rng, span) for _ in range(4))
        if not (a * d - b * c).is_zero():
            return ExtendedMoebius(a, b, c, d)


def rotation_form_map(rng, n, psi):
    """z * psi(z^n) as a rational map."""
    z = Poly.x(psi.field_order)
    return RationalMap.reduce(
        z * psi.numer.substitute_power(n), psi.denom.substitute_power(n)
    )
