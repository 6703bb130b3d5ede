import mpmath as mp
import numpy as np
import pytest

from zetakit import airy_model, chf_model, hurwitz_model, pcf_model, riemann_model
from zetakit.quadrature import quad_adaptive

mp.mp.dps = 50

# the specs that ``zetakit catalog`` lists
CATALOG_SPECS = [{"model": "riemann"}, {"model": "hurwitz", "a": 0.25}, {"model": "airy"},
                 {"model": "pcf", "a": 1.0}, {"model": "chf", "a": 0.5, "b": 1.5}]


@pytest.fixture(scope="session")
def riemann():
    return riemann_model()


@pytest.fixture(scope="session")
def airy():
    return airy_model()


@pytest.fixture(scope="session")
def hurwitz_quarter():
    return hurwitz_model(0.25)


@pytest.fixture(scope="session")
def pcf_one():
    return pcf_model(1.0)


@pytest.fixture(scope="session")
def chf_half():
    return chf_model(0.5, 1.5)


def rel_err(got, want, floor=1e-30):
    return abs(complex(got) - complex(want)) / max(abs(complex(want)), floor)


def ln_f_on_ray(model, t_target: float, t_anchor: float = 0.3) -> complex:
    """ln F(t e^{i psi}) by integrating the log-derivative from an anchor.

    Branch-continuous along the ray.  The anchor sits near the origin where
    ln F stays close to the stored sector value ln F(0), so the principal
    log of the evaluator is the sector branch there.
    """
    psi = model.asym.psi
    eipsi = np.exp(1j * psi)
    f0, _ = model.eval(t_anchor * eipsi)
    anchor = complex(np.log(complex(f0)))

    def integrand(t):
        return eipsi * np.asarray(model.log_deriv(np.asarray(t) * eipsi), dtype=complex)

    return anchor + quad_adaptive(integrand, t_anchor, t_target, abs_tol=1e-12)
