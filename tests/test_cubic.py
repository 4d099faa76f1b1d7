import numpy as np

from kernelspectra.cubic import solve_cubic_many


def poly_val(coeffs, x):
    out = 0j
    for c in coeffs:
        out = out * x + c
    return out


def test_quadratic_roots_random():
    # a vanishing leading coefficient leaves the quadratic's two roots and inf
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        roots = solve_cubic_many(0.0, *c)
        assert np.sum(np.isinf(roots)) == 1
        finite = roots[np.isfinite(roots)]
        for r in finite:
            assert abs(poly_val(c, r)) < 1e-10 * max(1.0, *np.abs(c))
        # compare against the companion-matrix solver as an oracle
        ref = np.sort_complex(np.roots(c))
        assert np.allclose(np.sort_complex(finite), ref, atol=1e-7)


def test_quadratic_polish_overflow_gives_inf_not_nan():
    # the Newton polish at the placeholder of the infinite root overflows
    roots = solve_cubic_many(0.0, 0.25, 1e-300, 0.25)
    assert np.sum(np.isinf(roots)) == 1
    assert np.allclose(np.sort_complex(roots[np.isfinite(roots)]), [-1j, 1j], atol=1e-15)


def test_cubic_roots_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        roots = solve_cubic_many(*c)
        assert roots.shape == (3,)
        for r in roots:
            assert abs(poly_val(c, r)) < 1e-9 * max(1.0, *np.abs(c))
        # compare against the companion-matrix solver as an oracle
        ref = np.sort_complex(np.roots(c))
        assert np.allclose(np.sort_complex(roots), ref, atol=1e-7)


def test_cubic_repeated_roots():
    # (x - 1)^3 = x^3 - 3x^2 + 3x - 1
    roots = solve_cubic_many(1.0, -3.0, 3.0, -1.0)
    assert np.allclose(roots, 1.0, atol=1e-5)


def test_small_leading_coefficient_keeps_the_other_roots():
    # x^2 - 3x + 2 plus a 1e-9 cubic term: roots near 1 and 2 stay exact
    # to roundoff, and the third sits near -1e9
    c3 = 1e-9
    roots = np.sort_complex(solve_cubic_many(c3, 1.0, -3.0, 2.0))
    for r in roots:
        assert abs(poly_val([c3, 1.0, -3.0, 2.0], r)) < 1e-12 * max(1.0, c3 * abs(r) ** 3)
    assert abs(roots[0] + 1e9) < 10.0
    assert np.allclose(roots[1:], [1.0, 2.0], rtol=1e-14)


def test_vectorized_matches_scalar():
    # each column of a batched solve matches the oracle on that cubic alone
    rng = np.random.default_rng(2)
    c3 = 0.7 - 0.2j
    c0 = 1.0 + 0.0j
    c2 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    c1 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    many = solve_cubic_many(c3, c2, c1, c0)
    assert many.shape == (3, 50)
    for i in range(50):
        ref = np.sort_complex(np.roots([c3, c2[i], c1[i], c0]))
        assert np.allclose(np.sort_complex(many[:, i]), ref, atol=1e-8)
    many_q = solve_cubic_many(0.0, c2[0], c1, c0)
    for i in range(50):
        finite = many_q[:, i][np.isfinite(many_q[:, i])]
        ref = np.sort_complex(np.roots([c2[0], c1[i], c0]))
        assert np.allclose(np.sort_complex(finite), ref, atol=1e-8)
