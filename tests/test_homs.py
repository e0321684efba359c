import pytest

from softgamma import (
    ConstraintError,
    InputError,
    enumerate_sub_gamma_semirings,
    gamma_hom,
    identity_hom,
    is_gamma_homomorphism,
    is_sub_gamma_semiring,
    kernel,
    make_zn_gamma,
)


def mod_map(n, m):
    return {str(i): str(i % m) for i in range(n)}


def test_identity_map_is_a_homomorphism(z8):
    assert is_gamma_homomorphism({e: e for e in z8.elements}, z8, z8)


def test_gamma_mismatch_is_an_input_error():
    source = make_zn_gamma(4, (0, 1, 2, 3))
    target = make_zn_gamma(2, (0, 1))
    with pytest.raises(InputError):
        is_gamma_homomorphism(mod_map(4, 2), source, target)


def test_mod4_collapse_with_shared_gamma():
    source = make_zn_gamma(8, (2,))
    target = make_zn_gamma(4, (2,))
    # oracle: exhaust both preservation identities over all pairs/triples
    for a in range(8):
        for b in range(8):
            assert (a + b) % 8 % 4 == (a % 4 + b % 4) % 4
            assert (a * 2 * b) % 8 % 4 == ((a % 4) * 2 * (b % 4)) % 4
    assert is_gamma_homomorphism(mod_map(8, 4), source, target)


def test_shifted_map_is_rejected():
    gs = make_zn_gamma(4, (1,))
    shifted = {str(i): str((i + 1) % 4) for i in range(4)}
    assert not is_gamma_homomorphism(shifted, gs, gs)
    with pytest.raises(ConstraintError):
        gamma_hom(gs, gs, shifted)


def test_additive_map_that_breaks_the_product_is_rejected():
    gs = make_zn_gamma(8, (1,))
    times_three = {str(i): str(3 * i % 8) for i in range(8)}
    # x -> 3x preserves +, but f(1·1·1) = 3 while f(1)·1·f(1) = 9 mod 8 = 1
    assert all(3 * (a + b) % 8 == (3 * a + 3 * b) % 8 for a in range(8) for b in range(8))
    assert not is_gamma_homomorphism(times_three, gs, gs)
    with pytest.raises(ConstraintError):
        gamma_hom(gs, gs, times_three)


def test_partial_map_is_an_input_error(z8):
    partial = {e: e for e in z8.elements[:-1]}
    with pytest.raises(InputError):
        is_gamma_homomorphism(partial, z8, z8)


class TestKernel:
    def test_mod4_collapse_kernel(self):
        source = make_zn_gamma(8, (2,))
        target = make_zn_gamma(4, (2,))
        hom = gamma_hom(source, target, mod_map(8, 4))
        assert set(kernel(hom)) == {"0", "4"}

    def test_identity_kernel_is_zero(self, z8):
        assert kernel(identity_hom(z8)) == ("0",)

    def test_constant_zero_map_has_full_kernel(self):
        gs = make_zn_gamma(4, (1, 2))
        hom = gamma_hom(gs, gs, {e: "0" for e in gs.elements})
        assert set(kernel(hom)) == set(gs.elements)

    def test_missing_target_zero_is_an_input_error(self, z8):
        from softgamma import GammaSemiring

        no_zero = GammaSemiring(z8.s, z8.gamma_elements, None, z8.product, zero=None)
        hom = gamma_hom(no_zero, no_zero, {e: e for e in no_zero.elements})
        with pytest.raises(InputError):
            kernel(hom)


def test_image_of_subsemiring_is_a_subsemiring():
    source = make_zn_gamma(8, (2,))
    target = make_zn_gamma(4, (2,))
    hom = gamma_hom(source, target, mod_map(8, 4))
    for sub in enumerate_sub_gamma_semirings(source):
        image = {hom.apply(e) for e in sub}
        assert is_sub_gamma_semiring(target, image)


def test_surjectivity_and_injectivity_flags():
    source = make_zn_gamma(8, (2,))
    target = make_zn_gamma(4, (2,))
    collapse = gamma_hom(source, target, mod_map(8, 4))
    assert collapse.surjective and not collapse.injective
    ident = identity_hom(source)
    assert ident.surjective and ident.injective
