"""Acceptance gate: one test per shipped guarantee, one verdict line each
under pytest -v.  Budgets are wall-clock ceilings, generous on purpose; the
exact values are the contract.
"""

import time
from fractions import Fraction

from sympy import primerange

from cmbrauer.bounds import FORMULAS, GRH_IDS, compose_intro_bound, eval_bound
from cmbrauer.brauer import (
    GaloisFlags,
    brauer_shape_maximal,
    divisibility_bound,
    uniform_bound_EE,
)
from cmbrauer.cm_census import (
    EXCEPTIONAL_CM_COUNTS,
    cm_count_per_field,
    cm_count_total,
    conductor_bound,
    conductor_bound_over_degree,
)
from cmbrauer.grossencharakter import CurveOverQ, count_points_ap, estimate_m, psi_from_ap
from cmbrauer.lattices import (
    CMPair,
    LatticeDescriptor,
    disc_hom,
    disc_ns_kummer,
    disc_ns_product,
    parse_lattice,
)
from cmbrauer.minkowski import minkowski_M
from cmbrauer.quadratic import (
    FundamentalDiscriminant,
    Order,
    class_number_order,
    form_class_counts,
    is_fundamental_discriminant,
)

# pi to 40 digits, independent of the rounding module
PI_REF = Fraction(3141592653589793238462643383279502884197, 10 ** 39)


def _fields(limit: int):
    return [FundamentalDiscriminant(-m) for m in range(3, limit + 1)
            if is_fundamental_discriminant(-m)]


def test_criterion_01_minkowski_constant_exact_and_fast():
    best = 1.0
    for _ in range(5):
        minkowski_M.cache_clear()
        t0 = time.perf_counter()
        m = minkowski_M(20)
        best = min(best, time.perf_counter() - t0)
    assert m.value == 2 ** 38 * 3 ** 14 * 5 ** 6 * 7 ** 3 * 11 ** 2 * 13 * 17 * 19
    assert best < 0.001, f"cold call took {best * 1000:.3f} ms"


def test_criterion_02_class_number_formula_vs_form_oracle():
    # every negative discriminant = f^2 * Delta_K with |f^2 Delta_K| <= 1e5;
    # there are exactly 50000 of them (two residues mod 4)
    t0 = time.perf_counter()
    counts = form_class_counts(10 ** 5)
    cases = 0
    for m in range(3, 10 ** 5 + 1):
        dk = -m
        if not is_fundamental_discriminant(dk):
            continue
        field = FundamentalDiscriminant(dk)
        f = 1
        while f * f * m <= 10 ** 5:
            assert class_number_order(Order(field, f)) == counts[f * f * dk], (dk, f)
            cases += 1
            f += 1
    elapsed = time.perf_counter() - t0
    assert cases == 50000
    assert cases >= 30000
    assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_03_class_number_tables():
    gauss = FundamentalDiscriminant(-4)
    assert [class_number_order(Order(gauss, f)) for f in range(1, 6)] == [1, 1, 2, 2, 2]
    eisen = FundamentalDiscriminant(-3)
    assert [class_number_order(Order(eisen, f)) for f in range(1, 8)] == [1, 1, 1, 2, 2, 3, 2]
    assert class_number_order(Order(FundamentalDiscriminant(-7), 3)) == 4


def test_criterion_04_cm_census():
    report = cm_count_total(1, 200)
    assert report.total == 13
    assert report.certified_complete
    for (dk, d), expected in sorted(EXCEPTIONAL_CM_COUNTS.items()):
        assert cm_count_per_field(FundamentalDiscriminant(dk), d) == expected, (dk, d)
    for field in _fields(1000):
        for d in range(1, 6):
            if (field.value, d) in EXCEPTIONAL_CM_COUNTS:
                continue
            count = cm_count_per_field(field, d)
            assert count <= d ** 3, (field.value, d, count)


def test_criterion_05_conductor_bounds():
    for d in range(1, 51):
        assert conductor_bound_over_degree(d) == min(3 * d * d, max(d * d, 7)), d
    # independent scan: h(O_f) <= d never occurs past the clause bound, even
    # when f ranges well beyond it
    pairs = 0
    for field in _fields(200):
        for d in range(1, 7):
            cap = conductor_bound(field, d).bound
            for f in range(1, 3 * d * d + 25):
                if class_number_order(Order(field, f)) <= d:
                    pairs += 1
                    assert f <= cap, (field.value, d, f, cap)
    assert pairs > 400


def test_criterion_06_lattice_identities_grid():
    t0 = time.perf_counter()
    checked = 0
    parsed = set()
    for field in _fields(500):
        for f1 in range(1, 31):
            for f2 in range(1, 31):
                pair = CMPair(field, f1, f2)
                dh = disc_hom(pair)
                assert disc_ns_product(pair) == -4 * dh
                assert abs(disc_ns_kummer(pair)) == 16 * abs(dh)
                # the parse inputs depend only on (field, lcm); check each once
                key = (field.value, pair.conductor_lcm)
                if key not in parsed:
                    parsed.add(key)
                    back = parse_lattice(LatticeDescriptor(4, disc_ns_product(pair)), "abelian")
                    assert (back.field.value, back.conductor_lcm) == key
                    back = parse_lattice(LatticeDescriptor(20, disc_ns_kummer(pair)), "kummer")
                    assert (back.field.value, back.conductor_lcm) == key
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 153 * 900
    assert elapsed < 10, f"took {elapsed:.1f} s"


def test_criterion_07_brauer_shape_clauses_and_uniform_table():
    for ell in (2, 3, 5, 7):
        for m in range(0, 5):
            inside = brauer_shape_maximal(ell, m, GaloisFlags(True, False))
            assert inside.cyclic_factors == ((ell ** m, ell ** m) if m else ())
            assert inside.order == ell ** (2 * m)
            for two_tors in (False, True):
                if two_tors and ell == 2:
                    continue
                generic = brauer_shape_maximal(ell, m, GaloisFlags(False, two_tors))
                assert generic.cyclic_factors == ((ell ** m,) if m else ())
    for m in range(1, 5):
        split = brauer_shape_maximal(2, m, GaloisFlags(False, True))
        assert split.cyclic_factors == (2 ** m, 2)
        assert split.order == 2 ** (m + 1)
    table = {-7: 4, -4: 8, -3: 9, -8: 1, -11: 1, -19: 1, -163: 1}
    for dk, expected in sorted(table.items()):
        assert uniform_bound_EE(1, 1, dk) == expected, dk
        assert uniform_bound_EE(12, 1, dk) == expected, dk  # f plays no role at d = 1


def test_criterion_08_grossencharakter_sampling():
    t0 = time.perf_counter()
    curve = CurveOverQ(-1, 0, -4)  # y^2 = x^3 - x, CM by the Gaussian order
    assert count_points_ap(curve, 5) == -2
    psi = psi_from_ap(-2, 5, -4)
    # -1 + 2i in the omega basis: trace -2, norm 5
    assert (psi.x, psi.y) == (3, 2)
    assert psi.trace == -2 and psi.norm == 5
    est = estimate_m(curve, 2, 10)
    assert est.m_hat == 1
    product = 1
    for ell in (2, 3, 5, 7):
        product *= ell ** estimate_m(curve, ell, 200).m_hat
    assert product <= 3
    # oracle: direct point enumeration, counting solutions of y^2 = x^3 - x
    for p in primerange(3, 1001):
        if not curve.has_good_reduction(p):
            continue
        square_counts = {}
        for y in range(p):
            square_counts[y * y % p] = square_counts.get(y * y % p, 0) + 1
        affine = sum(square_counts.get((x * x * x - x) % p, 0) for x in range(p))
        assert count_points_ap(curve, p) == p - affine, p
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"took {elapsed:.1f} s"


def test_criterion_09_bound_evaluator_soundness():
    t0 = time.perf_counter()
    sample = {
        "uncond_lattice": {"disc_lambda": 28, "d": 2},
        "lattice_k_isog": {"disc_lambda": -7, "L_deg": 2, "delta_k": -7},
        "ab_lattice": {"disc_lambda": -4, "L_deg": 4, "delta_k": -4},
        "ab_GRH": {"L_deg": 3},
        "kummer_GRH": {"L_deg": 5},
        "singular_cover_GRH": {"d": 2},
        "isog_pair": {"f1": 1, "f2": 2, "delta_k": -8, "M_deg": 2},
        "isog_pair_GRH": {"M_over_k_deg": 4, "k_deg": 2},
        "nonisog_GRH": {"compositum_deg": 8, "d": 2},
        "kummer_nonisog_GRH": {"d": 2},
        "isogeny_degree": {"f1": 2, "f2": 3, "delta_k": -11},
        "isogeny_degree_GRH": {"d": 3},
        "faltings_GRH": {"d": 2},
        "isogeny_brauer_multiplier": {"d": 2, "g": 2, "rho": 3},
    }
    assert set(sample) == set(FORMULAS)
    for bid, inputs in sample.items():
        grh = bid in GRH_IDS
        coarse = eval_bound(bid, inputs, eps=Fraction(1, 10 ** 6), assume_grh=grh)
        fine = eval_bound(bid, inputs, eps=Fraction(1, 10 ** 12), assume_grh=grh)
        assert fine.integer_bound <= coarse.integer_bound, bid
    report = eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2})
    independent = (256 / (PI_REF * PI_REF)).__floor__()
    assert report.integer_bound == 25 == independent
    assert Fraction(1, 2 ** 2) * (2 ** 9 * 3) ** 4 == 2 ** 34 * 3 ** 4
    assert compose_intro_bound(16, 1).cross_check["identity_holds"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 1, f"took {elapsed:.2f} s"


def test_criterion_10_shape_order_divides_divisibility_bound():
    # headline Brauer groups of actual surfaces are out of desk-scale reach;
    # this is the structural stand-in: on every consistent input the group
    # order divides the uniform divisibility bound
    checked = 0
    for field in _fields(200):
        dk = field.value
        h_at = {(ell, m): class_number_order(Order(field, ell ** m))
                for ell in (2, 3, 5, 7) for m in range(1, 4)}
        for d in range(1, 7):
            bounds_by_f = {f: divisibility_bound(f, d, dk) for f in range(1, 13)}
            for k_in_k in (False, True):
                if k_in_k and d % 2:
                    continue
                kk_over_k = d // 2 if k_in_k else d
                for two_tors in (False, True):
                    flags = GaloisFlags(K_in_k=k_in_k, two_torsion_rational=two_tors)
                    for ell in (2, 3, 5, 7):
                        if two_tors and not k_in_k and ell != 2:
                            continue
                        for m in range(0, 4):
                            if two_tors and not k_in_k and m == 0:
                                continue
                            if m > 0 and kk_over_k % h_at[(ell, m)] != 0:
                                continue
                            order = brauer_shape_maximal(ell, m, flags).order
                            for f in range(1, 13):
                                if two_tors and not k_in_k and (f * dk) % 2 != 0:
                                    continue
                                assert bounds_by_f[f] % order == 0, (dk, d, f, ell, m, flags)
                                checked += 1
    assert checked > 30000
