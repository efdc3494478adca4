"""Point counts, character values and the sampled m_ell upper bound."""

import json
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from array import array
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import primerange

from cmbrauer import grossencharakter
from cmbrauer.brauer import _ord
from cmbrauer.errors import InternalCheckError
from cmbrauer.grossencharakter import (
    CurveOverQ,
    MEstimate,
    count_points_ap,
    estimate_m,
    psi_from_ap,
)
from cmbrauer.quadratic import kronecker_symbol

EI = CurveOverQ(-1, 0, -4)        # y^2 = x^3 - x, CM by the Gaussian integers
EZ = CurveOverQ(0, 1, -3)         # y^2 = x^3 + 1, CM by the Eisenstein integers
E7 = CurveOverQ(-35, -98, -7)     # j = -3375, CM by the maximal order of Q(sqrt(-7))

# quartic twists over Q(i), sextic twists over Q(zeta_3), and one model for
# each other field of class number one
CM_CURVES = (
    [CurveOverQ(a4, 0, -4) for a4 in (1, -1, 2, -2, 3, -3, 5, -5, 6, 7)]
    + [CurveOverQ(0, a6, -3) for a6 in (1, -1, 2, -2, 3, -3, 5, 16, -432, 7)]
    + [E7, CurveOverQ(-30, 56, -8), CurveOverQ(-264, 1694, -11), CurveOverQ(-152, 722, -19),
       CurveOverQ(-3440, 77658, -43), CurveOverQ(-29480, 1948226, -67),
       CurveOverQ(-8697680, 9873093538, -163)]
)


def _oracle_ap(curve: CurveOverQ, p: int) -> int:
    # Euler-criterion character sum, independent of the residue-table kernel
    total = 0
    for x in range(p):
        v = (x * x * x + curve.a4 * x + curve.a6) % p
        if v == 0:
            continue
        total += 1 if pow(v, (p - 1) // 2, p) == 1 else -1
    return -total


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveOverQ(0, 0, -4)          # singular
    with pytest.raises(ValueError):
        CurveOverQ(-1, 0, -5)         # -5 is not an order discriminant
    with pytest.raises(ValueError):
        CurveOverQ(-1, 0, 4)


def test_point_count_examples():
    assert count_points_ap(EI, 5) == -2
    assert count_points_ap(EI, 3) == 0
    assert count_points_ap(EZ, 5) == 0


def test_point_count_rejects_bad_primes():
    with pytest.raises(ValueError):
        count_points_ap(EI, 2)
    with pytest.raises(ValueError):
        count_points_ap(EZ, 3)       # 3 divides 4*0^3 + 27
    with pytest.raises(ValueError):
        count_points_ap(EI, 4)
    with pytest.raises(ValueError):
        count_points_ap(EI, 10 ** 6 + 3)


def test_point_count_hasse_bound():
    for p in primerange(3, 200):
        if EI.has_good_reduction(p):
            assert count_points_ap(EI, p) ** 2 <= 4 * p


def test_psi_examples():
    psi = psi_from_ap(-2, 5, -4)
    assert (psi.x, psi.y) == (3, 2)          # 3 + 2*omega = -1 + 2i
    assert psi.trace == -2 and psi.norm == 5
    conj = psi_from_ap(2, 5, -4)
    assert (conj.x, conj.y) == (5, 2)        # 5 + 2*omega = 1 + 2i
    assert conj.trace == 2 and conj.norm == 5


def test_psi_rejections():
    with pytest.raises(ValueError):
        psi_from_ap(0, 5, -4)                 # supersingular
    with pytest.raises(ValueError):
        psi_from_ap(1, 5, -4)                 # -19 is not t^2 * (-4)
    with pytest.raises(ValueError):
        psi_from_ap(-2, 5, -3)                # wrong asserted field
    with pytest.raises(ValueError):
        psi_from_ap(-2, 5, -16)               # order disc, not fundamental


def test_psi_norm_trace_across_primes():
    for curve in (EI, EZ, E7):
        for p in primerange(3, 300):
            if not curve.has_good_reduction(p):
                continue
            a_p = count_points_ap(curve, p)
            if a_p == 0:
                continue
            psi = psi_from_ap(a_p, p, curve.cm_disc)
            assert psi.norm == p
            assert psi.trace == a_p
            assert a_p * a_p - 4 * p == psi.y ** 2 * curve.cm_disc


def test_estimate_m_examples():
    assert estimate_m(EI, 2, 10) == MEstimate(m_hat=1, samples_used=1)
    assert estimate_m(EI, 2, 1000).m_hat == 1
    for ell in (3, 5, 7):
        est = estimate_m(EI, ell, 1000)
        assert est.m_hat == 0
        assert est.samples_used == 1          # first ordinary sample certifies 0


def test_estimate_m_budget_monotone():
    previous = None
    for budget in (10, 50, 100, 500, 1000):
        m_hat = estimate_m(EI, 2, budget).m_hat
        if previous is not None:
            assert m_hat <= previous
        previous = m_hat


def test_estimate_m_product_small():
    # combined conductor estimate prod ell^m_hat stays within the conductor cap
    for curve, cap in ((EI, 3), (EZ, 7), (E7, 3)):
        c_hat = 1
        for ell in (2, 3, 5, 7):
            c_hat *= ell ** estimate_m(curve, ell, 1000).m_hat
        assert c_hat <= cap


def test_estimate_m_diagnostics():
    with pytest.raises(ValueError, match="no ordinary good prime"):
        estimate_m(EI, 2, 3)
    with pytest.raises(ValueError):
        estimate_m(EI, 4, 100)                # ell must be prime
    with pytest.raises(ValueError):
        estimate_m(EI, 2, 0)
    with pytest.raises(ValueError):
        estimate_m(CurveOverQ(-1, 0, -16), 2, 100)   # needs the maximal order
    # the model must have the j-invariant of the asserted order
    for wrong in (CurveOverQ(-6, -3, -11),            # j = 55296/23: no CM at all
                  CurveOverQ(-1, 0, -3),              # j = 1728 is Q(i), not Q(zeta_3)
                  CurveOverQ(0, 1, -4),               # j = 0 is Q(zeta_3), not Q(i)
                  CurveOverQ(-1, 0, -15)):            # h = 2: no rational j
        with pytest.raises(ValueError, match="does not have CM"):
            estimate_m(wrong, 2, 50)


def _empty_tables(patch):
    # empty split-prime tables and curve columns; the module's own come back
    # when the patch is undone
    tables = {}
    patch.setattr(grossencharakter, "_SPLIT_PRIMES", tables)
    patch.setattr(grossencharakter, "_curve_column", lru_cache(maxsize=grossencharakter._CURVE_COLUMNS)(
        grossencharakter._curve_column.__wrapped__))
    return tables


@pytest.fixture
def fresh_tables(monkeypatch):
    return _empty_tables(monkeypatch)


def _split_in_k(delta_k, reach):
    return [q for q in primerange(3, reach + 1) if kronecker_symbol(delta_k, q) == 1]


def test_estimate_m_scan_is_bounded(fresh_tables):
    start = time.perf_counter()
    assert estimate_m(EI, 2, 10 ** 6) == MEstimate(m_hat=1, samples_used=39175)
    assert time.perf_counter() - start < 3
    # the table is warm now, and the message names the first good prime past the cap
    with pytest.raises(ValueError, match=r"point-count budget is p <= 1000000, got 1000003"):
        estimate_m(EI, 2, 2 * 10 ** 6)
    assert fresh_tables[-4].reach == 10 ** 6
    # every |t| < 2 sqrt(10^6) < ell, so the first sample reads 0 and ends the scan
    assert estimate_m(EI, 1000003, 2 * 10 ** 6) == MEstimate(m_hat=0, samples_used=1)


def test_over_cap_message_skips_ell(fresh_tables):
    # a table that reaches the cap with no sample left: the scan runs past it,
    # and the first good prime != ell there is 1000033
    table = fresh_tables[-4] = grossencharakter._SplitPrimes(-4)
    table.reach = 10 ** 6
    with pytest.raises(ValueError, match=r"point-count budget is p <= 1000000, got 1000033"):
        estimate_m(EI, 1000003, 2 * 10 ** 6)
    with pytest.raises(ValueError, match=r"point-count budget is p <= 1000000, got 1000003"):
        estimate_m(EI, 2, 2 * 10 ** 6)
    with pytest.raises(ValueError, match="no ordinary good prime <= 10000"):
        estimate_m(EI, 2, 10 ** 4)


def test_point_count_vs_euler_oracle():
    for curve in (EI, EZ, E7):
        for p in primerange(3, 250):
            if curve.has_good_reduction(p):
                assert count_points_ap(curve, p) == _oracle_ap(curve, p)


@lru_cache(maxsize=None)
def _cached_ap(curve, q):
    return count_points_ap(curve, q)


def _reference_estimate_m(curve, ell, prime_budget):
    # the point-count scan: a_q by enumeration, psi(q) rebuilt from a_q
    best, samples = None, 0
    for q in primerange(2, prime_budget + 1):
        if q == ell or not curve.has_good_reduction(q):
            continue
        a_q = _cached_ap(curve, q)
        if a_q == 0:
            continue
        v = _ord(ell, psi_from_ap(a_q, q, curve.cm_disc).y)
        samples += 1
        if best is None or v < best:
            best = v
        if best == 0:
            break
    if best is None:
        raise ValueError("no ordinary good prime")
    return MEstimate(best, samples)


def _frobenius_t(curve, q):
    # |t| with 4q = a_q^2 + |Delta_K| t^2 at a split prime q, read from the
    # field's split-prime table as estimate_m reads it
    table = grossencharakter._split_primes(curve.cm_disc)
    while table.reach < q:
        table.grow(q)
    i = table.primes.index(q)
    # disc = 1 skips no prime
    return next(grossencharakter._curve_ts(curve, table.primes, table.data, i, i + 1, 1))


def _check_frobenius_t(curve, p):
    a_p = _cached_ap(curve, p)
    assert (kronecker_symbol(curve.cm_disc, p) == 1) == (a_p != 0), (curve, p)
    if a_p != 0:
        assert _frobenius_t(curve, p) ** 2 * -curve.cm_disc == 4 * p - a_p ** 2, (curve, p)


@pytest.mark.parametrize("curve", CM_CURVES, ids=lambda c: f"{c.a4},{c.a6},{c.cm_disc}")
def test_frobenius_t_matches_point_counts(curve):
    for p in primerange(3, 1001):
        if curve.has_good_reduction(p):
            _check_frobenius_t(curve, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12).filter(bool), st.booleans())
def test_frobenius_t_on_random_twists(coeff, quartic):
    curve = CurveOverQ(coeff, 0, -4) if quartic else CurveOverQ(0, coeff, -3)
    for p in primerange(3, 400):
        if curve.has_good_reduction(p):
            _check_frobenius_t(curve, p)


def _check_against_point_count_scan(curve, ell, budget):
    try:
        expected = _reference_estimate_m(curve, ell, budget)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            estimate_m(curve, ell, budget)
    else:
        assert estimate_m(curve, ell, budget) == expected, (curve.a4, curve.a6, ell, budget)


@pytest.mark.parametrize("curve", CM_CURVES, ids=lambda c: f"{c.a4},{c.a6},{c.cm_disc}")
def test_estimate_m_matches_point_count_scan(curve):
    for ell in (2, 3, 5, 7):
        for budget in (10, 60, 250, 700, 1500):
            _check_against_point_count_scan(curve, ell, budget)


# each side of the first chunk's end (256) and of the first doubling (512)
_EDGE_BUDGETS = (255, 256, 257, 511, 513, 1100)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12).filter(bool), st.booleans(),
       st.sampled_from((2, 3, 5, 7, 13)), st.sampled_from(_EDGE_BUDGETS))
def test_scan_matches_point_counts_on_random_twists(coeff, quartic, ell, budget):
    curve = CurveOverQ(coeff, 0, -4) if quartic else CurveOverQ(0, coeff, -3)
    # on empty tables, which the scan grows chunk by chunk, then on the
    # process's own, which earlier scans have grown
    with pytest.MonkeyPatch.context() as patch:
        _empty_tables(patch)
        _check_against_point_count_scan(curve, ell, budget)
    _check_against_point_count_scan(curve, ell, budget)


# ell is the first good split prime, so the scan reaches it and skips it
@pytest.mark.parametrize("curve, ell", [(CurveOverQ(5, 0, -4), 13), (CurveOverQ(-5, 0, -4), 13), (EI, 5),
                                        (EZ, 7), (CurveOverQ(0, 2, -3), 7)],
                         ids=lambda v: f"{v.a4},{v.a6},{v.cm_disc}" if isinstance(v, CurveOverQ) else f"ell={v}")
def test_scan_skips_an_ell_that_splits(fresh_tables, curve, ell):
    for budget in (ell - 1, ell, ell + 3, *_EDGE_BUDGETS):
        _check_against_point_count_scan(curve, ell, budget)
    assert ell in fresh_tables[curve.cm_disc].primes
    # 5 is bad for y^2 = x^3 + 5x and q = ell = 13 is skipped: no sample up to 16
    with pytest.raises(ValueError, match="no ordinary good prime <= 16"):
        estimate_m(CurveOverQ(5, 0, -4), 13, 16)
    assert estimate_m(CurveOverQ(5, 0, -4), 13, 17) == MEstimate(m_hat=0, samples_used=1)


def test_a_zero_t_past_the_first_sample_is_refused(fresh_tables):
    # y^2 = x^3 - x at ell = 2: the first sample, q = 5 with |t| = 2, sets
    # best = 1; then the curve's |t| at q = 13 is forged to 0
    assert estimate_m(EI, 2, 256).m_hat == 1
    k = list(fresh_tables[-4].primes).index(13)
    grossencharakter._curve_column(EI.a4, EI.a6, EI.cm_disc).ts[k] = 0
    with pytest.raises(InternalCheckError, match=r"ord_2\(0\) is not finite"):
        estimate_m(EI, 2, 256)
    # at ell = 3 the first sample, |t| = 2 at q = 5, ends the scan before q = 13
    assert estimate_m(EI, 3, 256) == MEstimate(m_hat=0, samples_used=1)


def test_a_zero_t_past_the_first_read_is_refused(fresh_tables):
    # y^2 = x^3 - x at ell = 2 on a warm column: every |t| is even, so a full
    # scan reads past the first read to the |t| forged to 0 there
    assert estimate_m(EI, 2, 5000) == MEstimate(m_hat=1, samples_used=329)
    primes = fresh_tables[-4].primes
    k = 3 * grossencharakter._FIRST_READ
    ts = grossencharakter._curve_column(EI.a4, EI.a6, EI.cm_disc).ts
    ts[k] = 0
    with pytest.raises(InternalCheckError, match=rf"ord_2\(0\) is not finite: \|t\| = 0 at q = {primes[k]}\b"):
        estimate_m(EI, 2, 5000)
    # a budget that ends before the 0 does not reach it
    assert estimate_m(EI, 2, primes[k] - 1) == MEstimate(m_hat=1, samples_used=k)
    # an odd |t|, also forged, past the 0 in the same read does not hide it
    ts[k + 8] = 1
    with pytest.raises(InternalCheckError, match=r"ord_2\(0\) is not finite"):
        estimate_m(EI, 2, 5000)
    # but an exit at one before the 0 does not reach it
    odd = 2 * grossencharakter._FIRST_READ + 8
    ts[odd] = 1
    assert estimate_m(EI, 2, 5000) == MEstimate(m_hat=0, samples_used=odd + 1)
    # nor an exit at the first sample, q = 5 with |t| = 2 at ell = 3
    assert estimate_m(EI, 3, 5000) == MEstimate(m_hat=0, samples_used=1)


# a 0 entry is two aligned zero bytes; entries such as 1 and 256 put a zero
# byte at each end, so neighbours hold a b"\0\0" that is not one
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0, 1, 255, 256, 65280, 65535)) | st.integers(0, 2 ** 16 - 1), max_size=40))
@example([1, 256])
@example([256, 1])
@example([1, 256, 0])
@example([0])
def test_zero_screen_is_exact(values):
    run = array("H", values)
    assert grossencharakter._first_zero(run) == (run.index(0) if 0 in run else len(run))


def test_a_warm_scan_reads_its_column_in_two_reads(fresh_tables, monkeypatch):
    first_read = grossencharakter._FIRST_READ
    good_runs = grossencharakter._good_runs
    reads = []

    def counted(column, primes, i, k, ell):
        reads.append((i, k))
        return good_runs(column, primes, i, k, ell)

    monkeypatch.setattr(grossencharakter, "_good_runs", counted)
    # y^2 = x^3 - x at ell = 2 reads every prime to the budget; the first
    # scan warms the table and the column
    estimate_m(EI, 2, 5000)
    j = len(fresh_tables[-4].primes)
    reads.clear()
    assert estimate_m(EI, 2, 5000) == MEstimate(m_hat=1, samples_used=329)
    assert reads == [(0, first_read), (first_read, j)]
    # a cold column on the warm table fills in reads that double
    grossencharakter._curve_column.cache_clear()
    reads.clear()
    estimate_m(EI, 2, 5000)
    doubling = [(0, first_read)]
    while doubling[-1][1] < j:
        i = doubling[-1][1]
        doubling.append((i, min(j, 2 * i)))
    assert reads == doubling and len(doubling) > 2
    # a partly filled column: one read to all it holds, then reads that
    # double past it as the table grows
    reads.clear()
    estimate_m(EI, 2, 20000)
    assert reads[:2] == [(0, first_read), (first_read, j)]
    assert all(a[1] == b[0] for a, b in zip(reads, reads[1:]))
    assert reads[-1][1] == len(fresh_tables[-4].primes) > 2 * j
    assert all(k <= 2 * i for i, k in reads[2:])


_COHERENCE_CURVES = (EI, EZ, E7, CurveOverQ(0, -432, -3), CurveOverQ(-8697680, 9873093538, -163))
_COHERENCE_BUDGETS = (1500, 700, 257, 256, 255, 60, 10, 3)


def _outcome(curve, ell, budget):
    try:
        return list(estimate_m(curve, ell, budget))
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]


_FRESH_OUTCOMES = textwrap.dedent("""
    import json, sys
    from cmbrauer import grossencharakter as g

    out = []
    for a4, a6, d, ell, budget in json.loads(sys.stdin.read()):
        g._SPLIT_PRIMES.clear()
        g._curve_column.cache_clear()
        try:
            out.append(list(g.estimate_m(g.CurveOverQ(a4, a6, d), ell, budget)))
        except ValueError as exc:
            out.append([type(exc).__name__, str(exc)])
    print(json.dumps(out))
""")


def test_table_order_does_not_change_results(fresh_tables):
    # in one process: budgets descending then ascending at ell = 3, where most
    # scans end early, then the other way round at ell = 2, where none do, so
    # the tables grow between reads
    down_up = _COHERENCE_BUDGETS + _COHERENCE_BUDGETS[::-1]
    cases = ([(curve, 3, budget) for curve in _COHERENCE_CURVES for budget in down_up]
             + [(curve, 2, budget) for curve in _COHERENCE_CURVES for budget in down_up[::-1]])
    warm = [_outcome(*case) for case in cases]
    # each case alone on empty tables, in a fresh interpreter
    payload = json.dumps([(c.a4, c.a6, c.cm_disc, ell, budget) for c, ell, budget in cases])
    fresh = json.loads(subprocess.run([sys.executable, "-c", _FRESH_OUTCOMES], input=payload,
                                      capture_output=True, text=True, check=True).stdout)
    assert warm == fresh
    for case, got in zip(cases, warm):
        try:
            expected = list(_reference_estimate_m(*case))
        except ValueError:
            assert got[0] == "ValueError" and got[1].startswith("no ordinary good prime"), case
        else:
            assert got == expected, case


def test_evicted_columns_do_not_change_results(fresh_tables):
    # more curves than the columns kept, each scanned three times with ell and
    # the budget shuffled, so the tables grow between reads and evicted
    # columns are filled again
    bound = grossencharakter._CURVE_COLUMNS
    curves = ([CurveOverQ(a4, 0, -4) for a4 in range(1, bound // 2 + 8)]
              + [CurveOverQ(0, a6, -3) for a6 in range(1, bound // 2 + 8)]
              + [E7, CurveOverQ(-8697680, 9873093538, -163)])
    rng = random.Random(27)
    cases = [(curve, rng.choice((2, 3, 5, 7)), rng.choice((60, 255, 257, 700, 1500, 2500)))
             for curve in curves for _ in range(3)]
    rng.shuffle(cases)
    warm = []
    for case in cases:
        warm.append(_outcome(*case))
        assert grossencharakter._curve_column.cache_info().currsize <= bound
    info = grossencharakter._curve_column.cache_info()
    assert info.currsize == bound and info.misses > len(curves)
    # each case alone on empty tables and columns, in a fresh interpreter
    payload = json.dumps([(c.a4, c.a6, c.cm_disc, ell, budget) for c, ell, budget in cases])
    fresh = json.loads(subprocess.run([sys.executable, "-c", _FRESH_OUTCOMES], input=payload,
                                      capture_output=True, text=True, check=True).stdout)
    assert warm == fresh


def test_a_cold_column_fills_only_as_far_as_the_scan_reads(fresh_tables):
    first_read = grossencharakter._FIRST_READ
    column = grossencharakter._curve_column
    # y^2 = x^3 - x at ell = 2 reads every prime to 5000 and warms the table
    estimate_m(EI, 2, 5000)
    primes = fresh_tables[-4].primes
    assert len(column(-1, 0, -4).ts) == len(primes) > first_read
    # y^2 = x^3 + x at ell = 3 ends at its first sample, so its column holds
    # the first read alone
    assert estimate_m(CurveOverQ(1, 0, -4), 3, 5000) == MEstimate(m_hat=0, samples_used=1)
    assert len(column(1, 0, -4).ts) == first_read
    # on a cold table the first read stops at the table's first chunk
    fresh_tables.clear()
    column.cache_clear()
    assert estimate_m(EI, 3, 5000) == MEstimate(m_hat=0, samples_used=1)
    assert len(column(-1, 0, -4).ts) == min(first_read, len(fresh_tables[-4].primes))


def test_table_reach_stays_within_the_budget(fresh_tables):
    for budget in (3, 100, 256, 1000, 5000):
        fresh_tables.clear()
        _outcome(EI, 2, budget)                   # m_hat = 1: the scan reads every prime
        table = fresh_tables[-4]
        assert table.reach == budget
        assert list(table.primes) == _split_in_k(-4, table.reach)
    # a scan that ends early grows the table no further than the first chunk
    fresh_tables.clear()
    assert estimate_m(EI, 3, 5000).samples_used == 1
    assert fresh_tables[-4].reach == grossencharakter._FIRST_REACH
    # a smaller budget later reads the table and leaves it as it is
    estimate_m(EI, 2, 5000)
    estimate_m(EI, 2, 300)
    assert fresh_tables[-4].reach == 5000


@pytest.mark.parametrize("curve, broken_q", [(EI, 401), (EZ, 397), (E7, 317)],
                         ids=lambda v: str(getattr(v, "cm_disc", v)))
def test_failed_chunk_leaves_no_partial_entries(fresh_tables, monkeypatch, curve, broken_q):
    estimate_m(curve, 2, 256)
    table = fresh_tables[curve.cm_disc]
    before = (table.reach, list(table.primes), [list(column) for column in table.data])
    cornacchia = grossencharakter._cornacchia_4q

    def broken(delta_k, q):
        if q == broken_q:
            raise InternalCheckError(f"injected at {q}")
        return cornacchia(delta_k, q)

    monkeypatch.setattr(grossencharakter, "_cornacchia_4q", broken)
    with pytest.raises(InternalCheckError, match=f"injected at {broken_q}"):
        estimate_m(curve, 2, 1000)
    assert (table.reach, list(table.primes), [list(column) for column in table.data]) == before
    monkeypatch.setattr(grossencharakter, "_cornacchia_4q", cornacchia)
    assert estimate_m(curve, 2, 1000) == _reference_estimate_m(curve, 2, 1000)
    assert list(table.primes) == _split_in_k(curve.cm_disc, table.reach)
    assert all(len(column) == len(table.primes) for column in table.data)


def _table_bytes(table):
    return sys.getsizeof(table) + sum(sys.getsizeof(column) for column in (table.primes, *table.data))


def test_table_memory(fresh_tables):
    # a traced scan to 20000: what the table holds is all the scan retains
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate_m(EI, 2, 20000)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= _table_bytes(fresh_tables[-4]) + 4096
    # at the cap (tracing the build there takes ~30 times as long as the build)
    estimate_m(EI, 2, 10 ** 6)
    assert len(fresh_tables[-4].primes) == 39175
    assert _table_bytes(fresh_tables[-4]) <= 2 * 2 ** 20
    # the curve's column: one 2-byte |t| per prime of the table
    column = grossencharakter._curve_column(EI.a4, EI.a6, EI.cm_disc)
    assert len(column.ts) == 39175 and column.ts.itemsize == 2


_BROKEN_IDENTITIES = textwrap.dedent("""
    from cmbrauer import brauer, grossencharakter, quadratic

    def raises_internal(call):
        try:
            call()
        except quadratic.InternalCheckError:
            return True
        return False

    def scan_past_a_forged_zero_t():
        # y^2 = x^3 - x at ell = 2: the first sample (q = 5, |t| = 2) sets
        # best = 1, then the curve's |t| at q = 13 is forged to 0
        ei = grossencharakter.CurveOverQ(-1, 0, -4)
        grossencharakter.estimate_m(ei, 2, 256)
        k = list(grossencharakter._SPLIT_PRIMES[-4].primes).index(13)
        grossencharakter._curve_column(-1, 0, -4).ts[k] = 0
        grossencharakter.estimate_m(ei, 2, 256)

    def scan_past_a_forged_zero_t_past_the_first_read():
        # the same curve on a new column to 5000, every |t| even, with the
        # |t| past the first read forged to 0
        grossencharakter._curve_column.cache_clear()
        ei = grossencharakter.CurveOverQ(-1, 0, -4)
        grossencharakter.estimate_m(ei, 2, 5000)
        grossencharakter._curve_column(-1, 0, -4).ts[3 * grossencharakter._FIRST_READ] = 0
        grossencharakter.estimate_m(ei, 2, 5000)

    checks = [
        raises_internal(lambda: grossencharakter.PsiValue(3, 2, 7, -4)),
        raises_internal(lambda: brauer._ord(2, 0)),
        raises_internal(lambda: grossencharakter._cornacchia_4q(-7, 3)),
        # a forged Q(zeta_3) entry at q = 7 with w = 6, not a cube root of
        # unity: (4*1)^2 = 2 mod 7 is none of 1, w, w^2 = 1
        raises_internal(lambda: next(grossencharakter._curve_ts(
            grossencharakter.CurveOverQ(0, 1, -3), [7], ([6], [0], [3], [3]), 0, 1, 1))),
        raises_internal(scan_past_a_forged_zero_t),
        raises_internal(scan_past_a_forged_zero_t_past_the_first_read),
    ]
    print(checks)
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_internal_checks_survive_python_O(flags):
    out = subprocess.run([sys.executable, *flags, "-c", _BROKEN_IDENTITIES],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == str([True] * 6)
