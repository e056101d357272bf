"""Acceptance suite.

One test per numbered criterion; each prints a single PASS/FAIL line (run
pytest with -s to see them all).  Exact arithmetic means the tolerance is
zero except for the floating-point shadow checks of criterion 10.

Criteria 7 and 8 check the generic padded-extension counts (2R+3
projectors, 2B+1 contexts) on the rotated 18-ray seed d4-18-9-rot, whose
padded rays do not coincide; the table's "2n+3" row is built from it.  On
the raw d4-18-9 seed some padded rays coincide as subspaces, so criterion 7
bounds its projector count by 2R+3 and pins its greedy core instead.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import basis_set
from ksets import catalog
from ksets.construct import (
    Pairing,
    ceg,
    matsuno,
    merge_rank,
    pz_improved,
    reduce_critical,
    table_recipe,
)
from ksets.cyclo import CycNum
from ksets.model import symbol, validate
from ksets.verify import (
    Mode,
    export_cnf,
    find_assignment,
    is_critical,
    is_ks,
    is_parity,
)
from oracles import brute_force_witness, naive_cnf_satisfiable

# Detailed symbols for the cataloged sets: the classic even-dimension
# renderings plus values frozen from the stored ray tables.
EXPECTED_SYMBOLS = {
    "d4-18-9": "18^1_2 - 9^4_4",
    "d6-21-7": "21^1_2 - 7^6_6",
    "d8-34-9": "2^1_4 32^1_2 - 9^8_8",
    "d8-30-9": "4^2_2 2^1_4 24^1_2 - 8^8_7 1^8_8",
    "d10-39-9": "6^1_4 33^1_2 - 9^10_10",
    "d10-30-9": "9^2_2 6^1_4 15^1_2 - 6^10_7 3^10_10",
    "d5-29-16": "2^1_9 1^1_4 6^1_3 20^1_2 - 16^5_5",
    "d7-32-12": "2^1_7 10^1_3 20^1_2 - 12^7_7",
    "d9-39-13": "6^1_8 3^1_3 30^1_2 - 13^9_9",
    "d11-40-12": "2^1_7 8^1_6 10^1_3 20^1_2 - 12^11_11",
    "d3-49-36": "2^1_4 22^1_3 9^1_2 16^1_1 - 36^3_3",
    "d3-57-40": "3^1_4 24^1_3 6^1_2 24^1_1 - 40^3_3",
}

PARITY_NAMES = {
    "d4-18-9", "d6-21-7", "d8-34-9", "d8-30-9", "d10-39-9", "d10-30-9",
}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_catalog_fidelity():
    catalog._load.cache_clear()
    catalog.get.cache_clear()
    start = time.perf_counter()
    failures = []
    for name, expected in EXPECTED_SYMBOLS.items():
        entry = catalog.get(name)
        if not validate(entry.set).ok:
            failures.append(f"{name} invalid")
        got = symbol(entry.set).detailed
        if got != expected:
            failures.append(f"{name}: {got!r} != {expected!r}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"12 entries validated, symbols byte-exact, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0, f"catalog fidelity took {elapsed:.2f}s"


def test_criterion_2_ks_property():
    worst = 0.0
    failures = []
    for entry in catalog.entries():
        start = time.perf_counter()
        if not is_ks(entry.set):
            failures.append(f"{entry.name} colorable")
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if elapsed >= 5.0:
            failures.append(f"{entry.name} search took {elapsed:.2f}s")
    report(2, not failures, f"12 uncolorability proofs, slowest {worst:.2f}s")
    assert not failures, failures


def test_criterion_3_criticality():
    start = time.perf_counter()
    failures = []
    modes = []
    for entry in catalog.entries():
        rep = is_critical(entry.set, entry.critical_mode)
        modes.append(f"{entry.name}:{entry.critical_mode.value}")
        if not rep.overall:
            failures.append(
                f"{entry.name}: {rep.n_colorable}/{len(rep.removals)} "
                f"removals colorable in {entry.critical_mode.value} mode"
            )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(3, ok, f"all 12 critical in their recorded mode, {elapsed:.1f}s "
                  f"({' '.join(modes)})")
    assert not failures, failures
    assert elapsed < 30.0, f"criticality checks took {elapsed:.1f}s"


def test_criterion_4_parity():
    failures = []
    for entry in catalog.entries():
        expected = entry.name in PARITY_NAMES
        if is_parity(entry.set) != expected:
            failures.append(f"{entry.name}: parity != {expected}")
        if expected and find_assignment(entry.set, Mode.CONTEXT_ONLY) is not None:
            failures.append(f"{entry.name}: colorable in context-only mode")
    report(4, not failures,
           "parity exactly on the even-dimension entries, all uncolorable "
           "under context rules alone")
    assert not failures, failures


def test_criterion_5_paired_sum_reproduction():
    start = time.perf_counter()
    s39 = pz_improved(
        catalog.seed_set("d4-18-9"),
        catalog.seed_set("d6-21-7"),
        Pairing(catalog.PAIRING_D4_D6),
    )
    failures = []
    sym39 = symbol(s39)
    if (s39.n_projectors, s39.n_contexts) != (39, 9):
        failures.append(f"counts {s39.n_projectors}/{s39.n_contexts}")
    if sym39.detailed != "6^1_4 33^1_2 - 9^10_10":
        failures.append(f"symbol {sym39.detailed!r}")
    s30 = merge_rank(s39)
    sym30 = symbol(s30)
    if s30.n_projectors != 30:
        failures.append(f"merged count {s30.n_projectors}")
    if sym30.detailed != "9^2_2 6^1_4 15^1_2 - 6^10_7 3^10_10":
        failures.append(f"merged symbol {sym30.detailed!r}")
    for tag, s in (("39-9", s39), ("30-9", s30)):
        if not is_ks(s):
            failures.append(f"{tag} not KS")
        elif not is_critical(s).overall:
            failures.append(f"{tag} not critical")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(5, ok, f"paired sum gives 39-9 and merges to 30-9, both KS and "
                  f"critical, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_6_swap_reproduction():
    failures = []
    m5 = matsuno(catalog.seed_set("d4-18-9"), 5)
    if (m5.n_projectors, m5.n_contexts) != (29, 16):
        failures.append(f"d'=5 counts {m5.n_projectors}/{m5.n_contexts}")
    if not is_ks(m5):
        failures.append("d'=5 not KS")
    elif not is_critical(m5).overall:
        failures.append("d'=5 not critical")
    basis = catalog.seed_set("d6-21-7-basis")
    m7 = matsuno(basis, 7)
    if (m7.n_projectors, m7.n_contexts) != (32, 12):
        failures.append(f"d'=7 counts {m7.n_projectors}/{m7.n_contexts}")
    m9 = matsuno(basis, 9)
    if (m9.n_projectors, m9.n_contexts) != (39, 13):
        failures.append(f"d'=9 counts {m9.n_projectors}/{m9.n_contexts}")
    report(6, not failures,
           "swap extension gives 29-16 (critical), 32-12 and 39-13")
    assert not failures, failures


def test_criterion_7_padded_extension_counts():
    failures = []
    raw18, rot18 = catalog.seed_set("d4-18-9"), catalog.seed_set("d4-18-9-rot")
    r5 = ceg(rot18, 5)
    # generic padded-extension counts: 2R+3 projectors over 2B+1 contexts
    if (r5.n_projectors, r5.n_contexts) != (39, 19):
        failures.append(
            f"ceg(18-9-rot,5) counts {r5.n_projectors}/{r5.n_contexts} != 39/19"
        )
    c5 = ceg(raw18, 5)
    if c5.n_contexts != 19:
        failures.append(f"ceg(18-9,5) contexts {c5.n_contexts} != 19")
    if c5.n_projectors > 39:
        failures.append(f"ceg(18-9,5) projectors {c5.n_projectors} > 39")
    c7 = ceg(catalog.seed_set("d6-21-7"), 7)
    if (c7.n_projectors, c7.n_contexts) != (45, 15):
        failures.append(f"ceg(21-7,7) counts {c7.n_projectors}/{c7.n_contexts}")
    for tag, s in (("ceg(18-9-rot,5)", r5), ("ceg(18-9,5)", c5),
                   ("ceg(21-7,7)", c7)):
        if not is_ks(s):
            failures.append(f"{tag} not KS")
    reduced = reduce_critical(c5)
    if not is_critical(reduced).overall:
        failures.append("reduction of ceg(18-9,5) not critical")
    got = symbol(reduced).compact
    if got != "33-16":  # frozen regression value for the greedy reduction
        failures.append(f"reduced symbol {got!r} drifted from 33-16")
    core = reduce_critical(r5)
    if not (is_ks(core) and is_critical(core).overall):
        failures.append("reduction of ceg(18-9-rot,5) not KS and critical")
    if core.n_projectors > 39 or core.n_contexts > 19:
        failures.append(f"reduction of ceg(18-9-rot,5) grew to "
                        f"{symbol(core).compact}")
    report(7, not failures,
           f"padded extension: ceg(18-9-rot,5)={r5.n_projectors}-"
           f"{r5.n_contexts}, ceg(18-9,5)={c5.n_projectors}-{c5.n_contexts}, "
           f"ceg(21-7,7)={c7.n_projectors}-{c7.n_contexts}, all KS, "
           f"reductions critical at {got} and {symbol(core).compact}"
           + ("" if not failures else f"; {failures}"))
    assert not failures, failures


def _table_rows(d: int) -> set[tuple[str, str | None, str | None]]:
    """Independent statement of which dimension-table rows apply to d."""
    rows: set[tuple[str, str | None, str | None]] = set()
    if d % 3 == 0:
        rows.add(("3n", "49-36", f"{49 * (d // 3)}-36"))
    if d % 4 == 0:
        rows.add(("4n", "18-9", f"{18 * (d // 4)}-9"))
    if d % 5 == 0:
        rows.add(("5n", "29-16", f"{29 * (d // 5)}-16"))
    if d % 6 == 0:
        rows.add(("6n", "21-7", f"{21 * (d // 6)}-7"))
    if d % 7 == 0:
        rows.add(("7n", "32-12", f"{32 * (d // 7)}-12"))
    if d % 8 == 0:
        rows.add(("8n", "18-9", f"{34 * (d // 8)}-9"))
    if d % 9 == 0:
        rows.add(("9n", "39-13", f"{39 * (d // 9)}-13"))
    if d % 10 == 0:
        rows.add(("10n", "30-9", f"{39 * (d // 10)}-9"))
    if d % 11 == 0:
        rows.add(("11n", "40-12", f"{40 * (d // 11)}-12"))
    if d % 6 == 1 and d >= 13:
        m = (d - 1) // 6
        rows.add(("6m+1", "43-12", f"{21 * m + 11}-12"))
    if d % 6 == 2 and d >= 8:
        n = (d - 2) // 6
        rows.add(("6n+2", None, f"{21 * n + 13}-9"))
    if d % 6 == 3 and d >= 15:
        m = (d - 3) // 6
        rows.add(("6m+3", "57-13", f"{21 * m + 18}-13"))
    if d % 6 == 4 and d >= 10:
        n = (d - 4) // 6
        rows.add(("6n+4", None, f"{21 * n + 18}-9"))
    if d % 6 == 5 and d >= 17:
        m = (d - 5) // 6
        rows.add(("6m+5", "61-13", f"{21 * m + 20}-13"))
    if d % 2 == 0 and d >= 10 and d != 12:
        rows.add(("6n+4l", "30-9", None))
    if d % 2 == 1 and d >= 7:
        rows.add(("2n+5", "45-15", None))
    if d % 2 == 1 and d >= 5:
        rows.add(("2n+3", "39-19", None))
    return rows


def test_criterion_8_dimension_table():
    failures = []
    for d in range(3, 25):
        got = {
            (r.row, r.general_symbol, r.rank1_symbol) for r in table_recipe(d)
        }
        expected = _table_rows(d)
        if got != expected:
            failures.append(f"d={d}: rows {got ^ expected} differ")
    executed = 0
    for d in [4, 6, 8, 10, 12, 14, 16, 3, 5, 7, 9, 11, 13]:
        for recipe in table_recipe(d):
            for prediction, build in (
                (recipe.general_symbol, recipe.build_general),
                (recipe.rank1_symbol, recipe.build_rank1),
            ):
                if prediction is None:
                    continue
                got = symbol(build()).compact
                executed += 1
                if got != prediction:
                    failures.append(
                        f"d={d} {recipe.row}: executed {got}, predicted "
                        f"{prediction}"
                    )
        if d % 6 == 0:
            rows = {r.row: r for r in table_recipe(d)}
            r_count = int(rows["6n"].rank1_symbol.split("-")[0])
            if 2 * r_count != 7 * d:
                failures.append(f"d={d}: rank-1 count {r_count} != 3.5d")
    report(8, not failures,
           f"table rows as expected for d=3..24; {executed} recipe "
           f"executions checked" + ("" if not failures else f"; {failures}"))
    assert not failures, failures


def test_criterion_9_oracle_equivalence():
    failures = []
    s18 = catalog.seed_set("d4-18-9")
    small_sets = [
        ("basis2", basis_set(2), None),
        ("basis3", basis_set(3), None),
        ("18-9", s18, None),
        ("18-9 minus {1,2,17,18}", s18, 0),
        ("18-9 minus {5,6,13,14}", s18, 5),
    ]
    for tag, base, removed in small_sets:
        if removed is None:
            sets = [(tag, base)]
        else:
            contexts = [c for i, c in enumerate(base.contexts) if i != removed]
            used = {pid for c in contexts for pid in c}
            projs = {p: q for p, q in base.projectors.items() if p in used}
            from ksets.model import KSSet

            sets = [(tag, KSSet(base.dimension, projs, contexts))]
        for label, s in sets:
            assert s.n_projectors <= 20
            for mode in Mode:
                ours = find_assignment(s, mode) is not None
                brute = brute_force_witness(s, mode) is not None
                if ours != brute:
                    failures.append(f"{label} ({mode.value}): search {ours} "
                                    f"vs enumeration {brute}")
                cnf_sat = naive_cnf_satisfiable(export_cnf(s, mode))
                if cnf_sat != ours:
                    failures.append(f"{label} ({mode.value}): CNF {cnf_sat} "
                                    f"vs search {ours}")
    report(9, not failures,
           "backtracking agrees with exhaustive enumeration and the DIMACS "
           "export agrees with a naive model enumerator on all small sets")
    assert not failures, failures


def test_criterion_10_field_property_bulk():
    rng = random.Random(20260810)
    start = time.perf_counter()
    cases = 0
    shadow_tol = 1e-9

    def rand_cyc(with_denominator: bool) -> CycNum:
        coeffs = [rng.randint(-10, 10) for _ in range(8)]
        if with_denominator:
            return CycNum(coeffs, rng.randint(1, 8))
        return CycNum(coeffs)

    for i in range(10_500):
        rational = i % 3 == 0
        a = rand_cyc(rational)
        b = rand_cyc(rational)
        c = rand_cyc(False)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        n = a * a.conj()
        assert n.conj() == n
        if i % 16 == 0 and not a.is_zero():
            assert a * a.inv() == CycNum.from_rational(1)
        za, zb = a.to_complex(), b.to_complex()
        assert abs((a + b).to_complex() - (za + zb)) < shadow_tol
        assert abs((a * b).to_complex() - za * zb) < shadow_tol
        assert abs(a.conj().to_complex() - za.conjugate()) < shadow_tol
        cases += 1
    elapsed = time.perf_counter() - start
    ok = cases >= 10_000 and elapsed < 10.0
    report(10, ok, f"{cases} randomized field/shadow cases in {elapsed:.1f}s")
    assert cases >= 10_000
    assert elapsed < 10.0, f"bulk property run took {elapsed:.1f}s"
