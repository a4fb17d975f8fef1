"""Acceptance gate: every deliverable behavior, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` (add `-m ''` to include the
opt-in multi-hour lengths 14 and 16).  The length-12 reproduction row is
expected to fail: the embedded reference total is 350256 while this
enumerator provably counts 350286 (see the expected-counts note in
knightcycles.analysis); the row's simple count and both engines' agreement
do hold.
"""

from __future__ import annotations

import pytest

from knightcycles.analysis import EXPECTED_COUNTS, group_geometric_twins, \
    read_cycles, write_cycles
from knightcycles.board import BoardSpec, DIHEDRAL_ELEMENTS, adjacency, \
    apply_dihedral, coord_of, index_of, normalize_translation
from knightcycles.cycles import CycleSeq, canonical_key, canonicalize, \
    is_minimal, validate_cycle
from knightcycles.geometry import is_simple
from knightcycles.search import enumerate_cycles
from conftest import EQUIVALENT_K8_W5, MINIMAL_K8_W5, TWIN_K8_W6
from test_geometry import _oracle_is_simple


def report(label: str, ok: bool, detail: str = "") -> str | None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return None if ok else f"{label} {detail}".rstrip()


def run_both(k: int, jobs: int = 1):
    return {alg: enumerate_cycles(k, alg, simple_filter=True, jobs=jobs)
            for alg in ("dfs", "mitm")}


@pytest.fixture(scope="module")
def k12_summaries():
    # single-worker runs so the two engines' elapsed times are comparable
    return run_both(12, jobs=1)


class TestCriterion1Counts:
    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_small_lengths_exact_and_fast(self, k):
        failures = []
        for alg, summary in run_both(k).items():
            expected = EXPECTED_COUNTS[k]
            failures.append(report(
                f"counts k={k} {alg}",
                (summary.total, summary.simple) == expected,
                f"got {summary.total}/{summary.simple}, want {expected[0]}/{expected[1]}"))
            failures.append(report(
                f"time k={k} {alg} < 5s", summary.elapsed < 5.0,
                f"{summary.elapsed:.2f}s"))
        assert not [f for f in failures if f]

    def test_k10_exact_within_30s(self):
        failures = []
        for alg, summary in run_both(10).items():
            failures.append(report(
                f"counts k=10 {alg}",
                (summary.total, summary.simple) == (12000, 3034),
                f"got {summary.total}/{summary.simple}"))
            failures.append(report(
                f"time k=10 {alg} < 30s", summary.elapsed < 30.0,
                f"{summary.elapsed:.2f}s"))
        assert not [f for f in failures if f]

    @pytest.mark.slow
    def test_k12_reproduction_within_10min(self, k12_summaries):
        failures = []
        for alg, summary in k12_summaries.items():
            failures.append(report(
                f"counts k=12 {alg}",
                (summary.total, summary.simple) == (350256, 64877),
                f"got {summary.total}/{summary.simple}, want 350256/64877"))
            failures.append(report(
                f"time k=12 {alg} < 600s", summary.elapsed < 600.0,
                f"{summary.elapsed:.1f}s"))
        assert not [f for f in failures if f]

    @pytest.mark.longjob
    def test_k14_reproduction(self):
        summary = enumerate_cycles(14, "mitm", simple_filter=True, jobs=2)
        failure = report(
            "counts k=14 mitm",
            (summary.total, summary.simple) == (10780549, 1503790),
            f"got {summary.total}/{summary.simple}, want 10780549/1503790")
        assert not failure

    @pytest.mark.longjob
    def test_k16_reproduction(self):
        summary = enumerate_cycles(16, "mitm", simple_filter=True, jobs=2)
        failure = report(
            "counts k=16 mitm",
            (summary.total, summary.simple) == (344680960, 36930111),
            f"got {summary.total}/{summary.simple}, want 344680960/36930111")
        assert not failure


class TestCriterion2RelativeSpeed:
    @pytest.mark.slow
    def test_mitm_beats_dfs_at_k12(self, k12_summaries):
        dfs = k12_summaries["dfs"].elapsed
        mitm = k12_summaries["mitm"].elapsed
        failure = report("k=12 assembly engine faster", mitm < dfs,
                         f"mitm {mitm:.1f}s vs dfs {dfs:.1f}s")
        assert not failure


class TestCriterion3CrossAlgorithmOracle:
    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_sorted_listings_byte_identical(self, k, tmp_path):
        paths = {}
        for alg in ("dfs", "mitm"):
            listing: list[tuple[int, ...]] = []
            enumerate_cycles(k, alg, sink=listing.append)
            paths[alg] = tmp_path / f"{alg}-{k}.cycles"
            write_cycles(listing, paths[alg], k)
        identical = paths["dfs"].read_bytes() == paths["mitm"].read_bytes()
        failure = report(f"listings k={k} dfs == mitm", identical)
        assert not failure

    @pytest.mark.slow
    def test_k12_totals_match(self, k12_summaries):
        dfs, mitm = k12_summaries["dfs"], k12_summaries["mitm"]
        failure = report(
            "k=12 dfs total == mitm total",
            (dfs.total, dfs.simple, dfs.per_start) ==
            (mitm.total, mitm.simple, mitm.per_start),
            f"{dfs.total}/{dfs.simple} vs {mitm.total}/{mitm.simple}")
        assert not failure


class TestCriterion4Canonicalization:
    def test_published_family_canonicalizes_to_one_key(self):
        board = BoardSpec(5)
        failures = []
        for seq in (MINIMAL_K8_W5,) + EQUIVALENT_K8_W5:
            cycle = validate_cycle(seq, board)
            failures.append(report(
                f"canonical form of {','.join(map(str, seq))}",
                canonicalize(cycle).cells == MINIMAL_K8_W5))
        minimal_flags = [is_minimal(validate_cycle(s, board))
                         for s in (MINIMAL_K8_W5,) + EQUIVALENT_K8_W5]
        failures.append(report("exactly the first placement is minimal",
                               minimal_flags == [True] + [False] * 6))
        assert not [f for f in failures if f]


class TestCriterion5Twins:
    def test_three_placements_form_one_twin_group(self, keys_by_k):
        board = BoardSpec(6)
        cycles = [validate_cycle(s, board) for s in TWIN_K8_W6]
        failures = []
        keys = {canonicalize(c).cells for c in cycles}
        failures.append(report("three cycles valid and pairwise nonequivalent",
                               len(keys) == 3))
        groups = group_geometric_twins(keys_by_k(8))
        members = tuple(sorted(canonical_key(c).cells for c in cycles))
        failures.append(report(
            "they are exactly one k=8 twin group",
            len(groups) == 1 and groups[0].members == members))
        failures.append(report("no twin groups at k=6",
                               group_geometric_twins(keys_by_k(6)) == []))
        assert not [f for f in failures if f]


class TestCriterion6Properties:
    def test_knight_graph_edge_formula(self):
        ok = all(
            sum(len(adjacency(BoardSpec(n))[i])
                for i in range(1, n * n + 1)) == 2 * 4 * (n - 2) * (n - 1)
            for n in range(3, 13))
        failure = report("edge count 4(n-2)(n-1) for n=3..12", ok)
        assert not failure

    def test_canonicalize_fixed_point_and_orbit_soundness_k6(self, keys_by_k):
        board = BoardSpec(7)
        bad = 0
        for key in keys_by_k(6):
            if canonicalize(CycleSeq(key, board)).cells != key:
                bad += 1
            coords = [coord_of(i, board) for i in key]
            for elem in DIHEDRAL_ELEMENTS:
                pts = normalize_translation(apply_dihedral(coords, elem))
                idx = tuple(index_of(p, board) for p in pts)
                for start in range(6):
                    rot = idx[start:] + idx[:start]
                    for var in (rot, rot[:1] + rot[1:][::-1]):
                        if canonicalize(CycleSeq(var, board)).cells != key:
                            bad += 1
        failure = report("orbit soundness over all k=6 classes x 16k forms",
                         bad == 0, f"{bad} mismatches")
        assert not failure

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_start_bound(self, k, keys_by_k):
        worst = max(key[0] for key in keys_by_k(k))
        failure = report(f"canonical start <= {k // 2 + 1} at k={k}",
                         worst <= k // 2 + 1, f"max start {worst}")
        assert not failure

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_simple_filter_matches_rational_oracle(self, k, keys_by_k):
        board = BoardSpec.for_cycle_length(k)
        mismatches = sum(
            1 for key in keys_by_k(k)
            if is_simple(CycleSeq(key, board)) !=
            _oracle_is_simple(CycleSeq(key, board)))
        failure = report(f"crossing test matches exact-arithmetic oracle k={k}",
                         mismatches == 0, f"{mismatches} mismatches")
        assert not failure

    @pytest.mark.parametrize("algorithm", ["dfs", "mitm"])
    def test_determinism_across_jobs(self, algorithm):
        outcomes = []
        for jobs in (1, 2, 3):
            listing: list[tuple[int, ...]] = []
            summary = enumerate_cycles(8, algorithm, simple_filter=True,
                                       jobs=jobs, sink=listing.append)
            outcomes.append((summary.total, summary.simple,
                             summary.per_start, listing))
        failure = report(f"jobs-independent results ({algorithm})",
                         outcomes[0] == outcomes[1] == outcomes[2])
        assert not failure

    def test_cycle_file_round_trip(self, tmp_path, keys_by_k):
        path = tmp_path / "k6.cycles"
        write_cycles(keys_by_k(6), path, 6)
        back = tuple(c.cells for c in read_cycles(path))
        failure = report("cycle file round trip", back == keys_by_k(6))
        assert not failure
