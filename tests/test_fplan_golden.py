"""The level-synchronous f-plan kernels: arena identity after every step.

``tests/data/fplan_golden.json`` was generated by
``scripts/gen_fplan_golden.py`` at the parent commit of the
level-synchronous kernels (swap, merge, push-up and absorb were
per-occurrence walks there: a heap merge per swapped level, one-entry
``_copy_run`` calls, ``mark`` / ``rollback`` at every prune site) and
committed unchanged.  What an operator writes is cached, persisted and
shipped, so its bytes -- column contents, which value id heads a
swapped group when ``1`` / ``True`` / ``1.0`` meet in one union -- are
part of the operators' contract, after every step of a plan.
"""

import json

from repro.core.arena import validate_arena
from tests.conftest import load_script

gen = load_script("gen_fplan_golden")

with open(gen.GOLDEN_PATH, encoding="utf-8") as handle:
    GOLDEN = json.load(handle)


def _steps(kind=None, op=None):
    """(input state, step record) of every recorded step, filtered by
    case kind (``mixed`` cases count as the shape they re-type) and by
    operator."""
    for case in GOLDEN["cases"]:
        if kind is not None and kind not in (case["kind"], case.get("shape")):
            continue
        before = case["input"]
        for step in case["steps"]:
            if op is None or step["step"].startswith(op + "("):
                yield case, before, step
            before = step


def test_corpus_meets_its_floor():
    cases = GOLDEN["cases"]
    assert GOLDEN["seed"] == gen.SEED
    assert len(cases) >= 200
    assert {case["kind"] for case in cases} >= {
        "leaf_swap", "swap_payload", "merge", "absorb", "push", "mixed",
        "empty", "single_row", "deep_chain", "sweep", "plan", "walk",
        "bench",
    }
    assert {case["seed"] for case in cases if case["kind"] == "sweep"} == set(
        gen.ARENA_OPS_SEEDS
    )
    assert sum(1 for _ in _steps()) >= 300
    # Swaps with payloads at the root and at depth >= 2.
    assert {case["levels"] for case, _, _ in _steps("swap_payload")} >= {0, 2, 3}
    assert {case["levels"] for case, _, _ in _steps("leaf_swap")} == {0, 1}
    # Merges that empty some occurrences, and merges that empty it all.
    merges = list(_steps("merge", "merge"))
    assert sum(0 < step["tuples"] < before["tuples"] for _, before, step in merges) >= 8
    assert sum(step["arena"] == "empty" for _, _, step in merges) >= 2
    assert {case["at"] for case, _, _ in merges} >= {
        "below", "depth3", "roots", "disjoint"
    }
    # Absorbs that prune (below levels above ``A`` too), and one that
    # prunes everything.
    absorbs = list(_steps("absorb", "absorb"))
    assert sum(0 < step["entries"] < before["entries"] for _, before, step in absorbs) >= 12
    assert sum(step["arena"] == "empty" for _, _, step in absorbs) >= 2
    assert {case["levels"] for case, _, _ in absorbs} == {0, 1, 2}
    # Push-ups: bare, and replayed by a constant selection.
    assert sum(1 for _ in _steps("push", "push")) >= 8
    assert sum(1 for _ in _steps("push", "select")) >= 6
    # Every f-plan operator also runs on the 1 / True / 1.0 re-typing.
    for op in ("swap", "merge", "absorb", "push"):
        assert sum(1 for _ in _steps("mixed", op)) >= 4, op
    # Plans and walks chain kernels on other kernels' outputs.
    assert sum(len(case["steps"]) >= 3 for case in cases) >= 20
    assert sum("fused" in case for case in cases) >= 150


def test_operators_write_the_golden_arenas():
    want = iter(GOLDEN["cases"])
    for case, fr, steps in gen.cases():
        got = gen.case_record(case, fr, steps)
        assert got == next(want), case
    assert next(want, None) is None


def test_every_output_is_a_valid_arena():
    for case, fr, steps in gen.cases():
        for out in gen.outputs_of(fr, steps):
            if out.rep is not None and out.rep.entry_count <= 5_000:
                validate_arena(out.tree, out.rep)
