"""Recovery and certificate verdicts pinned on a fixed corpus.

Ball (3 clusters, radius 0.1, separation 1) and uniform instances at m = 8
and 10, seeds 0-3, under four weight families at p = 3. Each cell records
BEP and OT recovery_status as recovered, vertex_integral, and the verdict's
holds and strict, then search_certificate plain and strict as found, holds
and strict; "1" is True, "0" False and "-" no verdict. The table is a
reference, not a derivation: a change to the simplex kernel or the model
builders must reproduce it exactly.
"""

import pytest

from ordmed import Instance, resolve_weights
from ordmed.bench_io import generate_ball, generate_uniform
from ordmed.certificates import search_certificate
from ordmed.exact import recovery_status, solve_enumeration
from ordmed.formulations import build_bep, build_ot

FAMILIES = ("center", "median", "ksum:auto", "centdian:0.5")

GOLDEN = {
    ('ball', 8, 0, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 0, 'median'): ('1110', '1110', '110', '0--'),
    ('ball', 8, 0, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 0, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 1, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 1, 'median'): ('1110', '1110', '110', '0--'),
    ('ball', 8, 1, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 1, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 2, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 2, 'median'): ('1110', '1110', '110', '0--'),
    ('ball', 8, 2, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 2, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 3, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 3, 'median'): ('1110', '1110', '110', '0--'),
    ('ball', 8, 3, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 8, 3, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 0, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 0, 'median'): ('1110', '1110', '110', '111'),
    ('ball', 10, 0, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 0, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 1, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 1, 'median'): ('1110', '1110', '110', '111'),
    ('ball', 10, 1, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 1, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 2, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 2, 'median'): ('1110', '1110', '110', '111'),
    ('ball', 10, 2, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 2, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 3, 'center'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 3, 'median'): ('1110', '1110', '110', '111'),
    ('ball', 10, 3, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('ball', 10, 3, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 0, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 0, 'median'): ('1110', '1110', '110', '111'),
    ('uniform', 8, 0, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 0, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 1, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 1, 'median'): ('1110', '1110', '110', '0--'),
    ('uniform', 8, 1, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 1, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 2, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 2, 'median'): ('1110', '1110', '110', '0--'),
    ('uniform', 8, 2, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 2, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 3, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 3, 'median'): ('1110', '1110', '110', '0--'),
    ('uniform', 8, 3, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 8, 3, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 0, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 0, 'median'): ('1110', '1110', '110', '111'),
    ('uniform', 10, 0, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 0, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 1, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 1, 'median'): ('1110', '1110', '110', '0--'),
    ('uniform', 10, 1, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 1, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 2, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 2, 'median'): ('1110', '1110', '110', '111'),
    ('uniform', 10, 2, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 2, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 3, 'center'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 3, 'median'): ('1110', '1110', '110', '0--'),
    ('uniform', 10, 3, 'ksum:auto'): ('00--', '00--', '0--', '0--'),
    ('uniform', 10, 3, 'centdian:0.5'): ('00--', '00--', '0--', '0--'),
}


def _flags(*values) -> str:
    return "".join("-" if v is None else "1" if v else "0" for v in values)


@pytest.mark.parametrize("gen", ["ball", "uniform"])
@pytest.mark.parametrize("m", [8, 10])
def test_verdicts_match_the_golden_table(gen, m):
    got, want = {}, {}
    for seed in range(4):
        if gen == "ball":
            points, dist = generate_ball(m, 3, 0.1, 1.0, seed=seed)
        else:
            points, dist = generate_uniform(m, seed=seed)
        for family in FAMILIES:
            inst = Instance(dist, resolve_weights(family, m), 3, points)
            cell = []
            for build in (build_bep, build_ot):
                rep = recovery_status(inst, model=build(inst))
                v = rep.verdict
                cell.append(_flags(rep.recovered, rep.vertex_integral,
                                   v and v.holds, v and v.strict))
            best = solve_enumeration(inst)
            for strict in (False, True):
                cert, v = search_certificate(inst, best, strict=strict)
                cell.append(_flags(cert is not None, v and v.holds, v and v.strict))
            key = (gen, m, seed, family)
            got[key], want[key] = tuple(cell), GOLDEN[key]
    assert got == want
