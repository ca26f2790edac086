"""The paper's implications between report fields, over enumerated graphs.

Each ``enumerate`` line is checked as the CLI writes it, against three
theorems that relate its fields (tests/oracles.py:verify_report checks each
field against the line's own graph instead):

- (**) implies (*): the paper's abstract calls E.E_i < 0 for all i a
  particular case of its main theorem;
- the structural verdict implies Artin-rationality: on a tree of genus-0
  curves with |E_i^2| > valency everywhere, the reduced cycle E is
  anti-nef, so Z = E and p_a(Z) = 0;
- Artin-rationality implies a tree of genus-0 curves (Artin, Amer. J.
  Math. 88, 1966).
"""

import json

import pytest

from nashcone.cli import main


@pytest.mark.parametrize("bounds,lines", [
    ((4, -4, 1, 1), 4467), ((5, -3, 1, 1), 8110), ((6, -3, 0, 1), 1654),
])
def test_enumerated_reports_satisfy_the_papers_implications(bounds, lines, capsys):
    n, w, g, m = map(str, bounds)
    assert main(["enumerate", "--max-vertices", n, "--min-weight", w, "--max-genus", g,
                 "--max-mult", m]) == 0
    reports = list(map(json.loads, capsys.readouterr().out.splitlines()))
    assert len(reports) == lines
    for k, r in enumerate(reports, 1):
        s = r["structural"]
        assert r["star"]["holds"] or not r["star_star"]["holds"], f"line {k}: (**) without (*)"
        assert r["artin_rational"] or not s["verdict"], f"line {k}: structural without Artin"
        assert s["tree"] and s["all_genus_zero"] or not r["artin_rational"], (
            f"line {k}: Artin-rational but not a tree of genus-0 curves")
    # none of the three holds vacuously
    assert any(r["star_star"]["holds"] for r in reports)
    assert any(r["structural"]["verdict"] for r in reports)
    assert any(r["artin_rational"] for r in reports)
