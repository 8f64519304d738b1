"""One known kernel fault per ``mzvsums verify`` kind, so that exit 1 is reached through a check that really fails.

``install(kind, patch)`` puts the fault of ``kind`` in place, where ``patch(obj, name, value)`` is
``setattr`` or pytest's ``monkeypatch.setattr``; ``reaches(kind, case)`` says whether the fault changes
a report case of that kind, read from the case alone.  Run as a script,

    python tests/faults.py verify KIND [FLAGS...]

installs KIND's fault and runs the ``mzvsums`` entry point on the same arguments; any other
command line runs it unfaulted.

The faults:

* ``s-identity``, ``t-identity`` -- zeta's binding of ``identity_terms`` weighs the first pair of
  its first group, (0, 2p + q) of the (0, 0) family, one too high.  The right side gains the (0, 0)
  family sum times zeta*_m(c^(2p+q)): s(0, 0) = 1, non-zero with the run where m >= 1 or
  p = q = 0; t(0, 0) = zeta_m(b), non-zero where m >= 1.
* ``frs``, ``frt`` -- the same fault in harmonic's binding.  The right side gains the (0, 0) family
  word times S(c^(2p+q)), with positive coefficients, in every cell.
* ``gen``, ``symmetric`` -- the star grid that ``series._grids`` yields has its x^2 y cell one too
  high at every cutoff (a copy: the next level advances the true grid).  Each check reads that cell
  of F*, in every case; the box must reach x-degree 2 and y-degree 1 (the default 4,4 does).
* ``homomorphism`` -- ``harmonic._harmonic_words`` drops its merge term at every depth, so
  ``harmonic_mul`` is the plain shuffle.  z(u) z(v) exceeds z of the shuffle by the merged words,
  the shortest of length max(|u|, |v|): the case fails where both words are non-empty and m
  reaches that length.
"""

import sys

from mzvsums import cli, harmonic, series, zeta


def _first_weight_one_high(identity_terms):
    def faulty(p, q):
        (i, j, ((weight, r1, r2), *pairs)), *groups = identity_terms(p, q)
        return ((i, j, ((weight + 1, r1, r2), *pairs)), *groups)

    return faulty


def _star_cell_one_high(grids):
    def faulty(exponents, bounds, stars):
        star = stars.index(True)
        for level, lcm in grids(exponents, bounds, stars):
            level = tuple([row[:] for row in grid] for grid in level)
            level[star][2][1] += 1
            yield level, lcm

    return faulty


def _merge_dropped(harmonic_words):
    # Words from the merge term start with k + l; the other two terms start with k or with l.
    def faulty(w1, w2, memo):
        words = harmonic_words(w1, w2, memo)
        return {w: v for w, v in words.items() if not (w1 and w2 and w[0] == w1[0] + w2[0])}

    return faulty


_FAULTS = {
    "s-identity": (zeta, "identity_terms", _first_weight_one_high),
    "t-identity": (zeta, "identity_terms", _first_weight_one_high),
    "frs": (harmonic, "identity_terms", _first_weight_one_high),
    "frt": (harmonic, "identity_terms", _first_weight_one_high),
    "gen": (series, "_grids", _star_cell_one_high),
    "symmetric": (series, "_grids", _star_cell_one_high),
    "homomorphism": (harmonic, "_harmonic_words", _merge_dropped),
}
assert set(_FAULTS) == set(cli.VERIFY_KINDS)


def install(kind: str, patch=setattr) -> None:
    """Put the fault of verify kind ``kind`` in place through ``patch(module, name, faulty)``."""
    module, name, fault = _FAULTS[kind]
    patch(module, name, fault(getattr(module, name)))


def reaches(kind: str, case: dict) -> bool:
    """Whether the fault of ``kind`` makes this report case (as ``_run_verify`` builds it) unequal."""
    if kind == "s-identity":
        return case["m"] >= 1 or case["p"] == case["q"] == 0
    if kind == "t-identity":
        return case["m"] >= 1
    if kind == "homomorphism":
        lengths = (case["u"].count("z"), case["v"].count("z"))  # repr: "z2*z1" has two letters, "1" none
        return min(lengths) >= 1 and case["m"] >= max(lengths)
    return True


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "verify" and sys.argv[2] in _FAULTS:
        install(sys.argv[2])
    cli.entry()
