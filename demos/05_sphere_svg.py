"""Render point multisets as orthographic sphere SVGs.

Writes three pictures next to this script: the GHZ triangle, the W state
with its multiplicity badge at the north pole, and the five-point square
pyramid.
"""

import pathlib

from majsphere import RootMultiset, SymmetricState, dicke, majorana_roots
from majsphere.sphereplot import render_svg

here = pathlib.Path(__file__).resolve().parent

pictures = {
    "ghz_sphere.svg": (
        majorana_roots(SymmetricState([1, 0, 0, 1])),
        "GHZ: equatorial triangle",
    ),
    "w_sphere.svg": (majorana_roots(dicke(3, 1)), "W: doubled north pole"),
    "pyramid_sphere.svg": (
        RootMultiset(5, (1 + 0j, 1j, -1 + 0j, -1j), 1),
        "square pyramid",
    ),
}

for name, (roots, title) in pictures.items():
    path = here / name
    path.write_text(render_svg(roots, title=title))
    print(f"wrote {path}")
