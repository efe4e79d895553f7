"""Exact Kummer theory of the geometric adele ring of a curve.

Modules:
    coeff_field    finite-field tower with mu_p, zeta, and p-th roots
    laurent        truncated Laurent series, Hensel roots of units
    adeles         the restricted-product form (exceptions plus a default), ideles,
                   valuation vectors, ramification
    local_algebra  elements and automorphisms of K_x[T]/(T^p - t_x), local
                   isomorphisms, pairings
    global_galois  global automorphisms in that form, Galois checks,
                   primitive elements and conjugations as finite descriptions
    harrison       classification into valuation vectors, conjugacy classes
    p1_ingest      rational functions on the projective line, superelliptic covers
    cli            JSON command-line front end
"""

__version__ = "0.1.0"
