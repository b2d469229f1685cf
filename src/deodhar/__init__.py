"""Combinatorics and symbolic algebra of Deodhar cells in types A and B.

The toolkit covers Weyl group arithmetic, root systems with Chevalley
structure constants, distinguished subexpressions and their cell data,
commutator collection in the unipotent radical with an exact adjoint oracle,
finite-field cross-checks in SL_3, and the catalog of counterexamples to
stratification and closure-intersection expectations.

Names are imported from their modules (``from deodhar.cells import cell``),
and importing a module loads only the modules below it.
"""
